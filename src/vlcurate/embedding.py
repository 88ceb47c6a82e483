"""Per-sample embedding assembly.

Each sample's embedding is the concatenation, in fixed slot order, of its
four standardized indicator scores and m PCA-reduced multimodal features:

    [clip, length, reward, gpt, p_1 .. p_m]

Slot order is positional and stable; m defaults to 6, giving dimension 10.
Standardization (z-scoring the four score slots) is applied because raw
scales differ by orders of magnitude; ``identity_standardizer`` restores
the raw concatenation. The PCA runs on the row-wise concatenation of the
image and LLM-text feature matrices; a split mode reduces the two blocks
separately for the feature-ablation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ScoreCache, Triplet
from .errors import DimensionMismatch
from .indicators import indicator_matrix
from .numerics import PcaModel, pca_fit, pca_transform

SCORE_SLOTS = ("clip", "length", "reward", "gpt")


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray  # (4,)
    stds: np.ndarray   # (4,) population stds; 0 marks a constant column


def fit_standardizer(scores: np.ndarray) -> Standardizer:
    matrix = np.asarray(scores, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != 4:
        raise DimensionMismatch(f"expected an (N, 4) score matrix, got {matrix.shape}")
    if matrix.shape[0] < 1:
        raise DimensionMismatch("empty score matrix")
    return Standardizer(means=matrix.mean(axis=0), stds=matrix.std(axis=0))


def identity_standardizer() -> Standardizer:
    return Standardizer(means=np.zeros(4), stds=np.ones(4))


def standardize(std: Standardizer, scores: np.ndarray) -> np.ndarray:
    """(value - mean) / std per column of a score row or (N, 4) matrix;
    constant columns map to 0."""
    scores = np.asarray(scores, dtype=float)
    safe = np.where(std.stds > 0.0, std.stds, 1.0)
    return np.where(std.stds > 0.0, (scores - std.means) / safe, 0.0)


# -- multimodal feature reduction ---------------------------------------

@dataclass(frozen=True)
class FeatureReducer:
    """PCA over [image ‖ llm-text] features, jointly or per block."""

    mode: str                    # "joint" | "split"
    m: int
    image_dim: int
    text_dim: int
    joint: PcaModel | None = None
    image: PcaModel | None = None
    text: PcaModel | None = None

    def transform(self, image_vecs: np.ndarray, text_vecs: np.ndarray) -> np.ndarray:
        image_vecs = np.atleast_2d(np.asarray(image_vecs, dtype=float))
        text_vecs = np.atleast_2d(np.asarray(text_vecs, dtype=float))
        if image_vecs.shape[1] != self.image_dim or text_vecs.shape[1] != self.text_dim:
            raise DimensionMismatch(
                f"feature dims ({image_vecs.shape[1]}, {text_vecs.shape[1]}) do not "
                f"match reducer ({self.image_dim}, {self.text_dim})"
            )
        if self.mode == "joint":
            return pca_transform(self.joint, np.hstack([image_vecs, text_vecs]))
        return np.hstack(
            [pca_transform(self.image, image_vecs), pca_transform(self.text, text_vecs)]
        )


def fit_feature_reducer(
    features: dict[str, np.ndarray], m: int = 6, mode: str = "joint"
) -> FeatureReducer:
    image = features["image"]
    text = features["text_llm"]
    if mode == "joint":
        model = pca_fit(np.hstack([image, text]), m)
        return FeatureReducer(
            mode="joint",
            m=m,
            image_dim=image.shape[1],
            text_dim=text.shape[1],
            joint=model,
        )
    if mode == "split":
        m_image = m // 2
        m_text = m - m_image
        return FeatureReducer(
            mode="split",
            m=m,
            image_dim=image.shape[1],
            text_dim=text.shape[1],
            image=pca_fit(image, m_image),
            text=pca_fit(text, m_text),
        )
    raise ValueError(f"unknown reducer mode {mode!r}")


# -- assembly ------------------------------------------------------------

def assemble_corpus(
    manifest: list[Triplet],
    cache: ScoreCache,
    features: dict[str, np.ndarray],
    std: Standardizer,
    reducer: FeatureReducer,
) -> np.ndarray:
    """The (N, 4 + m) embedding matrix, rows in manifest order. An
    incomplete score record raises MissingScore naming the indicator."""
    score_part = standardize(std, indicator_matrix(manifest, cache))
    feature_part = reducer.transform(features["image"], features["text_llm"])
    return np.hstack([score_part, feature_part])
