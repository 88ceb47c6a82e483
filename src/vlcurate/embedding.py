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

Fitted parameters persist as a bundle directory so selection on new data
reuses the exact training-time transforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import FeatureStore, ScoreCache, Triplet, atomic_write, write_feature_file
from .errors import DimensionMismatch, MissingScore, ModelLoadError
from .indicators import indicator_matrix, scores_from_record
from .numerics import PcaModel, pca_fit, pca_transform

BUNDLE_VERSION = 1
SCORE_SLOTS = ("clip", "length", "reward", "gpt")


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray  # (4,)
    stds: np.ndarray   # (4,) population stds; 0 marks a constant column


def fit_standardizer(scores: np.ndarray | list) -> Standardizer:
    matrix = _as_score_matrix(scores)
    return Standardizer(means=matrix.mean(axis=0), stds=matrix.std(axis=0))


def identity_standardizer() -> Standardizer:
    return Standardizer(means=np.zeros(4), stds=np.ones(4))


def standardize(std: Standardizer, scores) -> np.ndarray:
    """(value - mean) / std per column; constant columns map to 0."""
    # note: ndarray has a .clip method, so probe a score-only field
    row = np.asarray(
        scores_from_record(scores) if hasattr(scores, "gpt") else scores, dtype=float
    )
    safe = np.where(std.stds > 0.0, std.stds, 1.0)
    return np.where(std.stds > 0.0, (row - std.means) / safe, 0.0)


def _as_score_matrix(scores) -> np.ndarray:
    if isinstance(scores, np.ndarray):
        matrix = np.asarray(scores, dtype=float)
    else:
        matrix = np.stack([scores_from_record(s) for s in scores])
    if matrix.ndim != 2 or matrix.shape[1] != 4:
        raise DimensionMismatch(f"expected an (N, 4) score matrix, got {matrix.shape}")
    if matrix.shape[0] < 1:
        raise DimensionMismatch("empty score matrix")
    return matrix


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

    @property
    def pca(self) -> PcaModel:
        if self.joint is None:
            raise ValueError("reducer was fitted in split mode")
        return self.joint

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
    features: FeatureStore, m: int = 6, mode: str = "joint"
) -> FeatureReducer:
    image = features.matrix("image")
    text = features.matrix("text_llm")
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

@dataclass(frozen=True)
class ItemEmbedding:
    id: str
    vector: np.ndarray  # (4 + m,)


def assemble(
    std: Standardizer,
    reducer: FeatureReducer,
    scores,
    image_vec: np.ndarray,
    llm_text_vec: np.ndarray,
    sample_id: str,
) -> ItemEmbedding:
    """Concatenate standardized scores with reduced features for one sample."""
    if hasattr(scores, "complete") and not scores.complete():
        missing = next(s for s in SCORE_SLOTS if getattr(scores, s) is None)
        raise MissingScore(sample_id, missing)
    score_part = standardize(std, scores)
    feature_part = reducer.transform(image_vec, llm_text_vec)[0]
    return ItemEmbedding(id=sample_id, vector=np.concatenate([score_part, feature_part]))


def assemble_corpus(
    manifest: list[Triplet],
    cache: ScoreCache,
    features: FeatureStore,
    std: Standardizer,
    reducer: FeatureReducer,
) -> list[ItemEmbedding]:
    """One embedding per triplet, in manifest order."""
    scores = indicator_matrix(manifest, cache)
    safe = np.where(std.stds > 0.0, std.stds, 1.0)
    score_part = np.where(std.stds > 0.0, (scores - std.means) / safe, 0.0)
    feature_part = reducer.transform(
        features.matrix("image"), features.matrix("text_llm")
    )
    stacked = np.hstack([score_part, feature_part])
    return [
        ItemEmbedding(id=t.id, vector=stacked[i].copy())
        for i, t in enumerate(manifest)
    ]


def embedding_matrix(embeddings: list[ItemEmbedding]) -> np.ndarray:
    return np.stack([e.vector for e in embeddings])


def write_embeddings(path: str | Path, embeddings: list[ItemEmbedding]) -> None:
    write_feature_file(path, [e.id for e in embeddings], embedding_matrix(embeddings))


# -- bundle persistence --------------------------------------------------

def _pca_to_json(model: PcaModel) -> dict:
    return {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "explained_variance": model.explained_variance.tolist(),
    }


def _pca_from_json(blob: dict) -> PcaModel:
    return PcaModel(
        mean=np.array(blob["mean"], dtype=float),
        components=np.array(blob["components"], dtype=float),
        explained_variance=np.array(blob["explained_variance"], dtype=float),
    )


def save_bundle(
    bundle_dir: str | Path,
    std: Standardizer,
    reducer: FeatureReducer,
    fingerprint: str = "",
) -> None:
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    blob = {
        "version": BUNDLE_VERSION,
        "fingerprint": fingerprint,
        "standardizer": {"means": std.means.tolist(), "stds": std.stds.tolist()},
        "reducer": {
            "mode": reducer.mode,
            "m": reducer.m,
            "image_dim": reducer.image_dim,
            "text_dim": reducer.text_dim,
            "models": {
                name: _pca_to_json(model)
                for name, model in (
                    ("joint", reducer.joint),
                    ("image", reducer.image),
                    ("text", reducer.text),
                )
                if model is not None
            },
        },
    }
    with atomic_write(bundle_dir / "embedding_bundle.json") as fh:
        json.dump(blob, fh, indent=2)
        fh.write("\n")


def load_bundle(bundle_dir: str | Path) -> tuple[Standardizer, FeatureReducer, str]:
    path = Path(bundle_dir) / "embedding_bundle.json"
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelLoadError(f"cannot read embedding bundle at {path}: {exc}") from exc
    if blob.get("version") != BUNDLE_VERSION:
        raise ModelLoadError(
            f"bundle version {blob.get('version')!r} != supported {BUNDLE_VERSION}"
        )
    std = Standardizer(
        means=np.array(blob["standardizer"]["means"], dtype=float),
        stds=np.array(blob["standardizer"]["stds"], dtype=float),
    )
    red = blob["reducer"]
    models = {name: _pca_from_json(m) for name, m in red["models"].items()}
    reducer = FeatureReducer(
        mode=red["mode"],
        m=int(red["m"]),
        image_dim=int(red["image_dim"]),
        text_dim=int(red["text_dim"]),
        joint=models.get("joint"),
        image=models.get("image"),
        text=models.get("text"),
    )
    return std, reducer, str(blob.get("fingerprint", ""))
