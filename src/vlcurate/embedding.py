"""Per-sample embedding assembly.

Each sample's embedding is the concatenation, in fixed slot order, of its
four standardized indicator scores and m PCA-reduced multimodal features:

    [clip, length, reward, gpt, p_1 .. p_m]

Slot order is positional and stable; m defaults to 6, giving dimension 10.
Standardization (z-scoring the four score slots over the corpus) is applied
because raw scales differ by orders of magnitude; ``standardized=False``
keeps the raw scores. The PCA runs on the row-wise concatenation of the
image and LLM-text feature matrices, which ``pca_fit`` reads as two column
blocks without joining them; a split mode reduces the two matrices
separately for the feature-ablation runs.
"""

from __future__ import annotations

import numpy as np

from .corpus import ScoreCache, Triplet
from .errors import DimensionMismatch
from .indicators import indicator_matrix
from .numerics import pca_fit, pca_transform


def standardize(scores: np.ndarray) -> np.ndarray:
    """(value - mean) / std per column of an (N, 4) score matrix, with the
    column's mean and population std; constant columns map to 0."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != 4 or scores.shape[0] < 1:
        raise DimensionMismatch(f"expected a non-empty (N, 4) score matrix, got {scores.shape}")
    means, stds = scores.mean(axis=0), scores.std(axis=0)
    safe = np.where(stds > 0.0, stds, 1.0)
    return np.where(stds > 0.0, (scores - means) / safe, 0.0)


def fit_feature_reducer(
    image: np.ndarray, text: np.ndarray, m: int = 6, mode: str = "joint"
) -> np.ndarray:
    """The (N, m) PCA features of the (N, d_image) image and (N, d_text)
    llm-text matrices: one PCA over [image ‖ text], or in split mode m // 2
    components of the image matrix beside m - m // 2 of the text."""
    if mode == "joint":
        return pca_transform(pca_fit((image, text), m), (image, text))
    if mode == "split":
        m_image = m // 2
        return np.hstack([pca_transform(pca_fit(image, m_image), image),
                          pca_transform(pca_fit(text, m - m_image), text)])
    raise ValueError(f"unknown reducer mode {mode!r}")


def assemble_corpus(
    manifest: list[Triplet],
    cache: ScoreCache,
    image: np.ndarray,
    text: np.ndarray,
    m: int = 6,
    mode: str = "joint",
    standardized: bool = True,
) -> np.ndarray:
    """The (N, 4 + m) embedding matrix, rows in manifest order, from the
    feature matrices of ``fit_feature_reducer``. An incomplete score record
    raises MissingScore naming the indicator."""
    scores = indicator_matrix(manifest, cache)
    return np.hstack([standardize(scores) if standardized else scores,
                      fit_feature_reducer(image, text, m, mode)])
