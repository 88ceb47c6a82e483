"""Deterministic numerical engines: PCA, k-means++, spectral clustering.

Everything is seeded and pure: identical (data, seed) always reproduces
identical output. ``np.linalg.eigh`` solves PCA's d x d covariance (and
the small projected matrix inside ``top_eigenpairs``). Spectral
clustering never forms the N x N Laplacian or decomposes it whole: it
builds the normalized affinity in place in one N x N buffer and takes its
k leading eigenpairs from a seeded block Krylov solver. Tests cross-check
the results against independent brute-force routes, dense ``eigh`` of the
Laplacian among them.

Balanced k-means adds a capacity post-pass on top of standard Lloyd:
each oversized cluster keeps its ``capacity`` closest members, evicted
points refill under-capacity clusters closest-first, and the final
``N - k * capacity`` leftovers carry label -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRank,
    DegenerateAffinity,
    DimensionMismatch,
    EigensolverNotConverged,
    InfeasibleCapacity,
    TooManyClusters,
)

LLOYD_MAX_ITER = 300
DEFAULT_RESTARTS = 10

# top_eigenpairs: the block is k + EIG_OVERSAMPLE columns wide (at most N),
# a Krylov basis holds at most EIG_DEPTH blocks before a restart, and a Ritz
# pair has converged when |M u - theta u| <= EIG_TOL for unit u (an absolute
# bound, sized for |M| <= 1 as for a normalized affinity). A new direction
# shorter than EIG_DROP of its column's length is rounding noise and is not
# added to the basis. The start block is seeded, so the same matrix always
# gives bit-identical eigenpairs.
EIG_OVERSAMPLE = 6
EIG_DEPTH = 24
EIG_TOL = 1e-10
EIG_MAX_RESTARTS = 10
EIG_DROP = 1e-13
EIG_SEED = 0


# -- PCA -----------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (m, d), orthonormal rows
    explained_variance: np.ndarray  # (m,), nonincreasing


def pca_fit(data: np.ndarray, m: int) -> PcaModel:
    """Top-m eigenvectors of the sample covariance of mean-centered data.

    Sign convention: each component's largest-magnitude entry is positive.
    Rank deficiency below m is not an error; trailing variances are zero.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {data.shape}")
    n, d = data.shape
    if n < 2:
        raise BadRank("need at least 2 rows to fit")
    if not 1 <= m <= min(n - 1, d):
        raise BadRank(f"target dim {m} outside [1, {min(n - 1, d)}]")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")[:m]
    variance = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.shape[-1] != model.mean.shape[0]:
        raise DimensionMismatch(
            f"data dim {data.shape[-1]} does not match model dim {model.mean.shape[0]}"
        )
    return (data - model.mean) @ model.components.T


def pca_inverse_transform(model: PcaModel, reduced: np.ndarray) -> np.ndarray:
    reduced = np.asarray(reduced, dtype=float)
    return reduced @ model.components + model.mean


# -- k-means++ -----------------------------------------------------------

@dataclass
class ClusterAssignment:
    labels: np.ndarray              # (N,) ints in [0, k) or -1 for leftovers
    centroids: np.ndarray | None    # (k, d) for k-means, None for spectral
    sizes: np.ndarray               # (k,) member counts over labels >= 0
    inertia: float | None = None
    inertia_history: list[float] | None = None


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """|x|^2 - 2 x.c + |c|^2, clamped at zero, built in one (N, k) buffer."""
    d2 = (2.0 * data) @ centroids.T
    np.subtract((data * data).sum(axis=1)[:, None], d2, out=d2)
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _dsq_seed(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=float)
    centroids[0] = data[int(rng.integers(n))]
    closest = ((data - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centroids[j] = data[idx]
        closest = np.minimum(closest, ((data - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(
    data: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    n, k = data.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full(n, -1, dtype=int)
    history: list[float] = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = _squared_distances(data, centroids)
        new_labels = d2.argmin(axis=1)
        # re-seed empty clusters from the farthest points (lowest cluster
        # index claims the farthest, the next empty one the runner-up, ...)
        point_d2 = d2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        taken: set[int] = set()
        for j in np.flatnonzero(counts == 0):
            candidates = [
                (-point_d2[i], i) for i in range(n) if i not in taken and counts[new_labels[i]] > 1
            ]
            neg_d, far = min(candidates)
            counts[new_labels[far]] -= 1
            new_labels[far] = j
            counts[j] = 1
            centroids[j] = data[far]
            point_d2[far] = 0.0
            taken.add(far)
        history.append(float(point_d2.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = data[labels == j].mean(axis=0)
    d2 = _squared_distances(data, centroids)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, centroids, inertia, history


def _enforce_capacity(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray, capacity: int
) -> np.ndarray:
    k = centroids.shape[0]
    labels = labels.copy()
    d2 = _squared_distances(data, centroids)
    pool: list[int] = []
    for j in range(k):
        members = np.flatnonzero(labels == j)
        if len(members) > capacity:
            order = members[np.argsort(d2[members, j], kind="stable")]
            evicted = order[capacity:]
            labels[evicted] = -1
            pool.extend(int(i) for i in evicted)
    space = capacity - np.bincount(labels[labels >= 0], minlength=k)
    if pool:
        edges = sorted(
            (float(d2[i, j]), i, j) for i in pool for j in range(k) if space[j] > 0
        )
        assigned: set[int] = set()
        for _, i, j in edges:
            if i in assigned or space[j] <= 0:
                continue
            labels[i] = j
            space[j] -= 1
            assigned.add(i)
    return labels


def kmeans_pp(
    data: np.ndarray,
    k: int,
    seed: int,
    balanced: bool = False,
    capacity: int | None = None,
) -> ClusterAssignment:
    """D^2-sampled seeding plus Lloyd iterations; best of DEFAULT_RESTARTS restarts.

    With ``balanced=True`` the capacity post-pass makes every cluster hold
    exactly ``capacity`` members (default N // k); leftovers get label -1.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {data.shape}")
    n = data.shape[0]
    if k > n:
        raise TooManyClusters(f"k={k} exceeds {n} rows")
    if k < 1:
        raise TooManyClusters("k must be >= 1")
    if balanced:
        if capacity is None:
            capacity = n // k
        if capacity < 1 or capacity * k > n:
            raise InfeasibleCapacity(f"capacity {capacity} x {k} clusters > {n} rows")

    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    for _ in range(DEFAULT_RESTARTS):
        result = _lloyd(data, _dsq_seed(data, k, rng))
        if best is None or result[2] < best[2]:
            best = result
    labels, centroids, inertia, history = best

    if balanced:
        labels = _enforce_capacity(data, labels, centroids, capacity)
    sizes = np.bincount(labels[labels >= 0], minlength=k)
    return ClusterAssignment(
        labels=labels,
        centroids=centroids,
        sizes=sizes,
        inertia=inertia,
        inertia_history=history,
    )


# -- spectral clustering -------------------------------------------------

def pairwise_distances(data: np.ndarray) -> np.ndarray:
    dist = _squared_distances(data, data)
    np.fill_diagonal(dist, 0.0)
    return np.sqrt(dist, out=dist)


def _median_distance(data: np.ndarray) -> float:
    """The median off-diagonal pairwise distance, 0.0 below two rows.

    Partitions one distance matrix in place instead of copying out its
    off-diagonal: the n zero diagonal entries sort before every distance,
    so the off-diagonal order statistic j sits at flat position n + j."""
    n = data.shape[0]
    half = n * (n - 1) // 2
    if half == 0:
        return 0.0
    flat = pairwise_distances(data).reshape(-1)
    middle = [n + half - 1, n + half]
    flat.partition(middle)
    return float(np.mean(flat[middle]))


def _normalized_affinity(data: np.ndarray) -> np.ndarray:
    """M = D^-1/2 A D^-1/2 for the Gaussian affinity A (zero diagonal,
    kernel width the median off-diagonal distance), built in place in one
    (N, N) distance buffer."""
    sigma = _median_distance(data)
    if sigma == 0.0:
        raise DegenerateAffinity("median pairwise distance is zero")
    buf = pairwise_distances(data)
    np.multiply(buf, buf, out=buf)
    np.negative(buf, out=buf)
    buf /= 2.0 * sigma * sigma
    np.exp(buf, out=buf)
    np.fill_diagonal(buf, 0.0)
    degree = buf.sum(axis=1)
    inv_sqrt = np.where(degree > 0.0, 1.0 / np.sqrt(np.where(degree > 0.0, degree, 1.0)), 0.0)
    buf *= inv_sqrt[:, None]
    buf *= inv_sqrt[None, :]
    return buf


def _extend_basis(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of ``block`` outside the span
    of the orthonormal ``basis``. The columns are scaled to unit length
    first (the span is what counts, and the image of a direction with a
    small eigenvalue is short), then go through two Gram-Schmidt passes,
    each followed by a QR. A direction that the first pass leaves below
    EIG_DROP, or the second shrinks below half its length, lies in the span
    to rounding and is dropped."""
    norms = np.linalg.norm(block, axis=0)
    block = block[:, norms > 0.0] / norms[norms > 0.0]
    floor = EIG_DROP
    for _ in range(2):
        block = block - basis @ (basis.T @ block)
        q, r = np.linalg.qr(block)
        block = q[:, np.abs(np.diag(r)) > floor]
        floor = 0.5
    return block


def top_eigenpairs(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k algebraically largest eigenvalues (descending) of a symmetric
    matrix and orthonormal eigenvectors for them.

    Block Krylov iteration with explicit restarts. A cycle starts from a
    seeded block of ``k + EIG_OVERSAMPLE`` columns and grows the
    orthonormal basis of [X, MX, M^2 X, ...] one block at a time, up to
    ``EIG_DEPTH`` blocks. After each block, Rayleigh-Ritz runs over the
    whole basis and ranks the Ritz pairs by algebraic value, so eigenvalues
    near -1 never crowd out those near +1 as they do in plain subspace
    iteration. The answer is returned as soon as each of the k leading
    Ritz pairs has residual norm at most ``EIG_TOL``; a full basis starts
    the next cycle from the leading Ritz vectors, and after
    ``EIG_MAX_RESTARTS`` cycles EigensolverNotConverged is raised.
    """
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise BadRank(f"k={k} outside [1, {n}]")
    width = min(n, k + EIG_OVERSAMPLE)
    start = np.random.default_rng(EIG_SEED).standard_normal((n, width))
    worst = float("inf")
    for _ in range(EIG_MAX_RESTARTS):
        block = _extend_basis(np.empty((n, 0)), start)
        basis, image = block, matrix @ block
        for depth in range(1, EIG_DEPTH + 1):
            projected = basis.T @ image
            theta, coords = np.linalg.eigh((projected + projected.T) / 2.0)
            order = np.argsort(-theta, kind="stable")[:width]
            theta, coords = theta[order], coords[:, order]
            vectors = basis @ coords
            residual = image @ coords[:, :k] - vectors[:, :k] * theta[:k]
            worst = float(np.linalg.norm(residual, axis=0).max())
            if worst <= EIG_TOL:
                return theta[:k], vectors[:, :k]
            if depth == EIG_DEPTH:
                break
            block = _extend_basis(basis, image[:, -block.shape[1]:])
            if not block.shape[1]:   # the basis spans an invariant subspace
                break
            basis = np.hstack([basis, block])
            image = np.hstack([image, matrix @ block])
        start = vectors
    raise EigensolverNotConverged(
        f"top-{k} eigenpairs of a {n}x{n} matrix: residual {worst:.3g} > {EIG_TOL:g} "
        f"after {EIG_MAX_RESTARTS} restarts")


def spectral_embedding(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues (ascending) of the normalized Laplacian
    L = I - D^-1/2 A D^-1/2 plus the row-normalized (N, k) matrix of their
    eigenvectors. L is never formed: they are the k largest eigenpairs of
    the normalized affinity, found by ``top_eigenpairs``."""
    data = np.asarray(data, dtype=float)
    theta, rows = top_eigenpairs(_normalized_affinity(data), k)
    norms = np.linalg.norm(rows, axis=1)
    nonzero = norms > 0.0
    rows[nonzero] /= norms[nonzero, None]
    return 1.0 - theta, rows


def rank_data(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    positions = np.arange(1.0, values.size + 1.0)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = positions[i:j + 1].mean()
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on tie-averaged ranks)."""
    ra = rank_data(a) - (np.asarray(a).size + 1.0) / 2.0
    rb = rank_data(b) - (np.asarray(b).size + 1.0) / 2.0
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def spectral_cluster(data: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """Gaussian-affinity normalized-cut clustering (median-distance kernel width)."""
    data = np.asarray(data, dtype=float)
    if k > data.shape[0]:
        raise TooManyClusters(f"k={k} exceeds {data.shape[0]} rows")
    _, rows = spectral_embedding(data, k)
    assignment = kmeans_pp(rows, k, seed)
    return ClusterAssignment(
        labels=assignment.labels,
        centroids=None,
        sizes=assignment.sizes,
        inertia=assignment.inertia,
    )
