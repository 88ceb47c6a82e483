"""Deterministic numerical engines: PCA, k-means++, spectral clustering.

Everything is seeded and pure: identical (data, seed) always reproduces
identical output, and no input is modified. ``np.linalg.eigh`` solves the
p x p landmark Gram of spectral clustering. Spectral clustering is
landmark-based (Chen & Cai, AAAI 2011): instead of an N x N affinity it
links each point to a few of p seeded landmark rows, so its memory and
time grow linearly in N. The nearest landmarks are searched over blocks
of ``DISTANCE_BLOCK`` rows, so it holds one (block, p) distance block,
the p x p Gram and (N, r) neighbour lists, never all N rows' distances.
Landmarks are drawn among distinct rows, so copies of a row cannot fill
its nearest landmarks and shrink the kernel width to rounding noise.
Tests cross-check the results against independent brute-force routes,
dense ``eigh`` of the landmark graph's N x N affinity among them.

``pca_fit`` takes one matrix or a sequence of column blocks, which it reads
as their column join without forming it. It sums the column means, then
the covariance, over blocks of ``PCA_BLOCK`` rows: each block is copied,
column-joined and centered, into one (PCA_BLOCK, d) buffer, and its
product with itself goes through one d x d buffer into the covariance.
``pca_transform`` projects in the same blocks. Those fixed blocks define
the bits of the model and the projection, and give a matrix and its column
blocks the same bits. Only the top m eigenpairs of the covariance are
found, by block Krylov iteration with Rayleigh-Ritz (block Lanczos; Golub &
Underwood, 1977) on the covariance divided by its largest absolute entry,
so that no residual overflows. A seeded block of m + ``KRYLOV_OVERSAMPLE``
columns starts an orthonormal basis, which grows by the covariance times
its last block, orthogonalized twice against it, dependent columns
dropped; a block that vanishes is replaced by a fresh seeded block. After
each block, Rayleigh-Ritz over the whole basis gives the Ritz pairs, and
the solver stops once each of the m leading ones has a residual at most
``KRYLOV_TOL`` times the largest Ritz value. The basis gains at least one
column per step, and once it holds d columns Rayleigh-Ritz is exact, so the
loop always ends, with no restart and no convergence error. ``eigh`` only
sees the projected matrix, whose size is the basis's.

Lloyd's centroids are per-column ``np.bincount`` sums over the members in
row order, the bytes of ``data[labels == j].mean(axis=0)``, but
a column whose every member is -0.0 gets +0.0, and a one-column matrix,
whose mean numpy sums pairwise, can differ in the last bit.

Balanced k-means adds a capacity post-pass on top of standard Lloyd:
each oversized cluster keeps its ``capacity`` closest members, evicted
points refill under-capacity clusters closest-first, and the final
``N - k * capacity`` leftovers carry label -1.

``row_dots`` gives each row pair's dot product with the bits of
``np.dot(a[i], b[i])``, so a per-row loop of dots or of
``np.linalg.norm`` (which is ``sqrt(x.dot(x))``) becomes one call. Each
row pair is one (1, d) @ (d, 1) product in a stack, and numpy's matmul
hands a product with a 1 x 1 result to the same BLAS dot that ``np.dot``
calls on two vectors. At width 1 matmul instead adds the lone product to
+0.0, which would turn a -0.0 product into +0.0, so that width is
multiplied out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadRank,
    DegenerateAffinity,
    DimensionMismatch,
    InfeasibleCapacity,
    TooManyClusters,
)

LLOYD_MAX_ITER = 300
DEFAULT_RESTARTS = 10

# spectral_embedding: at most LANDMARKS landmark rows, each point linked to
# its NEIGHBOURS nearest landmarks
LANDMARKS = 500
NEIGHBOURS = 5
# rows per block of spectral_embedding's nearest-landmark search
DISTANCE_BLOCK = 512
# rows per block of pca_fit's covariance and pca_transform's projection
PCA_BLOCK = 512
# pca_fit's eigensolver: its start block has m + KRYLOV_OVERSAMPLE seeded
# columns; it stops once each Ritz residual is at most KRYLOV_TOL times the
# largest Ritz value; KRYLOV_DROP is the dependence floor of _extend_basis
KRYLOV_OVERSAMPLE = 8
KRYLOV_TOL = 1e-12
KRYLOV_DROP = 1e-13


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N,) dot products of the rows of two (N, d) arrays, each with the
    bits of ``np.dot(a[i], b[i])``."""
    if a.shape[1] == 1:
        return a[:, 0] * b[:, 0]
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# -- PCA -----------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (m, d), orthonormal rows
    explained_variance: np.ndarray  # (m,), nonincreasing


def _column_blocks(data) -> tuple[list[np.ndarray], int, int]:
    """The float (N, d_i) blocks of ``data``, one matrix or a list or tuple
    of matrices with equal row counts read as their column join, with N and
    d = sum d_i."""
    blocks = [np.asarray(block, dtype=float)
              for block in (data if isinstance(data, (list, tuple)) else [data])]
    for block in blocks:
        if block.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D matrix, got shape {block.shape}")
    if not blocks or len({block.shape[0] for block in blocks}) != 1:
        raise DimensionMismatch(f"blocks need equal row counts, got {[b.shape for b in blocks]}")
    return blocks, blocks[0].shape[0], sum(block.shape[1] for block in blocks)


def _row_block(blocks: list[np.ndarray], start: int, mean: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Rows ``start`` .. ``start + PCA_BLOCK`` of the column join of
    ``blocks``, less ``mean``, written into the (PCA_BLOCK, d) buffer
    ``out``; returns the filled rows."""
    stop = min(start + PCA_BLOCK, blocks[0].shape[0])
    rows, col = out[:stop - start], 0
    for block in blocks:
        cut = slice(col, col + block.shape[1])
        np.subtract(block[start:stop], mean[cut], out=rows[:, cut])
        col = cut.stop
    return rows


def _extend_basis(basis: list[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of ``block`` outside the span
    of ``basis``, a list of blocks of orthonormal columns. The columns are
    scaled to unit length first (the span is what counts, and the image of a
    direction with a small eigenvalue is short), then go through two
    block Gram-Schmidt passes, each followed by a QR. A direction that the
    first pass leaves below ``KRYLOV_DROP``, or the second shrinks below
    half its length, lies in the span to rounding and is dropped."""
    norms = np.linalg.norm(block, axis=0)
    block = block[:, norms > 0.0] / norms[norms > 0.0]
    floor = KRYLOV_DROP
    for _ in range(2):
        for done in basis:
            block -= done @ (done.T @ block)
        q, r = np.linalg.qr(block)
        block = q[:, np.abs(np.diag(r)) > floor]
        floor = 0.5
    return block


def _top_eigenpairs(matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m largest eigenvalues (descending) of a symmetric positive
    semidefinite d x d matrix, m <= d, and orthonormal (d, m) eigenvectors
    for them, by block Krylov iteration with Rayleigh-Ritz."""
    d = matrix.shape[0]
    width = min(d, m + KRYLOV_OVERSAMPLE)
    rng = np.random.default_rng(0)
    basis: list[np.ndarray] = []   # orthonormal columns, block by block
    cuts: list[slice] = []         # the columns of each block in the basis
    projected = np.empty((0, 0))   # basis^T matrix basis
    block = rng.standard_normal((d, width))
    while True:
        block = _extend_basis(basis, block)
        if not block.shape[1]:   # the basis spans an invariant subspace
            block = _extend_basis(basis, rng.standard_normal((d, width)))
        image = matrix @ block
        k = len(projected)
        grown = np.empty((k + block.shape[1],) * 2)
        grown[:k, :k] = projected
        for done, cut in zip(basis, cuts):
            grown[cut, k:] = done.T @ image
            grown[k:, cut] = grown[cut, k:].T
        corner = block.T @ image
        grown[k:, k:] = (corner + corner.T) / 2.0
        projected = grown
        basis.append(block)
        cuts.append(slice(k, len(projected)))
        theta, coords = np.linalg.eigh(projected)
        order = np.argsort(-theta, kind="stable")[:m]
        theta, coords = theta[order], coords[:, order]
        vectors = sum(done @ coords[cut] for done, cut in zip(basis, cuts))
        residual = np.linalg.norm(matrix @ vectors - vectors * theta, axis=0)
        if len(projected) == d or residual.max() <= KRYLOV_TOL * theta[0]:
            return theta, vectors
        block = image


def pca_fit(data, m: int) -> PcaModel:
    """Top-m eigenvectors of the sample covariance of mean-centered data.

    ``data`` is an (N, d) matrix or a sequence of (N, d_i) matrices read as
    their column join; either gives the same bits. Sign convention: each
    component's largest-magnitude entry is positive. Rank deficiency below
    m is not an error; trailing variances are zero.
    """
    blocks, n, d = _column_blocks(data)
    if n < 2:
        raise BadRank("need at least 2 rows to fit")
    if not 1 <= m <= min(n - 1, d):
        raise BadRank(f"target dim {m} outside [1, {min(n - 1, d)}]")
    rows, total = np.empty((min(n, PCA_BLOCK), d)), np.zeros(d)
    for start in range(0, n, PCA_BLOCK):   # x - 0.0 is x, -0.0 included
        total += _row_block(blocks, start, np.zeros(d), rows).sum(axis=0)
    mean = total / n
    cov, product = np.zeros((d, d)), np.empty((d, d))
    for start in range(0, n, PCA_BLOCK):
        block = _row_block(blocks, start, mean, rows)
        np.matmul(block.T, block, out=product)
        cov += product
    del rows, block, product
    scale = max(float(cov.max()), -float(cov.min())) or 1.0
    cov /= scale
    eigvals, vectors = _top_eigenpairs(cov, m)
    variance = np.maximum(eigvals * (scale / (n - 1)), 0.0)
    components = vectors.T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, data) -> np.ndarray:
    """(N, m) projection of the centered rows of ``data`` (a matrix or a
    sequence of column blocks, as in ``pca_fit``) on the components."""
    blocks, n, d = _column_blocks(data)
    if d != model.mean.shape[0]:
        raise DimensionMismatch(
            f"data dim {d} does not match model dim {model.mean.shape[0]}"
        )
    out = np.empty((n, model.components.shape[0]))
    rows = np.empty((min(n, PCA_BLOCK), d))
    for start in range(0, n, PCA_BLOCK):
        block = _row_block(blocks, start, model.mean, rows)
        np.matmul(block, model.components.T, out=out[start:start + len(block)])
    return out


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


def _squared_distances(
    twice: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """|x|^2 - 2 x.c + |c|^2, clamped at zero, built in one (N, k) buffer
    from 2x (``twice``) and |x|^2 (``sq_norms``), which callers compute once."""
    d2 = twice @ centroids.T
    np.subtract(sq_norms[:, None], d2, out=d2)
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
    data: np.ndarray, twice: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    n, k = data.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full(n, -1, dtype=int)
    rows = np.arange(n)
    history: list[float] = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = _squared_distances(twice, sq_norms, centroids)
        new_labels = d2.argmin(axis=1)
        # re-seed empty clusters from the farthest points (lowest cluster
        # index claims the farthest, the next empty one the runner-up, ...;
        # ties to the lowest point index) in clusters that can spare one
        point_d2 = d2[rows, new_labels]
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(np.where(counts[new_labels] > 1, point_d2, -np.inf).argmax())
            counts[new_labels[far]] -= 1
            new_labels[far] = j
            counts[j] = 1
            centroids[j] = data[far]
            point_d2[far] = 0.0
        history.append(float(point_d2.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centroids = np.column_stack([np.bincount(labels, column, minlength=k)
                                     for column in data.T]) / counts[:, None]
    d2 = _squared_distances(twice, sq_norms, centroids)
    inertia = float(d2[rows, labels].sum())
    return labels, centroids, inertia, history


def _enforce_capacity(
    twice: np.ndarray, sq_norms: np.ndarray, labels: np.ndarray, centroids: np.ndarray,
    capacity: int,
) -> np.ndarray:
    k = centroids.shape[0]
    labels = labels.copy()
    d2 = _squared_distances(twice, sq_norms, centroids)
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
        # every (point, open cluster) edge, nearest first, ties by point then cluster
        points = np.repeat(np.array(pool), np.count_nonzero(space > 0))
        clusters = np.tile(np.flatnonzero(space > 0), len(pool))
        order = np.lexsort((clusters, points, d2[points, clusters]))
        assigned: set[int] = set()
        for i, j in zip(points[order].tolist(), clusters[order].tolist()):
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
    twice, sq_norms = 2.0 * data, (data * data).sum(axis=1)
    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    for _ in range(DEFAULT_RESTARTS):
        result = _lloyd(data, twice, sq_norms, _dsq_seed(data, k, rng))
        if best is None or result[2] < best[2]:
            best = result
    labels, centroids, inertia, history = best

    if balanced:
        labels = _enforce_capacity(twice, sq_norms, labels, centroids, capacity)
    sizes = np.bincount(labels[labels >= 0], minlength=k)
    return ClusterAssignment(
        labels=labels,
        centroids=centroids,
        sizes=sizes,
        inertia=inertia,
        inertia_history=history,
    )


# -- spectral clustering -------------------------------------------------

def first_copies(data: np.ndarray) -> np.ndarray:
    """Ascending indices of the first copy of each distinct row of a finite
    (N, d) matrix, d >= 1, those of ``np.unique(data, axis=0,
    return_index=True)``: each row is keyed by its bytes after adding 0.0,
    which turns -0.0 into 0.0."""
    rows = np.ascontiguousarray(data) + 0.0
    first: dict[bytes, int] = {}
    for i, key in enumerate(rows.view(np.dtype((np.void, rows.strides[0]))).ravel().tolist()):
        first.setdefault(key, i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def spectral_embedding(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues (ascending) of the normalized Laplacian
    L = I - W of the landmark graph, plus the row-normalized (N, k) matrix
    of their eigenvectors (rows of zeros stay zero).

    ``LANDMARKS`` seeded rows, drawn among the first copies of the
    distinct rows, are the landmarks, and k may not exceed their count.
    Each point links to its ``NEIGHBOURS`` nearest landmarks with Gaussian
    weights, the kernel width being the median of those distances, and
    each row of weights sums to 1. With D the landmark column sums of that
    sparse (N, p) matrix Z, W = Zh Zh^T for Zh = Z D^-1/2 is symmetric with
    unit row sums, and its top k eigenvectors are Zh V Theta^-1/2 for the
    top eigenpairs (Theta, V) of the p x p Gram Zh^T Zh.

    Distances are taken ``DISTANCE_BLOCK`` rows at a time, and that
    fixed-block product defines the result's bits: BLAS may round a few
    distances differently in the last bit for another block shape, as it
    does for another thread count."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    firsts = first_copies(data)
    p = min(len(firsts), LANDMARKS)
    if p == 0:   # no rows, so no distances for the kernel width's median
        raise BadRank(f"k={k} outside [1, 0]")
    marks = firsts[np.sort(np.random.default_rng(0).choice(len(firsts), size=p, replace=False))]
    landmarks = data[marks]
    r = min(NEIGHBOURS, p)
    nearest = np.empty((n, r), dtype=np.intp)
    near_d2 = np.empty((n, r))
    for start in range(0, n, DISTANCE_BLOCK):
        block = data[start:start + DISTANCE_BLOCK]
        d2 = _squared_distances(2.0 * block, (block * block).sum(axis=1), landmarks)
        rows, cut = np.arange(len(block)), slice(start, start + len(block))
        for j in range(r):   # ascending, ties to the lower landmark
            nearest[cut, j] = d2.argmin(axis=1)
            near_d2[cut, j] = d2[rows, nearest[cut, j]]
            d2[rows, nearest[cut, j]] = np.inf
        del d2
    sigma = float(np.median(np.sqrt(near_d2)))
    if sigma == 0.0:
        raise DegenerateAffinity("median landmark distance is zero")
    if not 1 <= k <= p:
        raise BadRank(f"k={k} outside [1, {p}]")
    # shifting each row by its nearest distance cancels in the row
    # normalization and keeps a far point's weights from all underflowing
    weights = np.exp((near_d2[:, :1] - near_d2) / (2.0 * sigma * sigma))
    weights /= weights.sum(axis=1, keepdims=True)
    degree = np.bincount(nearest.ravel(), weights.ravel(), minlength=p)
    weights *= np.where(degree > 0.0, degree, np.inf)[nearest] ** -0.5
    pairs = (nearest[:, :, None] * p + nearest[:, None, :]).ravel()
    gram = np.bincount(pairs, (weights[:, :, None] * weights[:, None, :]).ravel(),
                       minlength=p * p).reshape(p, p)
    del pairs
    theta, vecs = np.linalg.eigh(gram)
    del gram
    order = np.argsort(-theta, kind="stable")[:k]
    theta = theta[order]
    scaled = vecs[:, order] * np.where(theta > 0.0, theta, np.inf) ** -0.5
    embedding = np.einsum("nr,nrk->nk", weights, scaled[nearest])
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0.0
    embedding[nonzero] /= norms[nonzero, None]
    return 1.0 - theta, embedding


def rank_data(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged: the equal values at sorted positions
    s..e all get (s + e) / 2, which is exact in float64. Each NaN ranks
    alone, after every number."""
    _, group, counts = np.unique(np.asarray(values, dtype=float).ravel(), return_inverse=True,
                                 return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[group]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on tie-averaged ranks)."""
    ra = rank_data(a) - (np.asarray(a).size + 1.0) / 2.0
    rb = rank_data(b) - (np.asarray(b).size + 1.0) / 2.0
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def spectral_cluster(data: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """Normalized-cut clustering on the landmark graph: k-means on the rows
    of ``spectral_embedding``."""
    data = np.asarray(data, dtype=float)
    if k > data.shape[0]:
        raise TooManyClusters(f"k={k} exceeds {data.shape[0]} rows")
    _, rows = spectral_embedding(data, k)
    return replace(kmeans_pp(rows, k, seed), centroids=None, inertia_history=None)
