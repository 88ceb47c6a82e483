"""PCA / k-means++ / spectral clustering against independent oracles."""

import itertools
import tracemalloc

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlcurate.errors import (
    BadRank,
    DegenerateAffinity,
    DimensionMismatch,
    InfeasibleCapacity,
    TooManyClusters,
)
from vlcurate import numerics
from vlcurate.numerics import (
    kmeans_pp,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    rank_data,
    spearman,
    spectral_cluster,
    spectral_embedding,
)


# -- oracles ---------------------------------------------------------------

def pca_power_oracle(data, m, iters=20000, seed=123):
    """Independent PCA: power iteration with deflation on the covariance."""
    data = np.asarray(data, dtype=float)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (len(data) - 1)
    rng = np.random.default_rng(seed)
    comps, variances = [], []
    work = cov.copy()
    for _ in range(m):
        v = rng.normal(size=cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            nv = work @ v
            norm = np.linalg.norm(nv)
            if norm < 1e-300:
                break
            v = nv / norm
        lam = float(v @ work @ v)
        assert np.linalg.norm(work @ v - lam * v) < 1e-9, "oracle did not converge"
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        comps.append(v)
        variances.append(lam)
        work = work - lam * np.outer(v, v)
    return np.array(comps), np.array(variances)


def exhaustive_wcss_1d(values, k):
    """Global 1-D k-means optimum by enumerating contiguous sorted partitions."""
    values = np.sort(np.asarray(values, dtype=float))
    n = len(values)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        total = 0.0
        for a, b in zip(bounds, bounds[1:]):
            seg = values[a:b]
            total += float(((seg - seg.mean()) ** 2).sum())
        best = min(best, total)
    return best


def canonical_labels(labels):
    """Renumber labels by first appearance so partitions compare directly."""
    mapping, out = {}, []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


# -- PCA -------------------------------------------------------------------

def test_pca_rank_one_data():
    base = np.array([1.0, -2.0, 0.5])
    data = np.outer([0.0, 1.0, 3.0], base)
    model = pca_fit(data, 1)
    total = ((data - data.mean(0)) ** 2).sum() / (len(data) - 1)
    assert model.explained_variance[0] == pytest.approx(total, rel=1e-12)


def test_pca_full_rank_roundtrip():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(5, 3))
    model = pca_fit(data, 3)
    back = pca_inverse_transform(model, pca_transform(model, data))
    assert np.abs(back - data).max() < 1e-9


def test_pca_matches_power_iteration_oracle():
    rng = np.random.default_rng(42)
    data = rng.normal(size=(20, 8))
    model = pca_fit(data, 6)
    comps, variances = pca_power_oracle(data, 6)
    assert np.abs(model.components - comps).max() < 1e-8
    assert np.abs(model.explained_variance - variances).max() < 1e-8


def test_pca_transform_of_mean_is_zero():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(10, 4))
    model = pca_fit(data, 3)
    assert np.abs(pca_transform(model, model.mean[None, :])).max() < 1e-12


def test_pca_transformed_variances_match():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(30, 7))
    model = pca_fit(data, 5)
    reduced = pca_transform(model, data)
    col_var = reduced.var(axis=0, ddof=1)
    assert np.abs(col_var - model.explained_variance).max() < 1e-8


def test_pca_m6_width():
    rng = np.random.default_rng(3)
    reduced = pca_transform(pca_fit(rng.normal(size=(40, 12)), 6),
                            rng.normal(size=(9, 12)))
    assert reduced.shape == (9, 6)


def test_pca_rank_deficient_trailing_zeros():
    rng = np.random.default_rng(4)
    thin = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 5))  # rank 2 in 5-D
    model = pca_fit(thin, 4)
    assert model.explained_variance[2] == pytest.approx(0.0, abs=1e-10)
    assert model.explained_variance[3] == pytest.approx(0.0, abs=1e-10)
    assert (model.explained_variance >= -1e-12).all()


@pytest.mark.parametrize("seed", range(5))
def test_pca_components_orthonormal(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(25, 9))
    model = pca_fit(data, 6)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(6)).max() < 1e-8
    diffs = np.diff(model.explained_variance)
    assert (diffs <= 1e-12).all()
    total_data = ((data - data.mean(0)) ** 2).sum() / (len(data) - 1)
    assert model.explained_variance.sum() <= total_data + 1e-8


def test_pca_sign_convention():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(15, 6))
    model = pca_fit(data, 4)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_deterministic():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(18, 5))
    m1, m2 = pca_fit(data, 3), pca_fit(data, 3)
    assert np.array_equal(m1.components, m2.components)
    assert np.array_equal(m1.explained_variance, m2.explained_variance)


def test_pca_bad_rank():
    data = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(BadRank):
        pca_fit(data, 0)
    with pytest.raises(BadRank):
        pca_fit(data, 5)  # > min(N-1, d) = 4
    with pytest.raises(BadRank):
        pca_fit(data[:1], 1)


def test_pca_transform_dim_mismatch():
    data = np.random.default_rng(0).normal(size=(6, 4))
    model = pca_fit(data, 2)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, np.ones((3, 5)))


# -- k-means++ ---------------------------------------------------------------

def test_kmeans_two_pairs():
    data = np.array([[0.0], [0.1], [10.0], [10.1]])
    got = kmeans_pp(data, 2, seed=0)
    assert canonical_labels(got.labels) == [0, 0, 1, 1]
    assert sorted(got.sizes) == [2, 2]


@pytest.mark.parametrize("seed", range(8))
def test_kmeans_matches_exhaustive_1d_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    k = int(rng.integers(1, 4))
    values = rng.uniform(-5, 5, size=n)
    got = kmeans_pp(values[:, None], k, seed=0)
    assert got.inertia == pytest.approx(exhaustive_wcss_1d(values, k), abs=1e-9)


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(6, 3))
    got = kmeans_pp(data, 6, seed=0)
    assert got.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(got.labels) == list(range(6))


def test_kmeans_too_many_clusters():
    with pytest.raises(TooManyClusters):
        kmeans_pp(np.ones((3, 2)), 4, seed=0)


def test_kmeans_inertia_history_nonincreasing():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(200, 5))
    got = kmeans_pp(data, 8, seed=3)
    hist = got.inertia_history
    assert len(hist) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_seed_determinism():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(80, 4))
    a = kmeans_pp(data, 5, seed=21)
    b = kmeans_pp(data, 5, seed=21)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_no_empty_cluster_on_duplicates():
    data = np.zeros((10, 2))
    got = kmeans_pp(data, 2, seed=0)
    assert (got.sizes >= 1).all()
    assert set(got.labels) == {0, 1}


def test_kmeans_balanced_exact_capacity():
    rng = np.random.default_rng(13)
    data = np.vstack([rng.normal(0, 0.2, size=(7, 2)),
                      rng.normal(5, 0.2, size=(3, 2))])
    got = kmeans_pp(data, 2, seed=0, balanced=True, capacity=5)
    assert sorted(got.sizes) == [5, 5]
    assert (got.labels >= 0).all()


def test_kmeans_balanced_leftovers():
    rng = np.random.default_rng(14)
    data = rng.normal(size=(7, 2))
    got = kmeans_pp(data, 2, seed=0, balanced=True, capacity=3)
    assert list(got.sizes) == [3, 3]
    assert int((got.labels == -1).sum()) == 1


def test_kmeans_balanced_medium_scale():
    rng = np.random.default_rng(15)
    data = rng.normal(size=(200, 6))
    got = kmeans_pp(data, 6, seed=1, balanced=True, capacity=33)
    assert (got.sizes == 33).all()
    assert int((got.labels == -1).sum()) == 200 - 6 * 33


def test_kmeans_infeasible_capacity():
    with pytest.raises(InfeasibleCapacity):
        kmeans_pp(np.ones((5, 2)), 2, seed=0, balanced=True, capacity=3)


def test_kmeans_balanced_default_capacity():
    rng = np.random.default_rng(16)
    data = rng.normal(size=(23, 3))
    got = kmeans_pp(data, 4, seed=0, balanced=True)  # capacity = 23 // 4 = 5
    assert (got.sizes == 5).all()
    assert int((got.labels == -1).sum()) == 3


def _reference_squared_distances(twice, sq_norms, centroids):
    """The distance formula before 2x and |x|^2 were computed once per call
    of kmeans_pp: it recovers x = 2x / 2 (exact) and recomputes both on
    every call."""
    data = twice / 2.0
    d2 = (2.0 * data) @ centroids.T
    np.subtract((data * data).sum(axis=1)[:, None], d2, out=d2)
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _reference_enforce_capacity(twice, sq_norms, labels, centroids, capacity):
    """The capacity post-pass with its edges sorted as Python tuples."""
    k = centroids.shape[0]
    labels = labels.copy()
    d2 = _reference_squared_distances(twice, sq_norms, centroids)
    pool = []
    for j in range(k):
        members = np.flatnonzero(labels == j)
        if len(members) > capacity:
            order = members[np.argsort(d2[members, j], kind="stable")]
            labels[order[capacity:]] = -1
            pool.extend(int(i) for i in order[capacity:])
    space = capacity - np.bincount(labels[labels >= 0], minlength=k)
    edges = sorted((float(d2[i, j]), i, j) for i in pool for j in range(k) if space[j] > 0)
    assigned = set()
    for _, i, j in edges:
        if i in assigned or space[j] <= 0:
            continue
        labels[i] = j
        space[j] -= 1
        assigned.add(i)
    return labels


def _reference_lloyd(data, twice, sq_norms, centroids):
    """Lloyd's loop as it was: a Python scan over (-d^2, i) tuples re-seeds
    each empty cluster, and each centroid is a masked mean. The bincount
    sums that replace the mean add the same rows in the same order, starting
    from +0.0: a column whose every member is -0.0 averages to +0.0 (as
    numpy 2.4's mean does too), and on a one-column matrix, whose mean numpy
    sums pairwise, the last bit can differ."""
    n, k = data.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full(n, -1, dtype=int)
    history = []
    for _ in range(numerics.LLOYD_MAX_ITER):
        d2 = _reference_squared_distances(twice, sq_norms, centroids)
        new_labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        taken = set()
        for j in np.flatnonzero(counts == 0):
            candidates = [(-point_d2[i], i) for i in range(n)
                          if i not in taken and counts[new_labels[i]] > 1]
            _, far = min(candidates)
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
    d2 = _reference_squared_distances(twice, sq_norms, centroids)
    return labels, centroids, float(d2[np.arange(n), labels].sum()), history


@pytest.mark.parametrize("balanced", [False, True])
def test_kmeans_bytes_match_reference_formulas(balanced, monkeypatch):
    rng = np.random.default_rng(18)
    centers = rng.normal(size=(12, 10)) * 3.0
    data = centers[rng.integers(12, size=3439)] + rng.normal(size=(3439, 10))
    got = kmeans_pp(data, 30, seed=2, balanced=balanced)
    monkeypatch.setattr(numerics, "_squared_distances", _reference_squared_distances)
    monkeypatch.setattr(numerics, "_enforce_capacity", _reference_enforce_capacity)
    monkeypatch.setattr(numerics, "_lloyd", _reference_lloyd)
    want = kmeans_pp(data, 30, seed=2, balanced=balanced)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert got.inertia_history == want.inertia_history
    if balanced:
        assert (got.sizes == 3439 // 30).all()


def test_lloyd_reseeds_empty_clusters_like_reference_loop():
    # four points at equal distance from the origin and two copies of the
    # origin: starting with four centroids on the origin leaves clusters
    # 1-3 empty, and they are re-seeded from tied farthest points
    data = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                     [0.0, 0.0], [0.0, -1.0], [3.0, 3.0]])
    init = np.array([[0.0, 0.0]] * 4 + [[3.0, 3.0]])
    args = (data, 2.0 * data, (data * data).sum(axis=1), init)
    labels = numerics._squared_distances(*args[1:]).argmin(axis=1)
    assert np.bincount(labels, minlength=5).tolist() == [6, 0, 0, 0, 1]
    got, want = numerics._lloyd(*args), _reference_lloyd(*args)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert (got[2], got[3]) == (want[2], want[3])
    assert (np.bincount(got[0], minlength=5) >= 1).all()


# -- spectral clustering -----------------------------------------------------

def _two_groups(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(30, 3))
    b = rng.normal(0.0, 0.3, size=(10, 3)) + 40.0
    truth = np.array([0] * 30 + [1] * 10)
    return np.vstack([a, b]), truth


def _three_blobs(seed=1):
    rng = np.random.default_rng(seed)
    blobs = [rng.normal(0.0, 0.4, size=(48, 2)),
             rng.normal(0.0, 0.4, size=(8, 2)) + [15.0, 0.0],
             rng.normal(0.0, 0.4, size=(8, 2)) + [0.0, 15.0]]
    truth = np.array([0] * 48 + [1] * 8 + [2] * 8)
    return np.vstack(blobs), truth


def test_spectral_two_disconnected_components():
    data, truth = _two_groups()
    got = spectral_cluster(data, 2, seed=0)
    assert canonical_labels(got.labels) == canonical_labels(truth)


def test_spectral_k1():
    data, _ = _two_groups(3)
    got = spectral_cluster(data, 1, seed=0)
    assert set(got.labels) == {0}


def test_spectral_three_blobs_full_agreement():
    data, truth = _three_blobs()
    got = spectral_cluster(data, 3, seed=0)
    assert canonical_labels(got.labels) == canonical_labels(truth)


def test_spectral_eigenvalue_range_and_row_norms():
    data, _ = _three_blobs(5)
    eigvals, rows = spectral_embedding(data, 3)
    assert eigvals.min() >= -1e-8
    assert eigvals.max() <= 2.0 + 1e-8
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-8


def test_spectral_degenerate_affinity():
    with pytest.raises(DegenerateAffinity):
        spectral_cluster(np.ones((8, 2)), 2, seed=0)


def test_spectral_too_many_clusters():
    with pytest.raises(TooManyClusters):
        spectral_cluster(np.random.default_rng(0).normal(size=(4, 2)), 5, seed=0)


# -- the landmark embedding against dense eigh of its affinity ----------------

def landmark_affinity(data, landmarks):
    """W = Zh Zh^T of the landmark graph, built from broadcast differences
    and full (N, p) matrices, independent of the library's kernels. Row i
    of Z holds Gaussian weights on the NEIGHBOURS landmarks nearest to row
    i (kernel width the median of those distances), scaled to sum to 1, and
    Zh = Z D^-1/2 for D the column sums of Z."""
    data = np.asarray(data, dtype=float)
    dist = np.sqrt(((data[:, None, :] - data[None, landmarks, :]) ** 2).sum(axis=-1))
    r = min(numerics.NEIGHBOURS, len(landmarks))
    near = np.argsort(dist, axis=1, kind="stable")[:, :r]
    near_dist = np.take_along_axis(dist, near, axis=1)
    sigma = np.median(near_dist)
    z = np.zeros_like(dist)
    np.put_along_axis(z, near, np.exp(-near_dist ** 2 / (2.0 * sigma * sigma)), axis=1)
    z /= z.sum(axis=1, keepdims=True)
    zhat = z / np.sqrt(z.sum(axis=0))
    return zhat @ zhat.T


def landmark_rows(data):
    """The library's landmark draw: LANDMARKS seeded rows among the first
    copies of the distinct rows, sorted (every distinct row when there are
    at most LANDMARKS)."""
    distinct = np.sort(np.unique(data, axis=0, return_index=True)[1])
    p = min(len(distinct), numerics.LANDMARKS)
    return distinct[np.sort(np.random.default_rng(0).choice(len(distinct), size=p, replace=False))]


def oracle_eigenpairs(data):
    """Eigenvalues of L = I - W ascending, with orthonormal eigenvectors."""
    affinity = landmark_affinity(data, landmark_rows(data))
    theta, vecs = np.linalg.eigh((affinity + affinity.T) / 2.0)
    return 1.0 - theta[::-1], vecs[:, ::-1]


def largest_angle(a, b):
    """Largest principal angle between span(a) and span(b), for dim a <= dim b
    (0 when span(a) lies inside span(b)); taken as an arcsine, which stays
    accurate for small angles."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return float(np.arcsin(min(1.0, np.linalg.norm(qa - qb @ (qb.T @ qa), 2))))


def _blobs_and_isolated_pairs(pairs=12):
    """Three blobs plus tight pairs far from everything: each pair is its own
    component of the landmark graph."""
    data, _ = _three_blobs()
    centers = [np.array([1000.0 * (i + 1), -500.0]) for i in range(pairs)]
    return np.vstack([data, *[[c, c + [0.1, 0.0]] for c in centers]])


def _check_against_oracle(data, k):
    eigvals, vecs = oracle_eigenpairs(data)
    got_vals, got_rows = spectral_embedding(data, k)
    assert got_vals.shape == (k,) and got_rows.shape == (len(data), k)
    assert np.abs(got_vals - eigvals[:k]).max() < 1e-8
    # row normalization scales the rows of any basis of the eigenspace alike,
    # so it keeps the column span equal to that of the normalized oracle
    want_rows = vecs[:, :k] / np.linalg.norm(vecs[:, :k], axis=1, keepdims=True)
    assert largest_angle(got_rows, want_rows) < 1e-6


@pytest.mark.parametrize("n,k", [(30, 3), (200, 4), (1000, 3), (1000, 10)])
def test_spectral_embedding_matches_dense_oracle_on_random_data(n, k):
    # N = 1000 draws LANDMARKS of the rows; below that every row is a landmark
    data = np.random.default_rng(n + k).normal(size=(n, 5))
    _check_against_oracle(data, k)


@pytest.mark.parametrize("make,k", [(_two_groups, 2), (_three_blobs, 3), (_three_blobs, 5)])
def test_spectral_embedding_repeated_unit_eigenvalue(make, k):
    data, truth = make()
    _check_against_oracle(data, k)
    _, rows = spectral_embedding(data, k)
    if k == truth.max() + 1:    # one unit eigenvalue per component
        for label in np.unique(truth):
            member_rows = rows[truth == label]
            assert np.abs(member_rows - member_rows[0]).max() < 1e-8


def test_spectral_embedding_isolated_pairs():
    # 15 components and k = 3: any three vectors of L's 15-dimensional null
    # space will do, and row normalization keeps them inside it
    data = _blobs_and_isolated_pairs()
    eigvals, vecs = oracle_eigenpairs(data)
    assert int((eigvals < 1e-8).sum()) == 15
    got_vals, got_rows = spectral_embedding(data, 3)
    assert np.abs(got_vals).max() < 1e-8
    assert largest_angle(got_rows, vecs[:, :15]) < 1e-6


def test_spectral_embedding_wanted_eigenvalues_near_the_band():
    # ten tight, far-apart blobs and k = 10: every wanted eigenvalue is a
    # zero of L, one per blob, just below the first nonzero one
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(10, 3)) * 10.0
    data = centers[np.arange(240) % 10] + rng.normal(scale=0.01, size=(240, 3))
    _check_against_oracle(data, 10)


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (9, 3), (6, 6)])
def test_spectral_embedding_block_covers_all_rows(n, k):
    # N at most LANDMARKS: every row is a landmark, linked to itself too
    assert n <= numerics.LANDMARKS
    data = np.random.default_rng(n).normal(size=(n, 3))
    eigvals, _ = oracle_eigenpairs(data)
    got_vals, got_rows = spectral_embedding(data, k)
    assert np.abs(got_vals - eigvals[:k]).max() < 1e-8
    assert got_rows.shape == (n, k)


@pytest.mark.parametrize("n,copies", [(100, 3), (150, 20), (1000, 3)])
def test_spectral_duplicate_rows_match_distinct_rows(n, copies):
    # every row repeated: a landmark drawn among all rows would sit on top
    # of its copies and shrink the kernel width (the median landmark
    # distance) to rounding noise, splitting off copy groups as components;
    # drawn among distinct rows, the graph has the distinct rows'
    # eigenvalues, each copy its row's embedding, and clusters stay balanced
    distinct = np.random.default_rng(0).normal(size=(n, 16))
    data = np.repeat(distinct, copies, axis=0)
    got_vals, got_rows = spectral_embedding(data, 10)
    want_vals, want_rows = spectral_embedding(distinct, 10)
    assert np.abs(got_vals - want_vals).max() < 1e-8
    assert largest_angle(got_rows, np.repeat(want_rows, copies, axis=0)) < 1e-6
    if len(data) <= numerics.LANDMARKS:
        _check_against_oracle(data, 10)
    got = spectral_cluster(data, 10, seed=0)
    groups = got.labels.reshape(n, copies)
    assert (groups == groups[:, :1]).all()
    assert max(got.sizes) <= len(data) // 3


def test_spectral_embedding_k1():
    data = np.random.default_rng(11).normal(size=(120, 4))
    got_vals, got_rows = spectral_embedding(data, 1)
    assert got_vals.shape == (1,)
    assert abs(got_vals[0]) < 1e-8
    # W has unit row sums, so its leading eigenvector is constant
    assert np.abs(np.abs(got_rows) - 1.0).max() < 1e-12
    _check_against_oracle(data, 1)


def test_spectral_embedding_bit_identical_across_calls():
    data = np.random.default_rng(12).normal(size=(300, 6))
    first = spectral_embedding(data, 4)
    second = spectral_embedding(data, 4)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()


def test_spectral_embedding_one_dimensional_data_gives_unit_rows():
    # 900 points on a line and k = 10: the landmark graph has near-zero
    # eigenvalues to spare, and every row still comes back finite and unit
    data = np.random.default_rng(13).normal(size=(900, 1))
    eigvals, rows = spectral_embedding(data, 10)
    assert np.isfinite(eigvals).all() and np.isfinite(rows).all()
    assert eigvals.min() >= -1e-8 and eigvals.max() <= 1.0 + 1e-8
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12


def test_spectral_embedding_rejects_bad_k(monkeypatch):
    data = np.random.default_rng(15).normal(size=(10, 2))
    with pytest.raises(BadRank):
        spectral_embedding(data, 0)
    with pytest.raises(BadRank):
        spectral_embedding(data, 11)
    monkeypatch.setattr(numerics, "LANDMARKS", 3)
    with pytest.raises(BadRank):   # W has rank at most the landmark count
        spectral_embedding(data, 4)


def test_spectral_embedding_empty_matrix_raises_bad_rank():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadRank):
            spectral_embedding(np.empty((0, 4)), 1)


def test_spectral_embedding_matches_dense_oracle_across_block_boundaries(monkeypatch):
    # 142 blocks of 7 rows and a tail of 6, each searched on its own
    monkeypatch.setattr(numerics, "DISTANCE_BLOCK", 7)
    data = np.random.default_rng(1003).normal(size=(1000, 5))
    _check_against_oracle(data, 3)
    _check_against_oracle(data, 10)


@pytest.mark.parametrize("block", [7, 2 * 512 + 77])
def test_spectral_cluster_labels_do_not_depend_on_the_block(block, monkeypatch):
    # N spans three default blocks and a tail of 77 rows; one block of all
    # N rows is the unblocked search
    data = np.random.default_rng(16).normal(size=(2 * 512 + 77, 8))
    want = spectral_cluster(data, 10, seed=0).labels
    monkeypatch.setattr(numerics, "DISTANCE_BLOCK", block)
    assert np.array_equal(spectral_cluster(data, 10, seed=0).labels, want)


def test_spectral_embedding_memory_peak():
    # a third of one (N, p) float64 distance matrix (26.7 MB here), where a
    # dense N x N affinity would need 3.2 GB: the search holds one block
    n = 20_000
    data = np.random.default_rng(14).normal(size=(n, 16))
    tracemalloc.start()
    try:
        spectral_embedding(data, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * numerics.LANDMARKS * 8 / 3


# -- rank helpers -------------------------------------------------------------

def test_rank_data_tie_averaging():
    assert list(rank_data(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]


@given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0]) | st.floats(allow_nan=False),
                max_size=40))
def test_rank_data_matches_pairwise_tie_averaging(values):
    # O(n^2) oracle: the values below, plus the mean of the tied positions
    below = [sum(w < v for w in values) for v in values]
    tied = [sum(w == v for w in values) for v in values]
    expected = [b + (t + 1) / 2.0 for b, t in zip(below, tied)]
    assert rank_data(np.array(values, dtype=float)).tolist() == expected


def test_spearman_endpoints():
    x = np.arange(10.0)
    assert spearman(x, x ** 3) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)
    assert spearman(x, np.ones(10)) == 0.0


def test_spearman_matches_textbook_formula():
    rng = np.random.default_rng(17)
    x = rng.permutation(50).astype(float)
    y = rng.permutation(50).astype(float)
    d = rank_data(x) - rank_data(y)
    expected = 1.0 - 6.0 * float((d * d).sum()) / (50 * (50 ** 2 - 1))
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
