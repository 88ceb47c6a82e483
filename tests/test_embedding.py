"""Embedding assembly: standardization, feature reduction, the embedding matrix."""

import math

import numpy as np
import pytest

from vlcurate.corpus import ScoreCache, ScoreRecord, read_feature_file, write_feature_file
from vlcurate.embedding import assemble_corpus, fit_feature_reducer, standardize
from vlcurate.errors import DimensionMismatch, MissingScore
from vlcurate.indicators import indicator_matrix
from vlcurate.numerics import pca_fit, pca_transform

from conftest import make_features, make_manifest
from test_numerics import pca_power_oracle


def two_pass_oracle(matrix):
    """Independent mean/population-std via fsum accumulation."""
    n, d = matrix.shape
    means = [math.fsum(matrix[:, j]) / n for j in range(d)]
    stds = [
        math.sqrt(math.fsum((matrix[i, j] - means[j]) ** 2 for i in range(n)) / n)
        for j in range(d)
    ]
    return np.array(means), np.array(stds)


def test_standardize_single_row():
    z = standardize(np.array([[0.5, 12.0, 1.2, 85.0]]))
    assert np.array_equal(z, [[0.0, 0.0, 0.0, 0.0]])  # every column is constant


def test_standardize_two_values():
    z = standardize(np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]]))
    assert np.array_equal(z, [[-1.0] * 4, [1.0] * 4])  # population std


def test_standardize_matches_two_pass_oracle():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(100, 4)) * [1.0, 50.0, 3.0, 30.0] + [0.0, 120.0, 0.0, 60.0]
    means, stds = two_pass_oracle(matrix)
    assert np.abs(standardize(matrix) - (matrix - means) / stds).max() < 1e-12


def test_standardize_mean_maps_to_zero():
    # integer rows summing to exactly zero, so the column means are exactly 0
    rng = np.random.default_rng(7)
    rows = rng.integers(-9, 10, size=(9, 4)).astype(float)
    matrix = np.vstack([rows, -rows.sum(axis=0), np.zeros(4)])
    assert np.abs(standardize(matrix)[-1]).max() == 0.0


def test_standardize_constant_column_zero():
    matrix = np.column_stack([np.full(10, 3.0),
                              np.arange(10.0),
                              np.arange(10.0) * 2,
                              np.arange(10.0) + 5])
    assert np.array_equal(standardize(matrix)[:, 0], np.zeros(10))


def test_standardize_destandardize_roundtrip():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(50, 4)) * 7 + 3
    means, stds = two_pass_oracle(matrix)
    back = standardize(matrix) * stds + means
    assert np.abs(back - matrix).max() < 1e-12


def test_post_standardization_moments():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(200, 4)) * [1.0, 80.0, 4.0, 25.0] + [0.2, 100.0, 0.0, 55.0]
    z = standardize(matrix)
    assert np.abs(z.mean(axis=0)).max() < 1e-10
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-10


def test_standardize_rejects_bad_shapes():
    for bad in (np.zeros((0, 4)), np.zeros((5, 3)), np.zeros(4)):
        with pytest.raises(DimensionMismatch):
            standardize(bad)


# -- feature reducer -------------------------------------------------------

def _pair(features):
    """The reducer's input: the image and llm-text matrices."""
    return features["image"], features["text_llm"]


def _power_projection(data, m):
    """The centered data projected on the oracle's top-m components."""
    comps, variances = pca_power_oracle(data, m)
    return (data - data.mean(axis=0)) @ comps.T, variances


def test_reducer_width_default_m():
    manifest = make_manifest(50)
    features = make_features(manifest, image_dim=8, text_dim=8, seed=2)
    assert fit_feature_reducer(*_pair(features), m=6).shape == (50, 6)


def test_reducer_full_rank_roundtrip():
    # at full rank the projection is a rotation of the centered data: it
    # keeps every inner product between samples
    manifest = make_manifest(40)
    features = make_features(manifest, image_dim=4, text_dim=4, seed=3)
    reduced = fit_feature_reducer(*_pair(features), m=8)
    joint = np.hstack([features["image"], features["text_llm"]])
    centered = joint - joint.mean(axis=0)
    assert np.abs(reduced @ reduced.T - centered @ centered.T).max() < 1e-9


def test_reducer_matches_power_oracle():
    manifest = make_manifest(50)
    features = make_features(manifest, image_dim=5, text_dim=7, seed=4)
    reduced = fit_feature_reducer(*_pair(features), m=6)
    expect, variances = _power_projection(
        np.hstack([features["image"], features["text_llm"]]), 6)
    assert np.abs(reduced - expect).max() < 1e-8
    assert np.abs(reduced.var(axis=0, ddof=1) - variances).max() < 1e-8


def test_reducer_split_mode():
    manifest = make_manifest(60)
    features = make_features(manifest, image_dim=6, text_dim=9, seed=5)
    out = fit_feature_reducer(*_pair(features), m=6, mode="split")
    assert out.shape == (60, 6)
    manual = np.hstack([
        pca_transform(pca_fit(features["image"], 3), features["image"]),
        pca_transform(pca_fit(features["text_llm"], 3), features["text_llm"]),
    ])
    assert np.array_equal(out, manual)
    expect_image, _ = _power_projection(features["image"], 3)
    expect_text, _ = _power_projection(features["text_llm"], 3)
    assert np.abs(out - np.hstack([expect_image, expect_text])).max() < 1e-8


# -- assemble_corpus ----------------------------------------------------------

def _one_row(record, image_vec, text_vec):
    """A 1-sample corpus: its manifest, score cache and feature matrices."""
    manifest = make_manifest(1)
    cache = ScoreCache()
    cache[manifest[0].id] = record
    features = {"image": np.array([image_vec], dtype=float),
                "text_llm": np.array([text_vec], dtype=float)}
    return manifest, cache, features


def test_assemble_direct_concatenation():
    manifest, features, cache = _scored_corpus(12, seed=13)
    cache[manifest[0].id] = ScoreRecord(clip=0.5, length=120, reward=1.2, gpt=85.0)
    emb = assemble_corpus(manifest, cache, *_pair(features), m=6, standardized=False)
    assert emb.shape == (12, 10)
    assert np.array_equal(emb[0, :4], [0.5, 120.0, 1.2, 85.0])
    assert np.array_equal(emb, np.hstack([indicator_matrix(manifest, cache),
                                          fit_feature_reducer(*_pair(features), m=6)]))


def test_assemble_m2_dimension():
    manifest, features, cache = _scored_corpus(30, seed=7)
    emb = assemble_corpus(manifest, cache, *_pair(features), m=2, standardized=False)
    assert emb.shape == (30, 6)


def test_assemble_incomplete_scores():
    scores = ScoreRecord(clip=0.5, length=3, gpt=20.0)  # reward missing
    manifest, cache, features = _one_row(scores, [0.1] * 3, [0.1] * 3)
    with pytest.raises(MissingScore) as err:
        assemble_corpus(manifest, cache, *_pair(features))
    assert err.value.indicator == "reward"


def test_assemble_matches_hand_composition():
    rng = np.random.default_rng(10)
    manifest = make_manifest(10)
    features = make_features(manifest, image_dim=4, text_dim=5, seed=11)
    score_mat = np.column_stack([
        rng.uniform(-1, 1, 10),
        rng.integers(1, 200, 10).astype(float),
        rng.normal(size=10),
        rng.uniform(0, 100, 10),
    ])
    cache = ScoreCache()
    for i, t in enumerate(manifest):
        cache[t.id] = ScoreRecord(clip=score_mat[i, 0], length=int(score_mat[i, 1]),
                                          reward=score_mat[i, 2], gpt=score_mat[i, 3])
    means, stds = two_pass_oracle(score_mat)
    projected, _ = _power_projection(np.hstack([features["image"], features["text_llm"]]), 3)
    emb = assemble_corpus(manifest, cache, *_pair(features), m=3)
    for i in range(len(manifest)):
        hand = np.concatenate([(score_mat[i] - means) / stds, projected[i]])
        assert np.abs(emb[i] - hand).max() < 1e-8


def test_assemble_is_pure():
    manifest, features, cache = _scored_corpus(8, seed=14)
    image, text = _pair(features)
    before = image.copy(), text.copy()
    for mode in ("joint", "split"):
        a = assemble_corpus(manifest, cache, image, text, m=3, mode=mode)
        b = assemble_corpus(manifest, cache, image, text, m=3, mode=mode)
        assert np.array_equal(a, b)
        assert np.array_equal(image, before[0]) and np.array_equal(text, before[1])


def _scored_corpus(n=3, seed=12):
    manifest = make_manifest(n, seed=seed)
    features = make_features(manifest, seed=seed)
    rng = np.random.default_rng(seed)
    cache = ScoreCache()
    for t in manifest:
        cache[t.id] = ScoreRecord(
            clip=float(rng.uniform(-1, 1)), length=int(rng.integers(1, 50)),
            reward=float(rng.normal()), gpt=float(rng.uniform(0, 100)),
        )
    return manifest, features, cache


def test_assemble_corpus_order_and_agreement():
    # rows follow the manifest: a permuted corpus gives the permuted rows
    manifest, features, cache = _scored_corpus(7)
    embs = assemble_corpus(manifest, cache, *_pair(features), m=4)
    assert embs.shape == (7, 8)
    perm = np.random.default_rng(15).permutation(7)
    shuffled = assemble_corpus([manifest[i] for i in perm], cache,
                               *_pair({name: m[perm] for name, m in features.items()}), m=4)
    assert np.abs(shuffled - embs[perm]).max() < 1e-10


def test_assemble_corpus_missing_reward():
    manifest, features, cache = _scored_corpus(4)
    cache[manifest[2].id].reward = None
    with pytest.raises(MissingScore) as err:
        assemble_corpus(manifest, cache, *_pair(features), m=2, standardized=False)
    assert (err.value.sample_id, err.value.indicator) == (manifest[2].id, "reward")


def test_embeddings_file_roundtrip(tmp_path):
    manifest, features, cache = _scored_corpus(6)
    embs = assemble_corpus(manifest, cache, *_pair(features), m=3)
    path = tmp_path / "embeddings.txt"
    write_feature_file(path, [t.id for t in manifest], embs, tmp_path / ".matrices")
    rows, dim = read_feature_file(path)
    assert dim == 7
    for t, row in zip(manifest, embs):
        assert np.array_equal(rows[t.id], row)
