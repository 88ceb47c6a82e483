"""Embedding assembly: standardization, feature reduction, the embedding matrix."""

import math

import numpy as np
import pytest

from vlcurate.corpus import ScoreCache, ScoreRecord, read_feature_file, write_feature_file
from vlcurate.embedding import (
    FeatureReducer,
    assemble_corpus,
    fit_feature_reducer,
    fit_standardizer,
    identity_standardizer,
    standardize,
)
from vlcurate.errors import DimensionMismatch, MissingScore
from vlcurate.indicators import indicator_matrix
from vlcurate.numerics import PcaModel, pca_transform

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


def test_fit_standardizer_single_row():
    std = fit_standardizer(np.array([[0.5, 12.0, 1.2, 85.0]]))
    assert np.array_equal(std.means, [0.5, 12.0, 1.2, 85.0])
    assert np.array_equal(std.stds, [0.0, 0.0, 0.0, 0.0])


def test_fit_standardizer_two_values():
    std = fit_standardizer(np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]]))
    assert np.array_equal(std.means, [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(std.stds, [1.0, 1.0, 1.0, 1.0])  # population std


def test_fit_standardizer_matches_two_pass_oracle():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(100, 4)) * [1.0, 50.0, 3.0, 30.0] + [0.0, 120.0, 0.0, 60.0]
    std = fit_standardizer(matrix)
    means, stds = two_pass_oracle(matrix)
    assert np.abs(std.means - means).max() < 1e-12
    assert np.abs(std.stds - stds).max() < 1e-12


def test_standardize_mean_maps_to_zero():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(20, 4))
    std = fit_standardizer(matrix)
    assert np.abs(standardize(std, std.means)).max() == 0.0


def test_standardize_constant_column_zero():
    matrix = np.column_stack([np.full(10, 3.0),
                              np.arange(10.0),
                              np.arange(10.0) * 2,
                              np.arange(10.0) + 5])
    std = fit_standardizer(matrix)
    out = standardize(std, np.array([99.0, 0.0, 0.0, 5.0]))
    assert out[0] == 0.0  # constant column ignores the raw value


def test_standardize_destandardize_roundtrip():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(50, 4)) * 7 + 3
    std = fit_standardizer(matrix)
    row = matrix[17]
    z = standardize(std, row)
    back = z * std.stds + std.means
    assert np.abs(back - row).max() < 1e-12


def test_post_standardization_moments():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(200, 4)) * [1.0, 80.0, 4.0, 25.0] + [0.2, 100.0, 0.0, 55.0]
    std = fit_standardizer(matrix)
    z = standardize(std, matrix)
    assert np.array_equal(z, np.stack([standardize(std, row) for row in matrix]))
    assert np.abs(z.mean(axis=0)).max() < 1e-10
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-10


# -- feature reducer -------------------------------------------------------

def test_reducer_width_default_m():
    manifest = make_manifest(50)
    features = make_features(manifest, image_dim=8, text_dim=8, seed=2)
    reducer = fit_feature_reducer(features, m=6)
    out = reducer.transform(features["image"], features["text_llm"])
    assert out.shape == (50, 6)


def test_reducer_full_rank_roundtrip():
    manifest = make_manifest(40)
    features = make_features(manifest, image_dim=4, text_dim=4, seed=3)
    reducer = fit_feature_reducer(features, m=8)
    joint = np.hstack([features["image"], features["text_llm"]])
    reduced = reducer.transform(features["image"], features["text_llm"])
    back = reduced @ reducer.joint.components + reducer.joint.mean
    assert np.abs(back - joint).max() < 1e-9


def test_reducer_matches_power_oracle():
    manifest = make_manifest(50)
    features = make_features(manifest, image_dim=5, text_dim=7, seed=4)
    reducer = fit_feature_reducer(features, m=6)
    joint = np.hstack([features["image"], features["text_llm"]])
    comps, variances = pca_power_oracle(joint, 6)
    assert np.abs(reducer.joint.components - comps).max() < 1e-8
    assert np.abs(reducer.joint.explained_variance - variances).max() < 1e-8


def test_reducer_split_mode():
    manifest = make_manifest(60)
    features = make_features(manifest, image_dim=6, text_dim=9, seed=5)
    reducer = fit_feature_reducer(features, m=6, mode="split")
    out = reducer.transform(features["image"], features["text_llm"])
    assert out.shape == (60, 6)
    manual = np.hstack([
        pca_transform(reducer.image, features["image"]),
        pca_transform(reducer.text, features["text_llm"]),
    ])
    assert np.array_equal(out, manual)
    assert reducer.image.components.shape[0] == 3
    assert reducer.text.components.shape[0] == 3


def test_reducer_dim_mismatch():
    manifest = make_manifest(20)
    features = make_features(manifest, image_dim=4, text_dim=6, seed=6)
    reducer = fit_feature_reducer(features, m=4)
    with pytest.raises(DimensionMismatch):
        reducer.transform(np.ones((2, 5)), np.ones((2, 6)))


# -- assemble_corpus ----------------------------------------------------------

def _identity_reducer(width=6, image_dim=3, text_dim=3):
    model = PcaModel(mean=np.zeros(width), components=np.eye(width),
                     explained_variance=np.ones(width))
    return FeatureReducer(mode="joint", m=width, image_dim=image_dim,
                          text_dim=text_dim, joint=model)


def _one_row(record, image_vec, text_vec):
    """A 1-sample corpus: its manifest, score cache and feature matrices."""
    manifest = make_manifest(1)
    cache = ScoreCache()
    cache.records[manifest[0].id] = record
    features = {"image": np.array([image_vec], dtype=float),
                "text_llm": np.array([text_vec], dtype=float)}
    return manifest, cache, features


def test_assemble_direct_concatenation():
    scores = ScoreRecord(clip=0.5, length=120, reward=1.2, gpt=85.0)
    manifest, cache, features = _one_row(scores, [0.1, 0.1, 0.1], [0.1, 0.1, 0.1])
    emb = assemble_corpus(manifest, cache, features, identity_standardizer(),
                          _identity_reducer())
    assert emb.shape == (1, 10)
    assert np.array_equal(emb[0], [0.5, 120.0, 1.2, 85.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])


def test_assemble_m2_dimension():
    manifest, features, cache = _scored_corpus(30, seed=7)
    reducer = fit_feature_reducer(features, m=2)
    emb = assemble_corpus(manifest, cache, features, identity_standardizer(), reducer)
    assert emb.shape == (30, 6)


def test_assemble_incomplete_scores():
    scores = ScoreRecord(clip=0.5, length=3, gpt=20.0)  # reward missing
    manifest, cache, features = _one_row(scores, [0.1] * 3, [0.1] * 3)
    with pytest.raises(MissingScore) as err:
        assemble_corpus(manifest, cache, features, identity_standardizer(),
                        _identity_reducer())
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
        cache.records[t.id] = ScoreRecord(clip=score_mat[i, 0], length=int(score_mat[i, 1]),
                                          reward=score_mat[i, 2], gpt=score_mat[i, 3])
    std = fit_standardizer(score_mat)
    reducer = fit_feature_reducer(features, m=3)
    means, stds = two_pass_oracle(score_mat)
    emb = assemble_corpus(manifest, cache, features, std, reducer)
    for i in range(len(manifest)):
        joint = np.concatenate([features["image"][i], features["text_llm"][i]])
        hand = np.concatenate([
            (score_mat[i] - means) / stds,
            (joint - reducer.joint.mean) @ reducer.joint.components.T,
        ])
        assert np.abs(emb[i] - hand).max() < 1e-10


def test_assemble_is_pure():
    scores = ScoreRecord(clip=0.2, length=9, reward=0.4, gpt=33.0)
    manifest, cache, features = _one_row(scores, [0.3, 0.1, -0.2], [1.0, 2.0, 3.0])
    before = {name: m.copy() for name, m in features.items()}
    a = assemble_corpus(manifest, cache, features, identity_standardizer(),
                        _identity_reducer())
    b = assemble_corpus(manifest, cache, features, identity_standardizer(),
                        _identity_reducer())
    assert np.array_equal(a, b)
    assert all(np.array_equal(features[name], before[name]) for name in before)


def _scored_corpus(n=3, seed=12):
    manifest = make_manifest(n, seed=seed)
    features = make_features(manifest, seed=seed)
    rng = np.random.default_rng(seed)
    cache = ScoreCache()
    for t in manifest:
        cache.records[t.id] = ScoreRecord(
            clip=float(rng.uniform(-1, 1)), length=int(rng.integers(1, 50)),
            reward=float(rng.normal()), gpt=float(rng.uniform(0, 100)),
        )
    return manifest, features, cache


def test_assemble_corpus_order_and_agreement():
    # each row of a 7-sample corpus equals the 1-sample corpus of that sample
    manifest, features, cache = _scored_corpus(7)
    std = fit_standardizer(indicator_matrix(manifest, cache))
    reducer = fit_feature_reducer(features, m=4)
    embs = assemble_corpus(manifest, cache, features, std, reducer)
    assert embs.shape == (7, 8)
    for i, t in enumerate(manifest):
        one = assemble_corpus([t], cache, {name: m[i:i + 1] for name, m in features.items()},
                              std, reducer)
        assert np.abs(embs[i] - one[0]).max() < 1e-12


def test_assemble_corpus_missing_reward():
    manifest, features, cache = _scored_corpus(4)
    cache.records[manifest[2].id].reward = None
    std = identity_standardizer()
    reducer = fit_feature_reducer(features, m=2)
    with pytest.raises(MissingScore) as err:
        assemble_corpus(manifest, cache, features, std, reducer)
    assert (err.value.sample_id, err.value.indicator) == (manifest[2].id, "reward")


def test_embeddings_file_roundtrip(tmp_path):
    manifest, features, cache = _scored_corpus(6)
    std = fit_standardizer(indicator_matrix(manifest, cache))
    reducer = fit_feature_reducer(features, m=3)
    embs = assemble_corpus(manifest, cache, features, std, reducer)
    path = tmp_path / "embeddings.txt"
    write_feature_file(path, [t.id for t in manifest], embs)
    rows, dim = read_feature_file(path)
    assert dim == 7
    for t, row in zip(manifest, embs):
        assert np.array_equal(rows[t.id], row)
