"""Subset construction and genuine-quality-label plumbing."""

import json
import math

import numpy as np
import pytest

from vlcurate.corpus import load_manifest
from vlcurate.embedding import ItemEmbedding
from vlcurate.errors import (
    DuplicateId,
    EmptyReport,
    MalformedRecord,
    MissingLabel,
    TooManyClusters,
    UnknownSubset,
)
from vlcurate.quality_labels import (
    EvalReport,
    attach_labels,
    average_label,
    build_subsets,
    load_reference_reports,
    read_eval_reports,
    write_eval_reports,
    write_subset_manifests,
)

from conftest import make_manifest


def _embeddings(vectors):
    return [ItemEmbedding(id=f"e{i:04d}", vector=np.asarray(v, dtype=float))
            for i, v in enumerate(vectors)]


def test_build_subsets_singletons():
    rng = np.random.default_rng(0)
    embs = _embeddings(rng.normal(size=(6, 3)))
    subsets = build_subsets(embs, n=6, seed=0)
    assert len(subsets) == 6
    assert sorted(len(s.member_ids) for s in subsets) == [1] * 6
    covered = {i for s in subsets for i in s.member_ids}
    assert covered == {e.id for e in embs}


def test_build_subsets_two_blobs():
    rng = np.random.default_rng(1)
    lo = rng.normal(0.0, 0.3, size=(20, 2))
    hi = rng.normal(50.0, 0.3, size=(20, 2))
    embs = _embeddings(np.vstack([lo, hi]))
    subsets = build_subsets(embs, n=2, seed=0)
    groups = [set(s.member_ids) for s in subsets]
    lo_ids = {f"e{i:04d}" for i in range(20)}
    hi_ids = {f"e{i:04d}" for i in range(20, 40)}
    assert {frozenset(g) for g in groups} == {frozenset(lo_ids), frozenset(hi_ids)}


def test_build_subsets_partition_properties():
    rng = np.random.default_rng(2)
    embs = _embeddings(rng.normal(size=(347, 5)))
    subsets = build_subsets(embs, n=10, seed=3)
    sizes = [len(s.member_ids) for s in subsets]
    assert sizes == [34] * 10  # capacity = 347 // 10
    all_ids = [i for s in subsets for i in s.member_ids]
    assert len(all_ids) == len(set(all_ids)) == 340  # disjoint, 7 excluded
    for s in subsets:
        assert s.embeddings.shape == (34, 5)
        # embedding rows follow member order
        for row, member in zip(s.embeddings, s.member_ids):
            assert np.array_equal(row, embs[int(member[1:])].vector)


def test_build_subsets_seed_reproducible():
    rng = np.random.default_rng(4)
    embs = _embeddings(rng.normal(size=(50, 4)))
    a = build_subsets(embs, n=5, seed=9)
    b = build_subsets(embs, n=5, seed=9)
    assert [s.member_ids for s in a] == [s.member_ids for s in b]


def test_build_subsets_on_external_vectors():
    rng = np.random.default_rng(5)
    embs = _embeddings(rng.normal(size=(40, 3)))
    image_space = np.vstack([rng.normal(0, 0.1, (20, 2)),
                             rng.normal(30, 0.1, (20, 2))])
    subsets = build_subsets(embs, n=2, seed=0, vectors=image_space)
    groups = {frozenset(s.member_ids) for s in subsets}
    assert frozenset(f"e{i:04d}" for i in range(20)) in groups


def test_build_subsets_too_many():
    embs = _embeddings(np.random.default_rng(0).normal(size=(4, 2)))
    with pytest.raises(TooManyClusters):
        build_subsets(embs, n=5, seed=0)


def test_write_subset_manifests(tmp_path):
    manifest = make_manifest(12, seed=6)
    rng = np.random.default_rng(6)
    embs = [ItemEmbedding(id=t.id, vector=rng.normal(size=3)) for t in manifest]
    subsets = build_subsets(embs, n=3, seed=0)
    paths = write_subset_manifests(subsets, manifest, tmp_path)
    assert len(paths) == 3
    for sub, path in zip(subsets, paths):
        back = load_manifest(path)
        assert tuple(t.id for t in back) == sub.member_ids


# -- labels -------------------------------------------------------------------

def test_average_label_table_rows():
    row1 = EvalReport(0, {"gqa": 28.48, "iconqa": 35.88, "okvqa": 37.11,
                          "scienceqa": 21.98})
    assert average_label(row1) == pytest.approx(30.8625, abs=1e-12)
    assert round(average_label(row1), 2) == 30.86
    row13 = EvalReport(12, {"gqa": 27.68, "iconqa": 38.64, "okvqa": 36.78,
                            "scienceqa": 23.65})
    assert average_label(row13) == pytest.approx(31.6875, abs=1e-12)
    assert round(average_label(row13), 2) == 31.69


def test_average_label_single_benchmark():
    assert average_label(EvalReport(3, {"gqa": 42.0})) == 42.0


def test_average_label_empty():
    with pytest.raises(EmptyReport):
        average_label(EvalReport(2, {}))


def test_average_label_permutation_invariant_two_pass():
    rng = np.random.default_rng(7)
    names = [f"b{i}" for i in range(9)]
    values = rng.uniform(10, 60, size=9)
    fwd = EvalReport(0, dict(zip(names, values)))
    rev = EvalReport(0, dict(zip(reversed(names), reversed(values.tolist()))))
    two_pass = math.fsum(values) / len(values)
    assert average_label(fwd) == pytest.approx(two_pass, abs=1e-12)
    assert average_label(rev) == pytest.approx(two_pass, abs=1e-12)


def _reference_subsets():
    rng = np.random.default_rng(8)
    embs = _embeddings(rng.normal(size=(90, 4)))
    return build_subsets(embs, n=30, seed=0)


def test_attach_labels_reference_fixture():
    subsets = _reference_subsets()
    reports = load_reference_reports()
    assert len(reports) == 30
    labeled = attach_labels(subsets, reports)
    raw = [json.loads(line) for line in
           __import__("importlib.resources", fromlist=["files"])
           .files("vlcurate").joinpath("assets/reference_labels.jsonl")
           .read_text("utf-8").splitlines() if line.strip()]
    reported = {r["subset_id"]: r["reported_average"] for r in raw}
    for sub in labeled:
        if sub.subset_id == 29:
            # source table's printed average for this row rounds from
            # 31.6325, i.e. 31.63; the table prints 31.64
            assert sub.label == pytest.approx(31.6325, abs=1e-12)
        else:
            # 1e-9 guard: one row's true mean sits exactly 0.005 away
            assert abs(sub.label - reported[sub.subset_id]) <= 0.005 + 1e-9


def test_attach_labels_missing_report():
    subsets = _reference_subsets()
    reports = load_reference_reports()[:-1]
    with pytest.raises(MissingLabel) as err:
        attach_labels(subsets, reports)
    assert err.value.subset_id == 29


def test_attach_labels_unknown_subset():
    subsets = _reference_subsets()[:5]
    reports = [EvalReport(0, {"a": 1.0}), EvalReport(7, {"a": 1.0})]
    with pytest.raises(UnknownSubset):
        attach_labels(subsets, reports)


def test_attach_labels_duplicate_report():
    subsets = _reference_subsets()
    reports = load_reference_reports()
    with pytest.raises(DuplicateId):
        attach_labels(subsets, reports + [reports[0]])


def test_attach_labels_keeps_membership():
    subsets = _reference_subsets()
    labeled = attach_labels(subsets, load_reference_reports())
    for before, after in zip(subsets, labeled):
        assert after.member_ids == before.member_ids
        assert np.array_equal(after.embeddings, before.embeddings)
        assert after.label is not None


def test_eval_reports_roundtrip(tmp_path):
    reports = [EvalReport(0, {"gqa": 28.48, "okvqa": 37.11}),
               EvalReport(1, {"gqa": 30.0})]
    path = tmp_path / "reports.jsonl"
    write_eval_reports(path, reports)
    back = read_eval_reports(path)
    assert back == reports


def test_eval_reports_malformed(tmp_path):
    path = tmp_path / "reports.jsonl"
    for line in ('{"subset_id": "x", "scores": {"a": "high"}}',
                 '{"subset_id": 1, "scores": [30.0, 28.5]}',
                 '{"subset_id": 1}', '[1, 2]', 'not json'):
        path.write_text('{"subset_id": 0, "scores": {"a": 1.0}}\n' + line + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_eval_reports(path)
        assert err.value.line_no == 2, line
