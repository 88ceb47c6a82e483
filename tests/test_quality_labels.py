"""Subset construction and genuine-quality-label plumbing."""

import json
import math

import numpy as np
import pytest

from vlcurate.corpus import load_manifest
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
    average_label,
    build_subsets,
    load_reference_reports,
    read_eval_reports,
    subset_labels,
    write_eval_reports,
    write_subset_manifests,
)

from conftest import make_manifest


def _ids(n):
    return [f"e{i:04d}" for i in range(n)]


def test_build_subsets_singletons():
    rng = np.random.default_rng(0)
    subsets = build_subsets(_ids(6), rng.normal(size=(6, 3)), n=6, seed=0)
    assert len(subsets) == 6
    assert sorted(len(s) for s in subsets) == [1] * 6
    covered = {i for s in subsets for i in s}
    assert covered == set(_ids(6))


def test_build_subsets_two_blobs():
    rng = np.random.default_rng(1)
    lo = rng.normal(0.0, 0.3, size=(20, 2))
    hi = rng.normal(50.0, 0.3, size=(20, 2))
    subsets = build_subsets(_ids(40), np.vstack([lo, hi]), n=2, seed=0)
    groups = [set(s) for s in subsets]
    lo_ids = {f"e{i:04d}" for i in range(20)}
    hi_ids = {f"e{i:04d}" for i in range(20, 40)}
    assert {frozenset(g) for g in groups} == {frozenset(lo_ids), frozenset(hi_ids)}


def test_build_subsets_partition_properties():
    rng = np.random.default_rng(2)
    embs = rng.normal(size=(347, 5))
    subsets = build_subsets(_ids(347), embs, n=10, seed=3)
    sizes = [len(s) for s in subsets]
    assert sizes == [34] * 10  # capacity = 347 // 10
    all_ids = [i for s in subsets for i in s]
    assert len(all_ids) == len(set(all_ids)) == 340  # disjoint, 7 excluded
    for s in subsets:
        assert list(s) == sorted(s)  # corpus order


def test_build_subsets_seed_reproducible():
    rng = np.random.default_rng(4)
    embs = rng.normal(size=(50, 4))
    a = build_subsets(_ids(50), embs, n=5, seed=9)
    b = build_subsets(_ids(50), embs, n=5, seed=9)
    assert a == b


def test_build_subsets_on_external_vectors():
    # the partition follows whatever matrix is passed, e.g. image features
    rng = np.random.default_rng(5)
    image_space = np.vstack([rng.normal(0, 0.1, (20, 2)),
                             rng.normal(30, 0.1, (20, 2))])
    subsets = build_subsets(_ids(40), image_space, n=2, seed=0)
    groups = {frozenset(s) for s in subsets}
    assert frozenset(f"e{i:04d}" for i in range(20)) in groups


def test_build_subsets_too_many():
    embs = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(TooManyClusters):
        build_subsets(_ids(4), embs, n=5, seed=0)


def test_write_subset_manifests(tmp_path):
    manifest = make_manifest(12, seed=6)
    rng = np.random.default_rng(6)
    subsets = build_subsets([t.id for t in manifest], rng.normal(size=(12, 3)), n=3, seed=0)
    paths = write_subset_manifests(subsets, manifest, tmp_path)
    assert len(paths) == 3
    for sub, path in zip(subsets, paths):
        back = load_manifest(path)
        assert tuple(t.id for t in back) == sub


def test_write_subset_manifests_removes_stale_ones(tmp_path):
    """Writing 6 subsets after 8 deletes subsets 6 and 7, and only files
    named exactly as a subset manifest."""
    manifest = make_manifest(16, seed=7)
    ids = [t.id for t in manifest]
    write_subset_manifests([tuple(ids[2 * j:2 * j + 2]) for j in range(8)], manifest, tmp_path)
    others = ["subset_6.manifest.jsonl", "subset_0007.manifest.jsonl",
              "subset_007.manifest.jsonl.bak", "subsets.json"]
    for name in others:
        (tmp_path / name).write_text("kept\n", encoding="utf-8")
    paths = write_subset_manifests([tuple(ids[2 * j:2 * j + 2]) for j in range(6)],
                                   manifest, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [p.name for p in paths] + others)
    assert [p.name for p in paths] == [f"subset_{j:03d}.manifest.jsonl" for j in range(6)]


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


def test_subset_labels_reference_fixture():
    reports = load_reference_reports()
    assert len(reports) == 30
    labels = subset_labels(list(range(30)), reports)
    raw = [json.loads(line) for line in
           __import__("importlib.resources", fromlist=["files"])
           .files("vlcurate").joinpath("assets/reference_labels.jsonl")
           .read_text("utf-8").splitlines() if line.strip()]
    reported = {r["subset_id"]: r["reported_average"] for r in raw}
    for subset_id, label in enumerate(labels):
        if subset_id == 29:
            # source table's printed average for this row rounds from
            # 31.6325, i.e. 31.63; the table prints 31.64
            assert label == pytest.approx(31.6325, abs=1e-12)
        else:
            # 1e-9 guard: one row's true mean sits exactly 0.005 away
            assert abs(label - reported[subset_id]) <= 0.005 + 1e-9


def test_subset_labels_missing_report():
    reports = load_reference_reports()[:-1]
    with pytest.raises(MissingLabel) as err:
        subset_labels(list(range(30)), reports)
    assert err.value.subset_id == 29


def test_subset_labels_unknown_subset():
    reports = [EvalReport(0, {"a": 1.0}), EvalReport(7, {"a": 1.0})]
    with pytest.raises(UnknownSubset):
        subset_labels(list(range(5)), reports)


def test_subset_labels_duplicate_report():
    reports = load_reference_reports()
    with pytest.raises(DuplicateId):
        subset_labels(list(range(30)), reports + [reports[0]])


def test_subset_labels_follow_id_order():
    reports = load_reference_reports()
    labels = subset_labels(list(range(30)), reports)
    order = [int(j) for j in np.random.default_rng(8).permutation(30)]
    assert np.array_equal(subset_labels(order, reports), labels[order])
    assert np.array_equal(labels, [average_label(r) for r in reports])


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
                 '{"subset_id": 1}', '[1, 2]', 'not json',
                 '{"subset_id": 1, "scores": {"a": NaN}}',
                 '{"subset_id": 1, "scores": {"a": Infinity}}',
                 '{"subset_id": 1, "scores": {"a": 1e999}}',
                 '{"subset_id": 1, "scores": {"a": "nan"}}',
                 '{"subset_id": 1, "scores": {"a": "1e999"}}',
                 '{"subset_id": 1' + "0" * 5000 + ', "scores": {"a": 1.0}}',
                 '{"subset_id": 1, "scores": ' + "[" * 100_000):
        path.write_text('{"subset_id": 0, "scores": {"a": 1.0}}\n' + line + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_eval_reports(path)
        assert err.value.line_no == 2, line
