"""Manifest, feature-file, and score-cache I/O contracts."""

import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlcurate import corpus
from vlcurate.config import Fingerprint, build_config, config_keys, rerun_reason
from vlcurate.corpus import (
    ScoreCache,
    ScoreRecord,
    Triplet,
    hash_file,
    load_features,
    load_manifest,
    read_feature_file,
    read_json,
    read_jsonl,
    read_matrix,
    read_scores,
    write_feature_file,
    write_json,
    write_jsonl,
    write_manifest,
    write_scores,
)
from vlcurate.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyResponse,
    MalformedRecord,
    MissingFeature,
    NonFiniteFeature,
    ScoreOutOfRange,
    VlcurateError,
)
from vlcurate.indicators import score_corpus
from vlcurate.quality_labels import read_eval_reports
from vlcurate.selector import init_selector, load_selector, save_selector
from vlcurate.synth import read_oracle

from conftest import feature_text, make_manifest


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_manifest_minimal(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_lines(path, [{"id": "a", "image_path": "a.jpg",
                         "instruction": "Describe this image in detail.",
                         "response": "A cat."}])
    got = load_manifest(path)
    assert got == [Triplet("a", "a.jpg", "Describe this image in detail.", "A cat.")]


def test_load_manifest_preserves_file_order(tmp_path):
    ids = ["zz", "aa", "mm", "k", "b"]
    path = tmp_path / "m.jsonl"
    _write_lines(path, [{"id": i, "image_path": "x", "instruction": "q",
                         "response": "r"} for i in ids])
    assert [t.id for t in load_manifest(path)] == ids


def test_load_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_lines(path, [{"id": "a", "image_path": "x", "instruction": "q", "response": "r"},
                        {"id": "a", "image_path": "y", "instruction": "q", "response": "r"}])
    with pytest.raises(DuplicateId):
        load_manifest(path)


def test_load_manifest_missing_field_reports_line(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_lines(path, [{"id": "a", "image_path": "x", "instruction": "q", "response": "r"},
                        {"id": "b", "instruction": "q", "response": "r"}])
    with pytest.raises(MalformedRecord) as err:
        load_manifest(path)
    assert err.value.line_no == 2


def test_load_manifest_bad_json(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "a", truncated\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_manifest(path)


def test_load_manifest_empty_response(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_lines(path, [{"id": "a", "image_path": "x", "instruction": "q", "response": ""}])
    with pytest.raises(EmptyResponse) as err:
        load_manifest(path)
    assert err.value.sample_id == "a"


def test_load_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    body = json.dumps({"id": "a", "image_path": "x", "instruction": "q", "response": "r"})
    path.write_text("\n" + body + "\n\n", encoding="utf-8")
    assert len(load_manifest(path)) == 1


def test_manifest_roundtrip_unicode(tmp_path):
    triplets = [
        Triplet("u1", "im/1.png", "Que voyez-vous ?", "Un chat noir."),
        Triplet("u2", "im/2.png", "describe", "naive élève — ok"),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(triplets, path)
    assert load_manifest(path) == triplets


def test_manifest_determinism(tmp_path):
    triplets = make_manifest(40, seed=3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(triplets, p1)
    write_manifest(triplets, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_manifest(p1) == load_manifest(p2)


# -- feature files -------------------------------------------------------

def test_feature_file_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    ids = [f"t{i}" for i in range(7)]
    mat = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-3, 4, size=(7, 5))
    path = tmp_path / "image.txt"
    write_feature_file(path, ids, mat, tmp_path / ".matrices")
    rows, dim = read_feature_file(path)
    assert dim == 5
    # repr-based serialization round-trips doubles exactly
    for i, sample_id in enumerate(ids):
        assert np.array_equal(rows[sample_id], mat[i])


def test_feature_file_bad_header(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("dim 4\n", encoding="utf-8")
    with pytest.raises(DimensionMismatch):
        read_feature_file(path)
    path.write_text("id four\n", encoding="utf-8")
    with pytest.raises(DimensionMismatch):
        read_feature_file(path)


def test_feature_file_ragged_row(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("id 3\na 1.0 2.0 3.0\nb 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(DimensionMismatch):
        read_feature_file(path)


def test_feature_file_nan_entry(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("id 2\na 1.0 nan\n", encoding="utf-8")
    with pytest.raises(NonFiniteFeature):
        read_feature_file(path)


def test_feature_file_non_numeric_entry(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("id 2\na 1.0 2.0\nb 1.0 abc\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_feature_file(path)
    assert err.value.line_no == 3


def _digests(feature_dir, names):
    paths = [feature_dir / f"{name}.txt" for name in names]
    return {path: hash_file(path) for path in paths}


def test_load_features_consistent_store(tmp_path):
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    rng = np.random.default_rng(0)
    mats = {"image": rng.normal(size=(2, 4)),
            "text_clip": rng.normal(size=(2, 4)),
            "text_llm": rng.normal(size=(2, 8))}
    for name, m in mats.items():
        write_feature_file(tmp_path / f"{name}.txt", ["a", "b"], m, tmp_path / ".matrices")
    loaded = load_features(tmp_path, manifest, tuple(mats), tmp_path / ".matrices",
                           _digests(tmp_path, mats))
    assert loaded.keys() == mats.keys()
    assert loaded["image"].shape == (2, 4) and loaded["text_llm"].shape == (2, 8)
    assert np.array_equal(loaded["text_llm"][1], mats["text_llm"][1])


def test_load_features_missing_row(tmp_path):
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    store = tmp_path / ".matrices"
    write_feature_file(tmp_path / "image.txt", ["a"], np.ones((1, 4)), store)
    write_feature_file(tmp_path / "text_clip.txt", ["a", "b"], np.ones((2, 4)), store)
    write_feature_file(tmp_path / "text_llm.txt", ["a", "b"], np.ones((2, 8)), store)
    with pytest.raises(MissingFeature) as err:
        load_features(tmp_path, manifest, ("image", "text_clip", "text_llm"), store,
                      _digests(tmp_path, ("image", "text_clip", "text_llm")))
    assert (err.value.sample_id, err.value.matrix) == ("b", "image")


def test_feature_store_rejects_nan(tmp_path):
    manifest = [Triplet("a", "x", "q", "r")]
    (tmp_path / "image.txt").write_text("id 2\na 1.0 nan\n", encoding="utf-8")
    with pytest.raises(NonFiniteFeature):
        load_features(tmp_path, manifest, ("image",), tmp_path / ".matrices",
                      _digests(tmp_path, ("image",)))


def test_feature_store_rejects_row_mismatch():
    # score_corpus reads feature rows by position, so their count must match
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    features = {"image": np.ones((3, 2)), "text_clip": np.ones((3, 2))}
    with pytest.raises(DimensionMismatch):
        score_corpus(manifest, features, ScoreCache())


# -- binary twins -------------------------------------------------------------

def _read_matrix(path, ids, store):
    """``read_matrix`` given the digest a stage's fingerprint passes it."""
    return read_matrix(path, ids, store, {path: hash_file(path)})


def _twins(store):
    return sorted(p.name for p in store.iterdir()) if store.exists() else []


def _parse(path, ids):
    """The rows for ``ids`` as the text parse gives them, with no twin."""
    rows, dim = read_feature_file(path)
    return np.array([rows[sample_id] for sample_id in ids]).reshape(len(ids), dim)


def _no_parse(monkeypatch):
    def parse(path):
        raise AssertionError(f"{path} parsed despite a twin")
    monkeypatch.setattr(corpus, "read_feature_file", parse)


@pytest.mark.parametrize("ids", [
    ["a", "b", "c", "d"],
    ["d", "b", "a", "c"],
    ["c", "c", "a"],
    [],
], ids=["file-order", "reordered", "repeated", "none"])
def test_twin_hit_is_bit_equal_to_parse(tmp_path, monkeypatch, ids):
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-300, 300, size=(4, 3))
    mat[0, 0] = -0.0
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    write_feature_file(path, ["a", "b", "c", "d"], mat, store)
    parsed = _parse(path, ids)
    _no_parse(monkeypatch)
    got = _read_matrix(path, ids, store)
    assert got.dtype == np.float64 and got.shape == (len(ids), 3)
    assert got.tobytes() == parsed.tobytes()


def test_twin_of_repeated_ids_keeps_first_position_and_last_row(tmp_path, monkeypatch):
    mat = np.arange(8.0).reshape(4, 2) + 0.5
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    write_feature_file(path, ["a", "b", "a", "c"], mat, store)
    rows, _ = read_feature_file(path)
    assert list(rows) == ["a", "b", "c"]
    for ids in (["a", "b", "a", "c"], ["a", "b", "c"], ["c", "a"]):
        parsed = _parse(path, ids)
        assert np.array_equal(parsed[ids.index("a")], mat[2])
        with monkeypatch.context() as patch:
            _no_parse(patch)
            assert _read_matrix(path, ids, store).tobytes() == parsed.tobytes()


def test_twin_keeps_ids_that_differ_only_by_a_trailing_nul(tmp_path, monkeypatch):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    write_feature_file(path, ["a", "a\x00"], np.array([[1.0], [2.0]]), store)
    for ids in (["a", "a\x00"], ["a\x00"], ["a"]):
        with monkeypatch.context() as patch:
            _no_parse(patch)
            assert _read_matrix(path, ids, store).tobytes() == _parse(path, ids).tobytes()
    # the twin a miss writes holds them apart as well
    for twin in store.iterdir():
        twin.unlink()
    assert np.array_equal(_read_matrix(path, ["a\x00", "a"], store), [[2.0], [1.0]])
    _no_parse(monkeypatch)
    assert np.array_equal(_read_matrix(path, ["a\x00", "a"], store), [[2.0], [1.0]])


def test_text_replaced_during_a_miss_gets_no_twin(tmp_path, monkeypatch):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    path.write_bytes(b"id 1\na 1.0\n")
    parse = corpus.read_feature_file

    def replaced_then_parsed(p):
        p.write_bytes(b"id 1\na 2.0\n")
        return parse(p)

    with monkeypatch.context() as patch:
        patch.setattr(corpus, "read_feature_file", replaced_then_parsed)
        assert np.array_equal(_read_matrix(path, ["a"], store), [[2.0]])
    assert _twins(store) == []
    path.write_bytes(b"id 1\na 1.0\n")
    assert np.array_equal(_read_matrix(path, ["a"], store), [[1.0]])


def test_twin_sees_a_same_size_edit(tmp_path, monkeypatch):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    write_feature_file(path, ["a", "b"], np.array([[0.5, 1.25], [2.0, -3.5]]), store)
    first = _twins(store)
    assert len(first) == 2
    text = path.read_bytes()
    path.write_bytes(text.replace(b"1.25", b"1.75"))
    assert path.stat().st_size == len(text)
    got = _read_matrix(path, ["b", "a"], store)
    assert np.array_equal(got, [[2.0, -3.5], [0.5, 1.75]])
    # the edit's twin replaced the old one, and the next read is a hit
    assert len(_twins(store)) == 2 and not set(_twins(store)) & set(first)
    _no_parse(monkeypatch)
    assert np.array_equal(_read_matrix(path, ["a"], store), [[0.5, 1.75]])


def test_twin_pruning_keeps_other_stems(tmp_path):
    store = tmp_path / ".matrices"
    for value in (1.0, 2.0):
        for name in ("image", "image_big", "text_llm"):
            write_feature_file(tmp_path / f"{name}.txt", ["a"], [[value]], store)
    names = _twins(store)
    assert len(names) == 6
    for name in ("image", "image_big", "text_llm"):
        assert sum(n.startswith(name + ".") for n in names) == 2


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


_DAMAGED = {
    "empty": lambda good: b"",
    "garbage": lambda good: b"not an npy file at all",
    "truncated": lambda good: good[:-9],
    "nan": lambda good: _npy(np.array([[np.nan, 1.0], [2.0, 3.0]])),
    "inf": lambda good: _npy(np.array([[np.inf, 1.0], [2.0, 3.0]])),
    "float32": lambda good: _npy(np.ones((2, 2), dtype=np.float32)),
    "one-dim": lambda good: _npy(np.ones(4)),
    "three-dim": lambda good: _npy(np.ones((2, 2, 1))),
    "no-columns": lambda good: _npy(np.ones((2, 0))),
    "row-count": lambda good: _npy(np.ones((3, 2))),
    "object": lambda good: _npy(np.array([[1.0, None], [2.0, 3.0]], dtype=object)),
    "header-overstates": lambda good: good.replace(b"(2, 2)", b"(9, 2)"),
}


@pytest.mark.parametrize("damage", _DAMAGED.values(), ids=list(_DAMAGED))
def test_damaged_twin_is_a_miss_that_gets_rewritten(tmp_path, monkeypatch, damage):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    mat = np.array([[0.5, 1.25], [2.0, -3.5]])
    write_feature_file(path, ["a", "b"], mat, store)
    twin = next(store.glob("image.*[0-9a-f].npy"))
    good = twin.read_bytes()
    twin.write_bytes(damage(good))
    assert np.array_equal(_read_matrix(path, ["b", "a"], store), mat[::-1])
    assert twin.read_bytes() == good
    _no_parse(monkeypatch)
    assert np.array_equal(_read_matrix(path, ["a", "b"], store), mat)


def _id_text(text: bytes) -> bytes:
    return _npy(np.frombuffer(text, dtype=np.uint8))


@pytest.mark.parametrize("ids_bytes", [
    b"", _id_text(b"a"), _id_text(b"a\nb\nc"), _id_text(b""), _id_text(b"a\n\xff"),
    _npy(np.array([1, 2])), _npy(np.frombuffer(b"a\nb", np.uint8).reshape(1, 3)),
    _npy(np.array(["a", "b"])),
], ids=["empty", "short", "long", "no-ids", "not-utf8", "integers", "two-dim", "unicode"])
def test_damaged_twin_ids_are_a_miss(tmp_path, ids_bytes):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    mat = np.array([[0.5, 1.25], [2.0, -3.5]])
    write_feature_file(path, ["a", "b"], mat, store)
    ids_twin = next(store.glob("image.*.ids.npy"))
    good = ids_twin.read_bytes()
    ids_twin.write_bytes(ids_bytes)
    assert np.array_equal(_read_matrix(path, ["b", "a"], store), mat[::-1])
    assert ids_twin.read_bytes() == good


def _npy_header(text: str) -> bytes:
    header = text.encode("latin1", "replace")
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header


_twin_bytes = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=120).map(_npy_header),
    st.builds(lambda descr, shape, body: _npy_header(
        f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {shape!r}, }}") + body,
        st.sampled_from(["<f8", ">f8", "<f4", "<i8", "|u1", "<U1", "|O", "|V8", "f8", 5,
                         "(2,)<f8"]),
        st.tuples(st.integers(-3, 10**12), st.integers(-3, 4)) | st.tuples(st.integers(0, 9)),
        st.binary(max_size=100)),
    st.lists(st.floats(), min_size=1, max_size=8).map(
        lambda values: _npy(np.array(values).reshape(len(values), 1))),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_twin_bytes, which=st.sampled_from(["matrix", "ids"]))
def test_any_twin_bytes_raise_only_typed_errors(tmp_path, data, which):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    mat = np.array([[0.5], [2.0]])
    write_feature_file(path, ["a", "b"], mat, store)
    name = "image.*.ids.npy" if which == "ids" else "image.*[0-9a-f].npy"
    next(store.glob(name)).write_bytes(data)
    try:
        _read_matrix(path, ["a", "b"], store)
    except VlcurateError:
        pass


@pytest.mark.parametrize("text,ids,error", [
    (b"dim 4\n", ["a"], DimensionMismatch),
    (b"id 3\na 1.0 2.0 3.0\nb 1.0 2.0\n", ["a"], DimensionMismatch),
    (b"id 2\na 1.0 nan\n", ["a"], NonFiniteFeature),
    (b"id 2\na 1.0 2.0\nb 1.0 abc\n", ["a"], MalformedRecord),
    (b"id 1\na \xff\n", ["a"], MalformedRecord),
    (b"id 1\na 1.0\n", ["a", "b"], MissingFeature),
    (None, ["a"], FileNotFoundError),
], ids=["header", "ragged", "nan", "non-numeric", "not-utf8", "missing-id", "absent"])
def test_foreign_text_without_twin_raises_as_before(tmp_path, text, ids, error):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    if text is not None:
        path.write_bytes(text)
    if error is MissingFeature:
        expected = MissingFeature("b", "image")
    else:
        with pytest.raises(error) as parse:
            read_feature_file(path)
        expected = parse.value
    with pytest.raises(error) as stored:
        _read_matrix(path, ids, store)
    assert str(stored.value) == str(expected)
    # only text that parses gets a twin
    assert bool(_twins(store)) == (error is MissingFeature)


def test_text_that_does_not_parse_back_gets_no_twin(tmp_path):
    store = tmp_path / ".matrices"
    write_feature_file(tmp_path / "a.txt", ["x y", "z"], np.ones((2, 1)), store)
    write_feature_file(tmp_path / "b.txt", ["", "z"], np.ones((2, 1)), store)
    write_feature_file(tmp_path / "c.txt", ["x", "z"], np.ones((1, 1)), store)
    write_feature_file(tmp_path / "d.txt", ["x"], [[math.nan]], store)
    write_feature_file(tmp_path / "e.txt", ["x"], np.ones((1, 0)), store)
    assert _twins(store) == []
    with pytest.raises(DimensionMismatch):
        _read_matrix(tmp_path / "a.txt", ["z"], store)
    with pytest.raises(NonFiniteFeature):
        _read_matrix(tmp_path / "d.txt", ["x"], store)


def _split_writes(monkeypatch, cpus):
    """Make write_feature_file split every matrix among ``cpus`` processes."""
    monkeypatch.setattr(corpus, "PARALLEL_MIN_VALUES", 0)
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_ids", [5, 7, 9])
def test_split_write_is_byte_identical(tmp_path, monkeypatch, cpus, n_ids):
    rng = np.random.default_rng(cpus)
    mat = rng.normal(size=(7, 3))
    mat[0] = [1e-05, 1e16, -0.0]
    mat[3] = [5e-324, 1 / 3, -1e-300]
    ids = [f"s{i}" for i in range(n_ids)]
    serial, split = tmp_path / "serial", tmp_path / "split"
    for work in (serial, split):
        work.mkdir()
    write_feature_file(serial / "image.txt", ids, mat, serial / ".matrices")
    _split_writes(monkeypatch, cpus)
    write_feature_file(split / "image.txt", ids, mat, split / ".matrices")
    text = (split / "image.txt").read_bytes()
    assert text == (serial / "image.txt").read_bytes() == feature_text(ids, mat)
    twins = _twins(split / ".matrices")
    assert twins == _twins(serial / ".matrices")
    assert len(twins) == (2 if n_ids == 7 else 0)
    for twin in twins:
        # keyed by the text's sha256, and holding the same bytes
        assert twin.split(".")[1] == hash_file(split / "image.txt")
        assert ((split / ".matrices" / twin).read_bytes()
                == (serial / ".matrices" / twin).read_bytes())


def test_split_write_gives_no_twin_to_text_that_does_not_parse_back(tmp_path,
                                                                    monkeypatch):
    _split_writes(monkeypatch, 2)
    store = tmp_path / ".matrices"
    nan = np.ones((4, 2))
    nan[3, 1] = math.nan
    ids = ["w", "x", "y", "z"]
    for name, mat in (("nan", nan), ("empty", np.ones((4, 0)))):
        write_feature_file(tmp_path / f"{name}.txt", ids, mat, store)
        assert (tmp_path / f"{name}.txt").read_bytes() == feature_text(ids, mat)
    assert _twins(store) == []


def test_failed_split_write_leaves_the_previous_file(tmp_path, monkeypatch):
    path, store = tmp_path / "image.txt", tmp_path / ".matrices"
    ids = [f"s{i}" for i in range(9)]
    write_feature_file(path, ids, np.ones((9, 2)), store)
    before, twins = path.read_bytes(), _twins(store)
    _split_writes(monkeypatch, 3)
    parent, format_rows = os.getpid(), corpus._format_rows

    def dies_partway(emit, part_ids, matrix):
        if os.getpid() == parent:
            return format_rows(emit, part_ids, matrix)
        format_rows(emit, part_ids[:1], matrix[:1])
        os._exit(3)

    monkeypatch.setattr(corpus, "_format_rows", dies_partway)
    with pytest.raises(OSError, match="exited with code 3"):
        write_feature_file(path, ids, np.zeros((9, 2)), store)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [".matrices", "image.txt"]
    assert _twins(store) == twins
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(corpus, "_format_rows", format_rows)
    write_feature_file(path, ids, np.zeros((9, 2)), store)
    assert path.read_bytes() == feature_text(ids, np.zeros((9, 2)))
    assert multiprocessing.active_children() == []


def test_split_write_duplicates_no_buffered_output(tmp_path):
    # stdout on a pipe is block-buffered, so the marker is still in the
    # buffer when the children fork; each child flushes its copy as it ends
    script = (
        "import numpy as np\n"
        "from vlcurate import corpus\n"
        "corpus._usable_cpus = lambda: 3\n"
        "print('unflushed-marker')\n"
        "corpus.write_feature_file(%r, [f's{i}' for i in range(64)],\n"
        "    np.ones((64, corpus.PARALLEL_MIN_VALUES // 64)), %r)\n"
        % (str(tmp_path / "image.txt"), str(tmp_path / ".matrices")))
    src = str(Path(corpus.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("unflushed-marker") == 1
    assert len(_twins(tmp_path / ".matrices")) == 2


# -- score cache ---------------------------------------------------------

def test_scores_roundtrip_single(tmp_path):
    cache = ScoreCache()
    cache["a"] = ScoreRecord(clip=0.5, length=12, reward=1.2, gpt=85.0)
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert back["a"] == cache["a"]
    assert isinstance(back["a"].length, int)


def test_scores_roundtrip_partial(tmp_path):
    cache = ScoreCache()
    cache["a"] = ScoreRecord(reward=-3.5, gpt=12.0)
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert back["a"].clip is None
    assert back["a"].length is None
    assert back["a"].reward == -3.5


def test_scores_gpt_out_of_range_on_read(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id": "a", "gpt": 120}\n', encoding="utf-8")
    with pytest.raises(ScoreOutOfRange):
        read_scores(path)


def test_scores_negative_length_rejected(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id": "a", "length": -1}\n', encoding="utf-8")
    with pytest.raises(ScoreOutOfRange):
        read_scores(path)


@pytest.mark.parametrize("line", [
    '5',
    '["a", 0.5]',
    '{"id": "a", "gpt": "high"}',
    '{"id": "a", "clip": [0.5]}',
    '{"id": "a", "length": 1e999}',
    '{"id": "a", "gpt": NaN}',
    '{"id": "a", "reward": "nan"}',
    '{"id": "a", "clip": "-inf"}',
    pytest.param('{"id": "a", "length": 1' + '0' * 400 + '}', id="length-beyond-float"),
])
def test_scores_malformed_line_rejected(tmp_path, line):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id": "ok", "gpt": 50}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_scores(path)
    assert err.value.line_no == 2


def test_write_scores_validates():
    cache = ScoreCache()
    cache["a"] = ScoreRecord(gpt=101.0)
    with pytest.raises(ScoreOutOfRange):
        write_scores(cache, "/dev/null")


def test_scores_roundtrip_thousand_records(tmp_path):
    rng = np.random.default_rng(11)
    cache = ScoreCache()
    for i in range(1000):
        cache[f"id{i:04d}"] = ScoreRecord(
            clip=float(rng.uniform(-1, 1)),
            length=int(rng.integers(0, 400)),
            reward=float(rng.normal() * 10),
            gpt=float(rng.uniform(0, 100)),
        )
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert len(back) == 1000
    for key, rec in cache.items():
        got = back[key]
        assert got.length == rec.length
        assert math.isclose(got.clip, rec.clip, rel_tol=1e-12)
        assert math.isclose(got.reward, rec.reward, rel_tol=1e-12)
        assert math.isclose(got.gpt, rec.gpt, rel_tol=1e-12)


def test_score_record_complete():
    assert ScoreRecord(clip=0.1).missing() == "length"
    assert ScoreRecord(clip=0.1, length=3, gpt=50.0).missing() == "reward"
    assert ScoreRecord(clip=0.1, length=3, reward=0.0, gpt=50.0).missing() is None


# -- JSON record framing -----------------------------------------------------

def test_jsonl_roundtrip_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"id": "é", "v": 0.1}, {"id": "b", "v": [1, 2]}]
    write_jsonl(path, rows)
    assert path.read_text(encoding="utf-8").splitlines()[0] == '{"id": "é", "v": 0.1}'
    path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n", encoding="utf-8")
    assert list(read_jsonl(path)) == [(2, rows[0]), (3, rows[1])]


def test_json_roundtrip_sorts_keys(tmp_path):
    path = tmp_path / "blob.json"
    write_json(path, {"b": 1, "a": {"d": 2, "c": 3}})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n')
    assert read_json(path, ("a", "b")) == {"a": {"c": 3, "d": 2}, "b": 1}
    with pytest.raises(MalformedRecord, match="missing key"):
        read_json(path, ("a", "z"))


@pytest.mark.parametrize("line", [
    "not json", "[1, 2]", '"text"', "[" * 100_000, '{"a": 1' + "0" * 5000 + "}",
    '{"a": NaN}', '{"a": [Infinity]}', '{"a": -Infinity}', '{"a": 1e999}',
], ids=["invalid", "array", "string", "deep", "big-int", "nan", "inf", "minus-inf",
        "overflow"])
def test_json_readers_reject_with_line_number(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        list(read_jsonl(path))
    assert err.value.line_no == 2
    path.write_text(line, encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_json(path)


_KEYS = ("id", "image_path", "instruction", "response", "clip", "length", "reward",
         "gpt", "q", "subset_id", "scores", "version", "kind", "input_dim", "d_model",
         "ff_dim", "layers", "n_params", "fingerprint", "inputs", "config", "outputs")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_lines = st.one_of(
    st.text(max_size=40),
    st.dictionaries(st.sampled_from(_KEYS), _json_values, max_size=8).map(json.dumps),
)
_file_bytes = st.one_of(
    st.binary(max_size=200),
    st.lists(_lines, max_size=5).map(lambda lines: "\n".join(lines).encode()),
)


def _read_meta(path):
    (path.parent / "params.txt").write_text("0x0p+0\n" * 3, encoding="utf-8")
    return load_selector(path.parent)


_READERS = {
    "manifest": load_manifest,
    "scores": read_scores,
    "oracle": read_oracle,
    "eval_reports": read_eval_reports,
    "features": read_feature_file,
    "json": read_json,
    "meta": _read_meta,
    "fingerprint": lambda path: rerun_reason(
        path.parent, "x", Fingerprint({path: "0" * 64}, {"seed": "0" * 64}), [path]),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_file_bytes)
def test_readers_raise_only_typed_errors(tmp_path, data):
    path = tmp_path / "meta.json"
    path.write_bytes(data)
    (tmp_path / ".fingerprints").mkdir(exist_ok=True)
    (tmp_path / ".fingerprints" / "x.sha256").write_bytes(data)
    for reader in _READERS.values():
        try:
            reader(path)
        except VlcurateError:
            pass


_config_lines = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.sampled_from(sorted(config_keys())) | st.text(max_size=6),
              st.text(max_size=12) | st.integers().map(str) | st.floats().map(repr)),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=200)
       | st.lists(_config_lines, max_size=6).map(lambda lines: "\n".join(lines).encode()))
def test_config_file_raises_only_typed_errors(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    try:
        build_config(str(path))
    except VlcurateError:
        pass


_param_lines = st.one_of(
    st.floats().map(float.hex), st.floats().map(repr), st.text(max_size=10))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=200)
       | st.lists(_param_lines, max_size=5).map(lambda lines: "\n".join(lines).encode()))
def test_selector_params_raise_only_typed_errors(tmp_path, data):
    # a linear selector on two inputs holds three parameters
    save_selector(tmp_path, init_selector("linear", input_dim=2))
    (tmp_path / "params.txt").write_bytes(data)
    try:
        load_selector(tmp_path)
    except VlcurateError:
        pass
