"""Manifest, feature-file, and score-cache I/O contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlcurate.config import stage_is_current
from vlcurate.corpus import (
    ScoreCache,
    ScoreRecord,
    Triplet,
    load_features,
    load_manifest,
    read_feature_file,
    read_json,
    read_jsonl,
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
from vlcurate.selector import load_selector
from vlcurate.synth import read_oracle

from conftest import make_manifest


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
    write_feature_file(path, ids, mat)
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


def test_load_features_consistent_store(tmp_path):
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    rng = np.random.default_rng(0)
    mats = {"image": rng.normal(size=(2, 4)),
            "text_clip": rng.normal(size=(2, 4)),
            "text_llm": rng.normal(size=(2, 8))}
    for name, m in mats.items():
        write_feature_file(tmp_path / f"{name}.txt", ["a", "b"], m)
    store = load_features(tmp_path, manifest)
    assert store.keys() == mats.keys()
    assert store["image"].shape == (2, 4) and store["text_llm"].shape == (2, 8)
    assert np.array_equal(store["text_llm"][1], mats["text_llm"][1])


def test_load_features_missing_row(tmp_path):
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    write_feature_file(tmp_path / "image.txt", ["a"], np.ones((1, 4)))
    write_feature_file(tmp_path / "text_clip.txt", ["a", "b"], np.ones((2, 4)))
    write_feature_file(tmp_path / "text_llm.txt", ["a", "b"], np.ones((2, 8)))
    with pytest.raises(MissingFeature) as err:
        load_features(tmp_path, manifest)
    assert (err.value.sample_id, err.value.matrix) == ("b", "image")


def test_feature_store_rejects_nan(tmp_path):
    manifest = [Triplet("a", "x", "q", "r")]
    (tmp_path / "image.txt").write_text("id 2\na 1.0 nan\n", encoding="utf-8")
    with pytest.raises(NonFiniteFeature):
        load_features(tmp_path, manifest, ("image",))


def test_feature_store_rejects_row_mismatch():
    # score_corpus reads feature rows by position, so their count must match
    manifest = [Triplet("a", "x", "q", "r"), Triplet("b", "y", "q", "r")]
    features = {"image": np.ones((3, 2)), "text_clip": np.ones((3, 2))}
    with pytest.raises(DimensionMismatch):
        score_corpus(manifest, features, ScoreCache())


# -- score cache ---------------------------------------------------------

def test_scores_roundtrip_single(tmp_path):
    cache = ScoreCache()
    cache.records["a"] = ScoreRecord(clip=0.5, length=12, reward=1.2, gpt=85.0)
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert back.records["a"] == cache.records["a"]
    assert isinstance(back.records["a"].length, int)


def test_scores_roundtrip_partial(tmp_path):
    cache = ScoreCache()
    cache.records["a"] = ScoreRecord(reward=-3.5, gpt=12.0)
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert back.records["a"].clip is None
    assert back.records["a"].length is None
    assert back.records["a"].reward == -3.5


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
    cache.records["a"] = ScoreRecord(gpt=101.0)
    with pytest.raises(ScoreOutOfRange):
        write_scores(cache, "/dev/null")


def test_scores_roundtrip_thousand_records(tmp_path):
    rng = np.random.default_rng(11)
    cache = ScoreCache()
    for i in range(1000):
        cache.records[f"id{i:04d}"] = ScoreRecord(
            clip=float(rng.uniform(-1, 1)),
            length=int(rng.integers(0, 400)),
            reward=float(rng.normal() * 10),
            gpt=float(rng.uniform(0, 100)),
        )
    path = tmp_path / "scores.jsonl"
    write_scores(cache, path)
    back = read_scores(path)
    assert len(back.records) == 1000
    for key, rec in cache.records.items():
        got = back.records[key]
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
         "ff_dim", "layers", "n_params", "fingerprint", "outputs")
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
    "fingerprint": lambda path: stage_is_current(path.parent, "x", "f", []),
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
