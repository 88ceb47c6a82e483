"""Synthetic corpus generator: planted quality signal, determinism, and
the stand-in evaluation loop."""

import filecmp

import numpy as np
import pytest

from vlcurate.config import PipelineConfig
from vlcurate.errors import BadConfig, MalformedRecord
from vlcurate.indicators import indicator_matrix, length_score, score_corpus
from vlcurate.numerics import spearman
from vlcurate.synth import (
    MIN_SAMPLES,
    SPEARMAN_BANDS,
    generate,
    oracle_eval_reports,
    read_oracle,
    write_corpus,
    write_oracle,
)


def test_generate_rejects_bad_config():
    with pytest.raises(BadConfig):
        generate(MIN_SAMPLES - 1, seed=0)
    with pytest.raises(BadConfig):
        generate(50, seed=0, image_dim=1)
    with pytest.raises(BadConfig):
        generate(50, seed=0, text_dim=7)


def test_generate_shapes_and_ids():
    corpus = generate(60, seed=4)
    assert len(corpus.manifest) == 60
    assert corpus.manifest[0].id == "syn-00000"
    assert corpus.manifest[59].id == "syn-00059"
    assert corpus.features["image"].shape == (60, 16)
    assert corpus.features["text_clip"].shape == (60, 16)
    assert corpus.features["text_llm"].shape == (60, 24)
    assert set(corpus.oracle) == {t.id for t in corpus.manifest}
    q = np.array(list(corpus.oracle.values()))
    assert np.all((q >= 0.0) & (q <= 1.0))
    for t in corpus.manifest:
        rec = corpus.scores.records[t.id]
        # the cache ships with the remote-judge scores only; clip and
        # length are left for the scoring stage to derive
        assert rec.reward is not None and rec.gpt is not None
        assert rec.clip is None and rec.length is None
        assert 0.0 <= rec.gpt <= 100.0
        assert t.response and t.instruction


def test_generate_honors_dims():
    corpus = generate(40, seed=1, image_dim=5, text_dim=9)
    assert corpus.features["image"].shape == (40, 5)
    assert corpus.features["text_llm"].shape == (40, 9)


def test_generate_is_deterministic():
    a = generate(50, seed=3)
    b = generate(50, seed=3)
    assert [t.__dict__ for t in a.manifest] == [t.__dict__ for t in b.manifest]
    for name in a.features:
        assert np.array_equal(a.features[name], b.features[name])
    assert a.oracle == b.oracle
    assert all(
        a.scores.records[i].reward == b.scores.records[i].reward
        and a.scores.records[i].gpt == b.scores.records[i].gpt
        for i in a.oracle
    )


def test_generate_seeds_differ():
    a = generate(40, seed=0)
    b = generate(40, seed=1)
    assert not np.array_equal(
        a.features["image"], b.features["image"]
    )


def test_write_corpus_byte_identical(tmp_path):
    names = [
        "manifest.jsonl",
        "scores.jsonl",
        "oracle.jsonl",
        "features/image.txt",
        "features/text_clip.txt",
        "features/text_llm.txt",
    ]
    for run in ("one", "two"):
        write_corpus(generate(45, seed=11), PipelineConfig(workdir=str(tmp_path / run)))
    twins = sorted(p.name for p in (tmp_path / "one" / ".matrices").iterdir())
    assert len(twins) == 6
    assert twins == sorted(p.name for p in (tmp_path / "two" / ".matrices").iterdir())
    for name in names + [f".matrices/{twin}" for twin in twins]:
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                           shallow=False), name


def test_text_clip_rows_are_unit_norm():
    # construction writes cos(image_i, text_clip_i) directly, so the text
    # embedding must be unit length
    corpus = generate(40, seed=6)
    norms = np.linalg.norm(corpus.features["text_clip"], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_indicators_track_planted_quality():
    corpus = generate(1200, seed=0)
    score_corpus(corpus.manifest, corpus.features, corpus.scores)
    matrix = indicator_matrix(corpus.manifest, corpus.scores)
    q = np.array([corpus.oracle[t.id] for t in corpus.manifest])
    for col, name in enumerate(("clip", "length", "reward", "gpt")):
        lo, hi = SPEARMAN_BANDS[name]
        rho = spearman(matrix[:, col], q)
        assert lo < rho < hi, (name, rho)


def test_clip_scores_live_in_valid_range():
    corpus = generate(200, seed=2)
    score_corpus(corpus.manifest, corpus.features, corpus.scores)
    clip = np.array([corpus.scores.records[t.id].clip for t in corpus.manifest])
    assert np.all((clip >= -1.0) & (clip <= 1.0))


def test_response_word_counts_match_length_score():
    corpus = generate(80, seed=5)
    score_corpus(corpus.manifest, corpus.features, corpus.scores)
    for t in corpus.manifest:
        rec = corpus.scores.records[t.id]
        assert rec.length == length_score(t.response) == len(t.response.split())
        assert rec.length >= 1


def test_oracle_roundtrip(tmp_path):
    oracle = {"a": 0.123456789012345, "b": 1.0, "c": 0.0}
    path = tmp_path / "oracle.jsonl"
    write_oracle(oracle, path)
    assert read_oracle(path) == oracle


def test_read_oracle_rejects_malformed(tmp_path):
    path = tmp_path / "oracle.jsonl"
    path.write_text('{"id": "a", "q": 0.5}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_oracle(path)
    assert err.value.line_no == 2

    path.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_oracle(path)

    for line in ('{"id": "b", "q": NaN}', '{"id": "b", "q": -Infinity}',
                 '{"id": "b", "q": 1e999}', '{"id": "b", "q": "nan"}',
                 '{"id": "b", "q": "1e999"}', '{"id": "b", "q": 1' + "0" * 5000 + "}",
                 "[" * 100_000):
        path.write_text('{"id": "a", "q": 0.5}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            read_oracle(path)
        assert err.value.line_no == 2, line[:40]


def _chunked_subsets(corpus, n_chunks):
    """Subsets chunked by planted quality so mean q is strictly increasing."""
    ids = sorted(corpus.oracle, key=corpus.oracle.get)
    size = len(ids) // n_chunks
    return [tuple(ids[j * size:(j + 1) * size]) for j in range(n_chunks)]


def test_eval_reports_track_subset_quality():
    corpus = generate(120, seed=7)
    subsets = _chunked_subsets(corpus, 12)
    reports = oracle_eval_reports(subsets, corpus.oracle, seed=0)
    assert [r.subset_id for r in reports] == list(range(12))
    mean_q = [np.mean([corpus.oracle[i] for i in s]) for s in subsets]
    names = {"synth_vqa_gain", "synth_gqa_gain", "synth_cap_gain", "synth_ret_gain"}
    for report in reports:
        assert set(report.scores) == names
    for name in names:
        vals = [r.scores[name] for r in reports]
        # noise sigma 0.25 against quality swings of tens of points
        assert spearman(vals, mean_q) > 0.9


def test_eval_reports_deterministic_per_seed():
    corpus = generate(60, seed=8)
    subsets = _chunked_subsets(corpus, 6)
    a = oracle_eval_reports(subsets, corpus.oracle, seed=5)
    b = oracle_eval_reports(subsets, corpus.oracle, seed=5)
    c = oracle_eval_reports(subsets, corpus.oracle, seed=6)
    assert [r.scores for r in a] == [r.scores for r in b]
    assert [r.scores for r in a] != [r.scores for r in c]
