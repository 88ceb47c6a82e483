"""Config precedence, stage fingerprints, and the CLI driving a small
end-to-end pipeline in-process."""

import builtins
import dataclasses
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from vlcurate import cli
from vlcurate.cli import build_parser, main, stage_table
from vlcurate.config import (
    PipelineConfig,
    build_config,
    config_keys,
    fingerprint,
    read_config_file,
    stage_is_current,
    stage_mark_done,
)
from vlcurate.corpus import load_manifest, read_feature_file, read_scores
from vlcurate.errors import BadConfig, VlcurateError
from vlcurate.report import svg_histogram, uplift_stats
from vlcurate.synth import read_oracle

from conftest import StubEndpoint


# ------------------------------------------------------------------ config

def test_defaults():
    cfg = build_config()
    assert cfg.alpha == 200
    assert cfg.k_clusters == 10
    assert cfg.m == 6
    assert cfg.n_subsets == 30
    assert cfg.capacity == 0
    assert cfg.epochs == 20
    assert cfg.lr == 0.01
    assert cfg.selector_kind == "attention"
    assert cfg.optimizer == "adam"
    assert cfg.standardize is True
    assert cfg.provider == "cache"
    assert cfg.synth_n == 3439


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "alpha = 50\n"
        "k_clusters = 4   # trailing comment\n"
        "\n"
        "# full-line comment\n"
        "lr = 0.05\n"
        "standardize = false\n",
        encoding="utf-8",
    )
    cfg = build_config(str(path))
    assert cfg.alpha == 50
    assert cfg.k_clusters == 4
    assert cfg.lr == 0.05
    assert cfg.standardize is False
    # untouched keys keep their defaults
    assert cfg.m == 6


def test_precedence_chain(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("reward_url = http://file.example\n", encoding="utf-8")
    assert build_config(str(path)).reward_url == "http://file.example"
    monkeypatch.setenv("VLCURATE_REWARD_URL", "http://env.example")
    assert build_config(str(path)).reward_url == "http://env.example"
    cfg = build_config(str(path), {"reward_url": "http://flag.example"})
    assert cfg.reward_url == "http://flag.example"


def test_env_only_touches_endpoint_keys(monkeypatch):
    monkeypatch.setenv("VLCURATE_RATING_URL", "http://rate.example")
    monkeypatch.setenv("VLCURATE_API_KEY", "sekrit")
    cfg = build_config()
    assert cfg.rating_url == "http://rate.example"
    assert cfg.api_key == "sekrit"
    # hyperparameters have no environment back door
    assert cfg.alpha == PipelineConfig().alpha


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alhpa = 2\n", encoding="utf-8")
    with pytest.raises(BadConfig) as err:
        read_config_file(path)
    assert "alhpa" in str(err.value)
    with pytest.raises(BadConfig):
        build_config(None, {"bogus": 1})


def test_config_file_parse_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = ten\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        read_config_file(path)
    path.write_text("alpha 10\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        read_config_file(path)
    path.write_text("standardize = maybe\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        read_config_file(path)


def test_bool_coercions(tmp_path):
    for raw, want in (("true", True), ("1", True), ("yes", True),
                      ("false", False), ("0", False), ("no", False)):
        path = tmp_path / "run.cfg"
        path.write_text(f"clustering = {raw}\n", encoding="utf-8")
        assert read_config_file(path)["clustering"] is want


def test_validation_rejects_bad_values():
    for bad in ({"alpha": 0}, {"epochs": 0}, {"lr": 0.0}, {"n_subsets": 1},
                {"selector_kind": "huge"}, {"optimizer": "lion"},
                {"provider": "ftp"}, {"indicator": "vibes"}):
        with pytest.raises(BadConfig):
            build_config(None, bad)


def test_flag_names_are_config_keys():
    # the CLI forwards only recognized keys; spot-check the mapping
    keys = config_keys()
    for name in ("alpha", "k_clusters", "m", "selector_kind", "synth_n",
                 "reducer_mode", "subset_space", "clustering", "standardize"):
        assert name in keys


# ------------------------------------------------------------ fingerprints

def test_fingerprint_tracks_inputs_and_config(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("hello\n", encoding="utf-8")
    base = fingerprint([a], {"k": 1})
    assert base == fingerprint([a], {"k": 1})
    assert base != fingerprint([a], {"k": 2})
    a.write_text("changed\n", encoding="utf-8")
    assert base != fingerprint([a], {"k": 1})


def test_stage_current_roundtrip(tmp_path):
    out = tmp_path / "out.txt"
    assert not stage_is_current(tmp_path, "demo", "abc", [out])
    stage_mark_done(tmp_path, "demo", "abc")
    # fingerprint recorded but the output is missing
    assert not stage_is_current(tmp_path, "demo", "abc", [out])
    out.write_text("x", encoding="utf-8")
    assert stage_is_current(tmp_path, "demo", "abc", [out])
    assert not stage_is_current(tmp_path, "demo", "other", [out])


# ------------------------------------------------------------------ report

def test_svg_histogram_renders():
    rng = np.random.default_rng(0)
    svg = svg_histogram(rng.normal(size=200), bins=12)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 12
    same = svg_histogram(np.random.default_rng(0).normal(size=200), bins=12)
    assert svg == same


def test_uplift_stats_flags_planted_signal():
    ids = [f"s{i}" for i in range(100)]
    oracle = {s: i / 99.0 for i, s in enumerate(ids)}
    stats = uplift_stats(oracle, ids[-10:], ids, seed=0)
    assert stats["alpha"] == 10
    assert stats["uplift"] > 0.3
    assert stats["z"] > 2.0
    assert stats["uplift"] == pytest.approx(
        stats["selected_mean_quality"] - stats["random_mean_quality"], abs=1e-12
    )
    assert len(stats["random_means"]) == 20
    again = uplift_stats(oracle, ids[-10:], ids, seed=0)
    assert stats == again


# --------------------------------------------------------------- CLI usage

def test_cli_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["synth", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_cli_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0\n", encoding="utf-8")
    code = main(["synth", "--config", str(path), "--workdir", str(tmp_path / "w")])
    assert code == 1
    assert "error[BadConfig]" in capsys.readouterr().err


# ------------------------------------------------------------ the pipeline

STAGES = (
    ["synth", "--n", "60", "--seed", "0"],
    ["score"],
    ["embed"],
    ["split", "--n-subsets", "6", "--oracle", "--seed", "0"],
    ["train-selector", "--epochs", "3", "--seed", "0"],
    ["curate", "--alpha", "12", "--clusters", "3", "--seed", "0"],
    ["report", "--seed", "0"],
)


# stage runs whose entries declare other inputs than the default pipeline's
VARIANTS = (
    ["split", "--n-subsets", "6", "--space", "image", "--seed", "0"],
    ["curate", "--alpha", "10", "--indicator", "gpt", "--seed", "0"],
)


def run_stages(work, stages=STAGES):
    for stage in stages:
        assert main([*stage, "--workdir", str(work)]) == 0, stage


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli") / "work"
    run_stages(work)
    return work


def test_pipeline_artifacts_exist(pipeline):
    for rel in (
        "manifest.jsonl",
        "scores.jsonl",
        "oracle.jsonl",
        "features/image.txt",
        "features/text_clip.txt",
        "features/text_llm.txt",
        "embeddings.txt",
        "embedding_bundle/embedding_bundle.json",
        "subsets/subsets.json",
        "eval_reports.jsonl",
        "selector_model/meta.json",
        "selector_model/params.txt",
        "selector_model/losses.json",
        "curated/selected.manifest.jsonl",
        "curated/selection.jsonl",
        "curated/summary.json",
        "curated/report.json",
        "curated/score_hist.svg",
        "curated/cluster_00_scores.svg",
        "curated/cluster_02_scores.svg",
    ):
        assert (pipeline / rel).exists(), rel


def test_pipeline_summary_consistent(pipeline):
    summary = json.loads((pipeline / "curated" / "summary.json").read_text())
    assert summary["alpha"] == 12
    assert summary["k_clusters"] == 3
    assert sum(summary["quotas"]) == 12
    assert sum(summary["cluster_sizes"]) == 60
    assert len(summary["selected_ids"]) == len(set(summary["selected_ids"])) == 12

    manifest = load_manifest(pipeline / "manifest.jsonl")
    ids = [t.id for t in manifest]
    selected = load_manifest(pipeline / "curated" / "selected.manifest.jsonl")
    assert [t.id for t in selected] == summary["selected_ids"]
    # selection preserved in corpus order, records byte-equal to the source
    pos = {s: i for i, s in enumerate(ids)}
    order = [pos[t.id] for t in selected]
    assert order == sorted(order)
    by_id = {t.id: t for t in manifest}
    assert all(by_id[t.id] == t for t in selected)

    picks = [json.loads(line) for line in
             (pipeline / "curated" / "selection.jsonl").read_text().splitlines()]
    assert len(picks) == 12
    per_cluster = {}
    for p in picks:
        per_cluster.setdefault(p["cluster"], []).append(p)
    for cluster, rows in per_cluster.items():
        assert len(rows) == summary["quotas"][cluster]
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)


def test_pipeline_report_consistent(pipeline):
    report = json.loads((pipeline / "curated" / "report.json").read_text())
    assert report["alpha"] == 12
    assert sum(row["quota"] for row in report["quota_table"]) == 12
    assert sum(row["size"] for row in report["quota_table"]) == 60
    comp = report["oracle_comparison"]
    assert comp["z"] == pytest.approx(comp["uplift"] / comp["pooled_se"], rel=1e-9)
    # the stage must agree with a direct recomputation from its inputs
    summary = json.loads((pipeline / "curated" / "summary.json").read_text())
    oracle = read_oracle(pipeline / "oracle.jsonl")
    manifest = load_manifest(pipeline / "manifest.jsonl")
    direct = uplift_stats(oracle, summary["selected_ids"],
                          [t.id for t in manifest], seed=0)
    assert comp == pytest.approx(direct)


def test_pipeline_rerun_is_noop(pipeline, capsys):
    before = (pipeline / "curated" / "selected.manifest.jsonl").read_bytes()
    capsys.readouterr()
    run_stages(pipeline)
    out = capsys.readouterr().out
    assert out.count("up-to-date, skipping") == len(STAGES)
    assert (pipeline / "curated" / "selected.manifest.jsonl").read_bytes() == before


def test_pipeline_param_change_reruns_stage(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    capsys.readouterr()
    assert main(["curate", "--alpha", "9", "--clusters", "3", "--seed", "0",
                 "--workdir", str(work)]) == 0
    out = capsys.readouterr().out
    assert "up-to-date" not in out
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert summary["alpha"] == 9
    assert sum(summary["quotas"]) == 9


def test_pipeline_config_file_drives_curate(pipeline, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 8\nk_clusters = 2\nseed = 0\n", encoding="utf-8")
    assert main(["curate", "--config", str(cfg), "--workdir", str(work)]) == 0
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert summary["alpha"] == 8
    assert summary["k_clusters"] == 2
    # a flag out-ranks the file
    assert main(["curate", "--config", str(cfg), "--alpha", "7",
                 "--workdir", str(work)]) == 0
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert summary["alpha"] == 7


def test_pipeline_indicator_and_no_clustering(pipeline, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    assert main(["curate", "--alpha", "10", "--indicator", "gpt",
                 "--no-clustering", "--seed", "0", "--workdir", str(work)]) == 0
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert summary["quotas"] == [10]
    # ranking by the gpt indicator alone must pick the gpt top-10
    cache = read_scores(work / "scores.jsonl")
    manifest = load_manifest(work / "manifest.jsonl")
    gpt = np.array([cache.records[t.id].gpt for t in manifest])
    want = {manifest[i].id for i in np.argsort(-gpt)[:10]}
    assert set(summary["selected_ids"]) == want


def test_pipeline_no_standardize_keeps_raw_indicators(pipeline, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    assert main(["embed", "--no-standardize", "--workdir", str(work)]) == 0
    rows, dim = read_feature_file(work / "embeddings.txt")
    assert dim == 10
    cache = read_scores(work / "scores.jsonl")
    manifest = load_manifest(work / "manifest.jsonl")
    for t in manifest[:5]:
        rec = cache.records[t.id]
        assert rows[t.id][0] == pytest.approx(rec.clip, abs=1e-12)
        assert rows[t.id][1] == pytest.approx(float(rec.length), abs=1e-12)


def _stage_entry(work, argv):
    """The stage table entry ``main`` would run for argv."""
    args = build_parser().parse_args([*argv, "--workdir", str(work)])
    flags = {k: v for k, v in vars(args).items()
             if k in config_keys() and v is not None}
    return stage_table(build_config(None, flags), args)[args.command]


def test_every_declared_input_is_fingerprinted(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    checked = 0
    for argv in STAGES + VARIANTS:
        for path in _stage_entry(work, argv).inputs:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")   # new bytes, same content to every reader
            capsys.readouterr()
            assert main([*argv, "--workdir", str(work)]) == 0
            out = capsys.readouterr().out
            assert "up-to-date" not in out, (argv[0], path.name)
            checked += 1
    assert checked >= 20


def test_stages_read_only_declared_files(pipeline, tmp_path, monkeypatch):
    """A stage body reads exactly the inputs its entry declares, plus at most
    its own outputs (``score`` reads the cache it refills)."""
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    root = work.resolve()
    opened = []
    in_body = [False]
    real_open = io.open
    real_table = cli.stage_table

    def recording_open(file, mode="r", *args, **kwargs):
        if in_body[0] and isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.append(Path(file).resolve())
        return real_open(file, mode, *args, **kwargs)

    def recorded(body):
        def run(*args):
            in_body[0] = True
            try:
                return body(*args)
            finally:
                in_body[0] = False
        return run

    # record the body's reads only, not the fingerprint's
    monkeypatch.setattr(cli, "stage_table", lambda cfg, args: {
        name: dataclasses.replace(stage, body=recorded(stage.body))
        for name, stage in real_table(cfg, args).items()
    })
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for argv in STAGES + VARIANTS:
        entry = _stage_entry(work, argv)
        (work / ".fingerprints" / f"{argv[0]}.sha256").unlink()
        opened.clear()
        assert main([*argv, "--workdir", str(work)]) == 0
        inputs = {Path(p).resolve() for p in entry.inputs}
        outputs = {Path(p).resolve() for p in entry.outputs}
        read = {p for p in opened if root in p.parents} - outputs
        assert read == inputs, (argv[0], sorted(str(p) for p in read ^ inputs))


def test_score_non_numeric_feature_exits_1(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "4", "--workdir", str(work)]) == 0
    image = work / "features" / "image.txt"
    lines = image.read_text(encoding="utf-8").splitlines()
    row = lines[5].split()
    row[3] = "abc"
    lines[5] = " ".join(row)
    image.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["score", "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert "error[MalformedRecord]" in err
    assert "Traceback" not in err


def _drop_key(key):
    def edit(text):
        blob = json.loads(text)
        del blob[key]
        return json.dumps(blob)
    return edit


def _unknown_member(text):
    blob = json.loads(text)
    blob["subsets"][2]["member_ids"][0] = "no-such-id"
    return json.dumps(blob)


def _drop_member_ids(text):
    blob = json.loads(text)
    del blob["subsets"][1]["member_ids"]
    return json.dumps(blob)


TRAIN = ["train-selector", "--epochs", "3", "--seed", "0"]


@pytest.mark.parametrize("argv,relpath,edit,error", [
    (TRAIN, "subsets/subsets.json", _unknown_member, "MissingFeature"),
    (TRAIN, "subsets/subsets.json", lambda text: text[:-20], "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", _drop_key("subsets"), "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", _drop_member_ids, "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", lambda text: "[]", "MalformedRecord"),
    (["report", "--seed", "0"], "curated/summary.json", lambda text: text[:-20],
     "MalformedRecord"),
    (["report", "--seed", "0"], "curated/summary.json", _drop_key("item_scores"),
     "MalformedRecord"),
], ids=["unknown-member", "subsets-not-json", "no-subsets-key", "no-member-ids",
        "subsets-not-object", "summary-not-json", "no-item-scores-key"])
def test_malformed_stage_input_exits_1(pipeline, tmp_path, capsys, argv, relpath,
                                       edit, error):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    path = work / relpath
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert f"error[{error}]" in err
    assert "Traceback" not in err


def test_score_failure_keeps_paid_scores(tmp_path):
    # the two stubs share one budget: after `paid` answers every call fails
    work = tmp_path / "work"
    n, paid = 30, 7
    assert main(["synth", "--n", str(n), "--seed", "5", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    reward_stub, rating_stub = StubEndpoint(), StubEndpoint()
    served = []

    def budget(reply):
        def handle(payload):
            if len(served) >= paid:
                return 500
            served.append(1)
            return reply
        return handle

    argv = ["score", "--provider", "http", "--reward-url", reward_stub.url,
            "--rating-url", rating_stub.url, "--workdir", str(work)]
    try:
        reward_stub.handler = budget({"score": 0.5})
        rating_stub.handler = budget({"content": "66"})
        assert main(argv) == 1
        cache = read_scores(work / "scores.jsonl")
        fetched = sum((r.reward is not None) + (r.gpt is not None)
                      for r in cache.records.values())
        assert fetched == paid
        reward_stub.requests.clear()
        rating_stub.requests.clear()
        reward_stub.handler = lambda payload: {"score": 0.5}
        rating_stub.handler = lambda payload: {"content": "66"}
        assert main(argv) == 0
        assert len(reward_stub.requests) + len(rating_stub.requests) == 2 * n - paid
        assert all(r.complete() for r in read_scores(work / "scores.jsonl").records.values())
    finally:
        reward_stub.close()
        rating_stub.close()


def test_score_without_provider_exits_1(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "1", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    code = main(["score", "--workdir", str(work)])
    assert code == 1
    assert "error[MissingScore]" in capsys.readouterr().err


def test_score_http_provider_fills_cache(tmp_path):
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "2", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    reward_stub, rating_stub = StubEndpoint(), StubEndpoint()
    try:
        reward_stub.handler = lambda payload: {"score": 0.5}
        rating_stub.handler = lambda payload: {"content": "66"}
        assert main(["score", "--provider", "http",
                     "--reward-url", reward_stub.url,
                     "--rating-url", rating_stub.url,
                     "--workdir", str(work)]) == 0
        cache = read_scores(work / "scores.jsonl")
        manifest = load_manifest(work / "manifest.jsonl")
        assert len(reward_stub.requests) == 30
        assert len(rating_stub.requests) == 30
        assert set(reward_stub.requests[0]["payload"]) == {"question", "answer"}
        for t in manifest:
            assert cache.records[t.id].reward == 0.5
            assert cache.records[t.id].gpt == 66.0
            assert cache.records[t.id].clip is not None
    finally:
        reward_stub.close()
        rating_stub.close()


def test_score_endpoints_from_environment(tmp_path, monkeypatch):
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "3", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    reward_stub, rating_stub = StubEndpoint(), StubEndpoint()
    try:
        reward_stub.handler = lambda payload: {"score": -1.0}
        rating_stub.handler = lambda payload: {"content": "12.5"}
        monkeypatch.setenv("VLCURATE_REWARD_URL", reward_stub.url)
        monkeypatch.setenv("VLCURATE_RATING_URL", rating_stub.url)
        monkeypatch.setenv("VLCURATE_API_KEY", "sekrit")
        assert main(["score", "--provider", "http", "--workdir", str(work)]) == 0
        assert reward_stub.requests[0]["headers"].get("Authorization") == "Bearer sekrit"
        cache = read_scores(work / "scores.jsonl")
        assert all(rec.gpt == 12.5 for rec in cache.records.values())
    finally:
        reward_stub.close()
        rating_stub.close()
