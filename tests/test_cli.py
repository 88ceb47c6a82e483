"""Config precedence, stage fingerprints, and the CLI driving a small
end-to-end pipeline in-process."""

import builtins
import dataclasses
import io
import json
import os
import re
import shutil
import tracemalloc
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from vlcurate import cli
from vlcurate import config as config_mod
from vlcurate import corpus as corpus_mod
from vlcurate import numerics
from vlcurate.cli import build_parser, main, stage_table
from vlcurate.config import (
    PipelineConfig,
    build_config,
    config_keys,
    fingerprint,
    read_config_file,
    rerun_reason,
    stage_mark_done,
)
from vlcurate.corpus import (
    ScoreCache,
    ScoreRecord,
    hash_file,
    load_manifest,
    read_feature_file,
    read_json,
    read_scores,
    write_feature_file,
    write_jsonl,
    write_manifest,
    write_scores,
)
from vlcurate.errors import BadConfig, VlcurateError
from vlcurate.numerics import spearman
from vlcurate.report import svg_histogram, uplift_stats
from vlcurate.synth import generate, read_oracle

from conftest import StubEndpoint, feature_text, make_manifest


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

def test_fingerprint_value_is_pinned(tmp_path):
    # the digests whole-file hashing gives: chunked reads must feed the same
    # bytes in the same order, and a config value's digest must keep its
    # form, so that existing workdirs stay current
    (tmp_path / "b.txt").write_bytes(b"hello\n")
    (tmp_path / "a.bin").write_bytes(bytes(range(256)) * 5000)   # > one 1 MiB chunk
    big = "7d471e4af16db5a30ce10aebbc29f5178b2edbad6c7dc2e8ff8ee6e4848a726f"
    assert hash_file(tmp_path / "a.bin") == big
    assert fingerprint([tmp_path / "b.txt", tmp_path / "a.bin"], {"m": 6, "seed": 0}) == (
        {tmp_path / "b.txt": "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03",
         tmp_path / "a.bin": big},
        {"m": "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
         "seed": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"})


def test_fingerprint_tracks_inputs_and_config(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("hello\n", encoding="utf-8")
    base = fingerprint([a], {"k": 1})
    assert base == fingerprint([a], {"k": 1})
    assert base != fingerprint([a], {"k": 2})
    a.write_text("changed\n", encoding="utf-8")
    assert base != fingerprint([a], {"k": 1})


def test_stage_current_roundtrip(tmp_path):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("a", encoding="utf-8")
    value = fingerprint([src], {"k": 1})
    assert rerun_reason(tmp_path, "demo", value, [out]) == "there is no record"
    stage_mark_done(tmp_path, "demo", value)
    # fingerprint recorded but the output is missing
    assert rerun_reason(tmp_path, "demo", value, [out]) == "output out.txt is missing"
    out.write_text("x", encoding="utf-8")
    assert rerun_reason(tmp_path, "demo", value, [out]) is None
    assert rerun_reason(tmp_path, "demo", fingerprint([src], {"k": 2}), [out]) == (
        "config k changed")
    assert rerun_reason(tmp_path, "demo", fingerprint([src], {"k": 1, "j": 0}), [out]) == (
        "config j changed")
    src.write_text("b", encoding="utf-8")
    assert rerun_reason(tmp_path, "demo", fingerprint([src], {"k": 1}), [out]) == (
        "input in.txt changed")
    assert rerun_reason(tmp_path, "demo", fingerprint([], {"k": 1}), [out]) == (
        "input in.txt changed")


def test_stage_current_checks_output_digests(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("x", encoding="utf-8")
    value = fingerprint([], {})
    stage_mark_done(tmp_path, "demo", value, [out])
    assert rerun_reason(tmp_path, "demo", value, [out]) is None
    out.write_text("y", encoding="utf-8")
    assert rerun_reason(tmp_path, "demo", value, [out]) == "output out.txt changed"
    # records in the older formats rerun their stage once
    record = tmp_path / ".fingerprints" / "demo.sha256"
    for old in ("abc\n", json.dumps({"fingerprint": "abc", "outputs": {}})):
        record.write_text(old, encoding="utf-8")
        assert rerun_reason(tmp_path, "demo", value, [out]) == "the record is old or unreadable"


def test_record_holds_digests_not_config_values(tmp_path):
    # a provider URL may carry a credential in its query string
    src = tmp_path / "in.txt"
    src.write_text("a", encoding="utf-8")
    value = fingerprint([src], {"reward_url": "http://x.example/r?key=sekrit"})
    stage_mark_done(tmp_path, "demo", value, [src])
    text = (tmp_path / ".fingerprints" / "demo.sha256").read_text(encoding="utf-8")
    assert "sekrit" not in text
    assert json.loads(text) == {"inputs": {"in.txt": hash_file(src)},
                                "config": value.config,
                                "outputs": {"in.txt": hash_file(src)}}


# ------------------------------------------------------------------ report

def test_svg_histogram_renders():
    rng = np.random.default_rng(0)
    svg = svg_histogram(rng.normal(size=200), bins=12)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 12
    same = svg_histogram(np.random.default_rng(0).normal(size=200), bins=12)
    assert svg == same


@pytest.mark.parametrize("values", [np.zeros(40), np.full(3, -2.5), np.zeros(0)],
                         ids=["zeros", "constant", "empty"])
def test_svg_histogram_renders_constant_values(values):
    # an untrained selector scores every sample 0.0
    svg = svg_histogram(values, bins=4)
    lo = values[0] if values.size else 0.0
    bars = re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="([^"]*)"', svg)
    assert bars == [f"{190.0 if values.size else 0.0:.2f}"] + ["0.00"] * 3
    labels = re.findall(r'font-size="10">([^<]*)<', svg)
    assert labels == [f"{lo:.3g}", f"{lo + 0.5:.3g}", f"{lo + 1:.3g}",
                      str(max(values.size, 1))]


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


def test_uplift_stats_of_one_pick_and_of_no_spread():
    ids = [f"s{i}" for i in range(30)]
    oracle = {s: i / 29.0 for i, s in enumerate(ids)}
    one = uplift_stats(oracle, ids[-1:], ids, seed=0)
    # one pick has no spread of its own: only the random means' counts
    assert one["pooled_se"] == pytest.approx(np.std(one["random_means"], ddof=1))
    assert one["z"] == pytest.approx(one["uplift"] / one["pooled_se"])
    flat = uplift_stats(dict.fromkeys(ids, 0.5), ids[:3], ids, seed=0)
    assert flat["pooled_se"] == 0.0
    assert flat["uplift"] == 0.0
    assert flat["z"] is None


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
        "subsets/subsets.json",
        "eval_reports.jsonl",
        "selector_model/meta.json",
        "selector_model/params.txt",
        "selector_model/losses.json",
        "curated/selected.manifest.jsonl",
        "curated/selection.jsonl",
        "curated/summary.json",
        "curated/report.json",
        "curated/scores.svg",
    ):
        assert (pipeline / rel).exists(), rel
    assert not (pipeline / "embedding_bundle").exists()


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
    direct["spearman_q"] = spearman(np.array(summary["item_scores"]),
                                    np.array([oracle[t.id] for t in manifest]))
    assert comp == pytest.approx(direct)


def test_report_on_one_pick_writes_finite_json(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    capsys.readouterr()
    assert main(["curate", "--alpha", "1", "--clusters", "1", "--seed", "0",
                 "--workdir", str(work)]) == 0
    assert main([*REPORT, "--workdir", str(work)]) == 0
    comp = read_json(work / "curated" / "report.json")["oracle_comparison"]
    assert comp["alpha"] == 1
    assert comp["z"] == pytest.approx(comp["uplift"] / comp["pooled_se"], rel=1e-9)
    assert f"z={comp['z']:.1f} (" in capsys.readouterr().out


def test_report_of_zero_pooled_se_logs_null_z(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    write_jsonl(work / "oracle.jsonl", ({"id": sample_id, "q": 0.5}
                                        for sample_id in read_oracle(work / "oracle.jsonl")))
    capsys.readouterr()
    assert main([*REPORT, "--workdir", str(work)]) == 0
    assert "uplift=0.0000 z=null (" in capsys.readouterr().out
    comp = read_json(work / "curated" / "report.json")["oracle_comparison"]
    assert comp["pooled_se"] == 0.0
    assert comp["z"] is None


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


@pytest.mark.parametrize("kind", ["linear", "mlp", "attention"])
def test_train_each_kind_then_curate(pipeline, tmp_path, kind):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    assert main([*TRAIN, "--kind", kind, "--workdir", str(work)]) == 0
    meta = json.loads((work / "selector_model" / "meta.json").read_text())
    assert meta["kind"] == kind
    assert main([*CURATE, "--workdir", str(work)]) == 0
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert sum(summary["quotas"]) == 12


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
    gpt = np.array([cache[t.id].gpt for t in manifest])
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
        rec = cache[t.id]
        assert rows[t.id][0] == pytest.approx(rec.clip, abs=1e-12)
        assert rows[t.id][1] == pytest.approx(float(rec.length), abs=1e-12)


def _stage_entry(work, argv):
    """The stage table entry ``main`` would run for argv."""
    args = build_parser().parse_args([*argv, "--workdir", str(work)])
    flags = {k: v for k, v in vars(args).items()
             if k in config_keys() and v is not None}
    return stage_table(build_config(None, flags))[args.command]


def test_pipeline_without_twins_writes_the_same_bytes(pipeline, tmp_path):
    """The twins in .matrices/ only save parsing: a run that deletes them
    before every stage writes the same curated set and embeddings."""
    work = tmp_path / "work"
    for stage in STAGES:
        shutil.rmtree(work / ".matrices", ignore_errors=True)
        assert main([*stage, "--workdir", str(work)]) == 0, stage
    curated = sorted(p.relative_to(pipeline) for p in (pipeline / "curated").rglob("*"))
    assert curated == sorted(p.relative_to(work) for p in (work / "curated").rglob("*"))
    for rel in [Path("embeddings.txt"), *curated]:
        assert (work / rel).read_bytes() == (pipeline / rel).read_bytes(), rel


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


_TWIN = re.compile(r"(.+)\.([0-9a-f]{64})(?:\.ids)?\.npy")


def test_stages_read_only_declared_files(pipeline, tmp_path, monkeypatch):
    """A stage body reads exactly the inputs its entry declares, plus at most
    its own outputs (``score`` reads the cache it refills). Reading the
    twin ``.matrices/<stem>.<sha256>.*`` counts as reading the text file of
    that stem whose bytes hash to ``<sha256>``, so reading the twin of an
    undeclared file still fails."""
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    root = work.resolve()
    store = root / ".matrices"
    opened = []

    def as_text(path):
        match = _TWIN.fullmatch(path.name)
        if path.parent != store or match is None:
            return path
        texts = [p for p in root.rglob("*") if p.is_file() and p.parent != store
                 and p.stem == match[1] and hash_file(p) == match[2]]
        return texts[0] if len(texts) == 1 else path

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
    monkeypatch.setattr(cli, "stage_table", lambda cfg: {
        name: dataclasses.replace(stage, body=recorded(stage.body))
        for name, stage in real_table(cfg).items()
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
        read = {as_text(p) for p in opened if root in p.parents} - outputs
        assert read == inputs, (argv[0], sorted(str(p) for p in read ^ inputs))


@pytest.mark.parametrize("argv", VARIANTS, ids=["split-image", "curate-indicator"])
def test_variant_without_embeddings_skips_after_re_embed(pipeline, tmp_path, capsys, argv):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    assert main([*argv, "--workdir", str(work)]) == 0
    assert main(["embed", "--feature-size", "4", "--workdir", str(work)]) == 0
    capsys.readouterr()
    assert main([*argv, "--workdir", str(work)]) == 0
    assert f"[{argv[0]}] up-to-date, skipping" in capsys.readouterr().out


def test_rerun_line_names_what_changed(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    with open(work / "scores.jsonl", "a", encoding="utf-8") as fh:
        fh.write("\n")
    capsys.readouterr()
    assert main(["embed", "--workdir", str(work)]) == 0
    assert re.fullmatch(r"\[embed\] embedded 60 samples, dim 10 \(\d+\.\d\ds\), "
                        r"ran because input scores\.jsonl changed\n", capsys.readouterr().out)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 9\n", encoding="utf-8")
    assert main(["curate", "--config", str(cfg), "--clusters", "3", "--seed", "0",
                 "--workdir", str(work)]) == 0
    assert capsys.readouterr().out.endswith(", ran because config alpha changed\n")


def test_synth_writes_the_configured_paths(tmp_path, capsys):
    """``manifest``, ``oracle``, ``scores`` and ``features_dir`` may name
    files outside the workdir; ``synth`` writes them there and the later
    stages read them there."""
    away = tmp_path / "away"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {away}/m.jsonl\noracle = {away}/q/o.jsonl\n"
                   f"scores = {away}/s/s.jsonl\nfeatures_dir = {away}/f\n", encoding="utf-8")
    work = tmp_path / "work"
    stages = (["synth", "--n", "40", "--seed", "0"], ["score"], ["embed"])
    for argv in stages:
        assert main([*argv, "--config", str(cfg), "--workdir", str(work)]) == 0, argv
    assert sorted(p.relative_to(away).as_posix() for p in away.rglob("*.*")) == [
        "f/image.txt", "f/text_clip.txt", "f/text_llm.txt", "m.jsonl", "q/o.jsonl",
        "s/s.jsonl"]
    assert sorted(p.name for p in work.iterdir()) == [
        ".fingerprints", ".matrices", "embeddings.txt"]
    capsys.readouterr()
    for argv in stages:
        assert main([*argv, "--config", str(cfg), "--workdir", str(work)]) == 0, argv
    assert capsys.readouterr().out.count("up-to-date, skipping") == len(stages)


def _stamps(work):
    """(inode, mtime) of each file under ``work`` outside the fingerprint
    records and the twin store."""
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in work.rglob("*")
            if p.is_file() and p.relative_to(work).parts[0] not in (".fingerprints", ".matrices")}


def test_every_written_file_is_declared(tmp_path):
    """A stage body writes only its declared outputs."""
    work = tmp_path / "work"
    for argv in STAGES + VARIANTS:
        entry = _stage_entry(work, argv)
        before = _stamps(work)
        assert main([*argv, "--workdir", str(work)]) == 0, argv
        written = {p for p, stamp in _stamps(work).items() if before.get(p) != stamp}
        declared = {Path(p) for p in [*entry.outputs, *entry.handed_on]}
        assert written and written <= declared, (
            argv[0], sorted(str(p.relative_to(work)) for p in written - declared))


def test_deleting_a_declared_output_reruns_its_stage(pipeline, tmp_path, capsys):
    checked = 0
    for argv in STAGES:
        entry = _stage_entry(pipeline, argv)
        for index, path in enumerate([*entry.outputs, *entry.handed_on]):
            work = tmp_path / f"{argv[0]}-{index}"
            shutil.copytree(pipeline, work)
            lost = work / Path(path).relative_to(pipeline)
            lost.unlink()
            capsys.readouterr()
            code = main([*argv, "--workdir", str(work)])
            out, err = capsys.readouterr()
            assert "up-to-date" not in out, (argv[0], lost)
            if argv[0] == "score":   # the cache provider cannot fetch scores again
                assert code == 1 and "error[MissingScore]" in err
                continue
            key = lost.relative_to(work).as_posix()
            assert code == 0 and f"ran because output {key} is missing" in out
            assert lost.exists()
            checked += 1
    assert checked >= 20


def test_report_draws_every_histogram_as_a_panel_of_one_svg(pipeline, tmp_path, capsys):
    """``scores.svg`` nests the corpus histogram and then one per cluster,
    titled with the cluster's size and quota, for any cluster count; deleting
    it reruns ``report``."""
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    for k in (3, 2):
        assert main(["curate", "--alpha", "12", "--clusters", str(k), "--seed", "0",
                     "--workdir", str(work)]) == 0
        assert main([*REPORT, "--workdir", str(work)]) == 0
        root = ElementTree.parse(work / "curated" / "scores.svg").getroot()
        panels = root.findall("{http://www.w3.org/2000/svg}svg")
        assert len(panels) == k + 1
        assert [panel.get("y") for panel in panels] == [str(260 * i) for i in range(k + 1)]
        titles = [panel.find("{http://www.w3.org/2000/svg}text").text for panel in panels]
        table = read_json(work / "curated" / "report.json")["quota_table"]
        assert titles == ["selector scores, full corpus", *(
            f"cluster {row['cluster']}: {row['size']} samples, quota {row['quota']}"
            for row in table)]
    assert sorted(p.name for p in (work / "curated").glob("*.svg")) == ["scores.svg"]
    (work / "curated" / "scores.svg").unlink()
    capsys.readouterr()
    assert main([*REPORT, "--workdir", str(work)]) == 0
    assert "ran because output curated/scores.svg is missing" in capsys.readouterr().out
    assert (work / "curated" / "scores.svg").exists()


def test_checking_stages_reads_no_summary(pipeline, tmp_path, monkeypatch, capsys):
    """Every stage's declaration comes from the config alone: checking a
    finished workdir's stages before ``report`` opens ``summary.json`` only
    to hash it as ``curate``'s output, never as text to parse."""
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    summary = (work / "curated" / "summary.json").resolve()
    opened = []
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append((Path(file).resolve(), "b" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    capsys.readouterr()
    run_stages(work, STAGES[:-1])
    assert capsys.readouterr().out.count("up-to-date, skipping") == len(STAGES) - 1
    assert (summary, True) in opened and (summary, False) not in opened


def test_oracle_reports_from_config_file_equals_the_flag(pipeline, tmp_path):
    """``oracle_reports = true`` in a config file and ``split --oracle``
    write the same bytes, record included, under the record key ``oracle``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle_reports = true\n", encoding="utf-8")
    runs = {}
    for name, extra in (("flag", ["--oracle"]), ("file", ["--config", str(cfg)])):
        work = tmp_path / name
        shutil.copytree(pipeline, work)
        shutil.rmtree(work / "subsets")
        (work / "eval_reports.jsonl").unlink()
        (work / ".fingerprints" / "split.sha256").unlink()
        assert main(["split", "--n-subsets", "6", "--seed", "0", *extra,
                     "--workdir", str(work)]) == 0
        runs[name] = {p.relative_to(work): p.read_bytes() for p in work.rglob("*")
                      if p.is_file()}
    assert runs["flag"] == runs["file"]
    record = read_json(tmp_path / "file" / ".fingerprints" / "split.sha256")
    assert set(record["config"]) == {"n_subsets", "capacity", "seed", "subset_space",
                                     "oracle"}
    assert "eval_reports.jsonl" in record["outputs"]


def test_each_file_is_hashed_once_per_stage(tmp_path, monkeypatch):
    """``embed`` hashes each declared input once, in its fingerprint, and its
    output once, for its record; the feature reads reuse the inputs' digests.
    A twin miss hashes the feature file once more, after the parse."""
    work = tmp_path / "work"
    run_stages(work, STAGES[:2])
    hashed = []
    real = corpus_mod.hash_file

    def counting(path):
        hashed.append((Path(path).resolve(), Path(path).stat().st_size))
        return real(path)

    for module in (config_mod, corpus_mod):
        monkeypatch.setattr(module, "hash_file", counting)
    entry = _stage_entry(work, ["embed"])
    inputs = [Path(p).resolve() for p in entry.inputs]
    [output] = [Path(p).resolve() for p in entry.outputs]
    features = [p for p in inputs if p.parent.name == "features"]
    assert len(features) == 2
    for misses in ([], features):
        hashed.clear()
        assert main(["embed", "--workdir", str(work)]) == 0
        want = [*inputs, *misses, output]
        assert Counter(p for p, _ in hashed) == Counter(want)
        assert sum(size for _, size in hashed) == sum(p.stat().st_size for p in want)
        # the next run: no record and no twins
        shutil.rmtree(work / ".matrices")
        (work / ".fingerprints" / "embed.sha256").unlink()


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


def test_train_selector_whose_loss_rises_exits_1(tmp_path, capsys):
    """Features scaled by 1e150 make the first update overshoot: the loss
    rises above the zero-head selector's and training stops there, before
    any overflow, leaving no model."""
    work = tmp_path / "work"
    assert main(["synth", "--n", "60", "--seed", "0", "--workdir", str(work)]) == 0
    for name in ("image", "text_llm"):
        path = work / "features" / f"{name}.txt"
        rows, _ = read_feature_file(path)
        write_feature_file(path, list(rows), np.array(list(rows.values())) * 1e150,
                           work / ".matrices")
    run_stages(work, (["score"], ["embed"], ["split", "--n-subsets", "6", "--oracle"]))
    capsys.readouterr()
    assert main(["train-selector", "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error\[DivergedTraining\]: loss rose from 145\.231 to "
                        r"\S+e\+\d+ at epoch 1\n", err), err
    assert not (work / "selector_model" / "params.txt").exists()


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


def _drop_line(line_no):
    def edit(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:line_no - 1] + lines[line_no:])
    return edit


def _bogus_selected(text):
    blob = json.loads(text)
    blob["selected_ids"][0] = "bogus"
    return json.dumps(blob)


def _set_key(key, value):
    def edit(text):
        blob = json.loads(text)
        blob[key] = value
        return json.dumps(blob)
    return edit


DEEP = "[" * 100_000          # nesting deeper than any JSON decoder recurses
BIG_INT = "1" + "0" * 5000    # more digits than int() converts from text


def _deep_line(line_no):
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[line_no - 1] = DEEP + "\n"
        return "".join(lines)
    return edit


def _big_int(text):
    """The file's first object gains a 5000-digit integer field."""
    return text.replace("{", '{"big": ' + BIG_INT + ", ", 1)


def _sub(pattern, repl):
    def edit(text):
        return re.sub(pattern, repl, text, count=1)
    return edit


SPLIT = ["split", "--n-subsets", "6", "--oracle", "--seed", "0"]
TRAIN = ["train-selector", "--epochs", "3", "--seed", "0"]
CURATE = ["curate", "--alpha", "12", "--clusters", "3", "--seed", "0"]
REPORT = ["report", "--seed", "0"]


def _tree(work):
    return {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv,relpath,edit,error", [
    (TRAIN, "subsets/subsets.json", _unknown_member, "MissingFeature"),
    (TRAIN, "subsets/subsets.json", lambda text: text[:-20], "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", _drop_key("subsets"), "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", _drop_member_ids, "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", lambda text: "[]", "MalformedRecord"),
    (REPORT, "curated/summary.json", lambda text: text[:-20], "MalformedRecord"),
    (REPORT, "curated/summary.json", _drop_key("item_scores"), "MalformedRecord"),
    (REPORT, "curated/summary.json", _set_key("k_clusters", "3"), "MalformedRecord"),
    (REPORT, "curated/summary.json", _bogus_selected, "MalformedRecord"),
    (REPORT, "oracle.jsonl", _drop_line(5), "MalformedRecord"),
    (CURATE, "selector_model/meta.json", lambda text: "[]", "ModelLoadError"),
    (["score"], "manifest.jsonl", _deep_line(3), "MalformedRecord"),
    (["score"], "manifest.jsonl", _big_int, "MalformedRecord"),
    (["embed"], "scores.jsonl", _deep_line(3), "MalformedRecord"),
    (["embed"], "scores.jsonl", _big_int, "MalformedRecord"),
    (SPLIT, "oracle.jsonl", _deep_line(3), "MalformedRecord"),
    (SPLIT, "oracle.jsonl", _big_int, "MalformedRecord"),
    (SPLIT, "oracle.jsonl", _drop_line(5), "MalformedRecord"),
    (REPORT, "oracle.jsonl", _deep_line(3), "MalformedRecord"),
    (REPORT, "oracle.jsonl", _big_int, "MalformedRecord"),
    (REPORT, "oracle.jsonl", _sub(r'"q": [^}]*', '"q": NaN'), "MalformedRecord"),
    (REPORT, "oracle.jsonl", _sub(r'"q": [^}]*', '"q": "nan"'), "MalformedRecord"),
    (TRAIN, "eval_reports.jsonl", _deep_line(3), "MalformedRecord"),
    (TRAIN, "eval_reports.jsonl", _big_int, "MalformedRecord"),
    (TRAIN, "eval_reports.jsonl", _sub(r'(_gain": )[^,}]*', r"\1NaN"), "MalformedRecord"),
    (TRAIN, "eval_reports.jsonl", _sub(r'(_gain": )[^,}]*', r"\g<1>1e999"),
     "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", lambda text: DEEP, "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", _big_int, "MalformedRecord"),
    (REPORT, "curated/summary.json", lambda text: DEEP, "MalformedRecord"),
    (REPORT, "curated/summary.json", _big_int, "MalformedRecord"),
    (REPORT, "curated/summary.json", _set_key("cluster_sizes", {}), "MalformedRecord"),
    (REPORT, "curated/summary.json", _set_key("item_scores", ["nan"]), "MalformedRecord"),
    (REPORT, "curated/summary.json", _set_key("k_clusters", 10**12), "MalformedRecord"),
    (CURATE, "selector_model/meta.json", lambda text: DEEP, "ModelLoadError"),
    (CURATE, "selector_model/meta.json", _big_int, "ModelLoadError"),
    (CURATE, "selector_model/meta.json", _set_key("layers", 10**15), "ModelLoadError"),
    (["score"], "manifest.jsonl", _sub(r'"id": "[^"]*"', '"id": ""'), "MalformedRecord"),
    (CURATE, "selector_model/meta.json", _drop_key("d_model"), "ModelLoadError"),
    (REPORT, "curated/summary.json", _set_key("selected_ids", []), "MalformedRecord"),
], ids=["unknown-member", "subsets-not-json", "no-subsets-key", "no-member-ids",
        "subsets-not-object", "summary-not-json", "no-item-scores-key",
        "summary-field-type", "selected-id-unknown", "oracle-lacks-id",
        "meta-not-object", "manifest-deep", "manifest-big-int", "scores-deep",
        "scores-big-int", "split-oracle-deep", "split-oracle-big-int",
        "split-oracle-lacks-id", "oracle-deep", "oracle-big-int", "oracle-nan",
        "oracle-nan-string", "eval-reports-deep", "eval-reports-big-int",
        "eval-reports-nan", "eval-reports-overflow", "subsets-deep", "subsets-big-int",
        "summary-deep", "summary-big-int", "summary-sizes-not-list", "summary-nan-string", "summary-k-huge",
        "meta-deep",
        "meta-big-int", "meta-layers-huge", "manifest-empty-id", "meta-no-d-model",
        "summary-no-picks"])
def test_malformed_stage_input_exits_1(pipeline, tmp_path, capsys, argv, relpath,
                                       edit, error):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    path = work / relpath
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    before = _tree(work)
    capsys.readouterr()
    assert main([*argv, "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert f"error[{error}]" in err
    assert "Traceback" not in err
    assert _tree(work) == before   # the failed stage wrote nothing


@pytest.mark.parametrize("argv,relpath,error", [
    (["score"], "manifest.jsonl", "MalformedRecord"),
    (["score"], "features/image.txt", "MalformedRecord"),
    (["embed"], "scores.jsonl", "MalformedRecord"),
    (TRAIN, "subsets/subsets.json", "MalformedRecord"),
    (TRAIN, "eval_reports.jsonl", "MalformedRecord"),
    (REPORT, "oracle.jsonl", "MalformedRecord"),
    (REPORT, "curated/summary.json", "MalformedRecord"),
    ([*REPORT, "--config", "{work}/run.cfg"], "run.cfg", "BadConfig"),
    (SPLIT, "oracle.jsonl", "MalformedRecord"),
    (CURATE, "selector_model/meta.json", "ModelLoadError"),
], ids=["manifest", "image-features", "scores", "subsets", "eval-reports", "oracle",
        "summary", "config", "split-oracle", "meta"])
def test_non_utf8_input_exits_1(pipeline, tmp_path, capsys, argv, relpath, error):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    path = work / relpath
    path.write_bytes((path.read_bytes() if path.exists() else b"seed = 0\n") + b"\xff\n")
    before = _tree(work)
    capsys.readouterr()
    assert main([*(a.format(work=work) for a in argv), "--workdir", str(work)]) == 1
    err = capsys.readouterr().err
    assert f"error[{error}]" in err
    assert f"{path.name}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert _tree(work) == before   # the failed stage wrote nothing


@pytest.mark.parametrize("garbage", [
    b"", b"\xff\xfe", DEEP.encode(), b'{"fingerprint": ' + BIG_INT.encode() + b"}",
    b"[]", b'{"fingerprint": null}', b'{"fingerprint": "x", "outputs": []}',
    b'{"inputs": [], "config": {}, "outputs": {}}',
    b'{"inputs": {}, "config": null, "outputs": {}}',
    b'{"inputs": {}, "config": {}}',
    b'{"inputs": {}, "config": {}, "outputs": {}}',
    b'{"inputs": {"manifest.jsonl": 1}, "config": {"seed": [0]}, "outputs": {}}',
    b'{"inputs": {"manifest.jsonl": {"a": ' + BIG_INT.encode() + b'}}, "config": {}, '
    b'"outputs": {}}',
], ids=["empty", "non-utf8", "deep", "big-int", "not-object", "no-outputs",
        "outputs-not-object", "inputs-not-object", "config-null", "no-outputs-map",
        "empty-maps", "digests-not-strings", "digest-big-int"])
def test_garbage_fingerprint_record_reruns_stage(pipeline, tmp_path, capsys, garbage):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    record = work / ".fingerprints" / "report.sha256"
    record.write_bytes(garbage)
    capsys.readouterr()
    assert main([*REPORT, "--workdir", str(work)]) == 0
    out = capsys.readouterr().out
    assert "[report] wrote" in out and "up-to-date" not in out
    assert "ran because " in out
    assert main([*REPORT, "--workdir", str(work)]) == 0
    assert "[report] up-to-date, skipping" in capsys.readouterr().out


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
                      for r in cache.values())
        assert fetched == paid
        reward_stub.received.clear()
        rating_stub.received.clear()
        reward_stub.handler = lambda payload: {"score": 0.5}
        rating_stub.handler = lambda payload: {"content": "66"}
        assert main(argv) == 0
        assert len(reward_stub.received) + len(rating_stub.received) == 2 * n - paid
        assert all(r.missing() is None for r in read_scores(work / "scores.jsonl").values())
    finally:
        reward_stub.close()
        rating_stub.close()


def test_score_reruns_after_cache_gutted(tmp_path, capsys):
    # the score cache is both the stage's input and its output: deleting one
    # score must make `score` run again, fetching only what is missing
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "4", "--workdir", str(work)]) == 0
    reward_stub, rating_stub = StubEndpoint(), StubEndpoint()
    argv = ["score", "--provider", "http", "--reward-url", reward_stub.url,
            "--rating-url", rating_stub.url, "--workdir", str(work)]
    try:
        reward_stub.handler = lambda payload: {"score": 0.5}
        rating_stub.handler = lambda payload: {"content": "66"}
        assert main(argv) == 0
        assert main(argv) == 0
        assert reward_stub.received == rating_stub.received == []
        path = work / "scores.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        gutted = rows[3]["id"]
        del rows[3]["gpt"]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 0
        assert "up-to-date" not in capsys.readouterr().out
        assert reward_stub.received == []
        assert len(rating_stub.received) == 1
        assert read_scores(path)[gutted].gpt == 66.0
        assert main(["embed", "--workdir", str(work)]) == 0
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


@pytest.mark.parametrize("flag", ["--reward-url", "--rating-url"])
@pytest.mark.parametrize("url", ["", "ftp://x/r", "localhost:9/r"],
                         ids=["empty", "ftp", "no-scheme"])
def test_score_bad_provider_url_exits_1(tmp_path, capsys, flag, url):
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "1", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    before = _tree(work)
    stub = StubEndpoint()
    urls = {"--reward-url": stub.url, "--rating-url": stub.url, flag: url}
    try:
        capsys.readouterr()
        code = main(["score", "--provider", "http", *(a for kv in urls.items() for a in kv),
                     "--workdir", str(work)])
    finally:
        stub.close()
    assert code == 1
    err = capsys.readouterr().err
    assert "error[BadConfig]" in err and "Traceback" not in err
    assert stub.received == [] and stub.connections == 0
    assert _tree(work) == before   # no score cache, no fingerprint


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
        assert len(reward_stub.received) == 30
        assert len(rating_stub.received) == 30
        assert set(reward_stub.received[0]["payload"]) == {"question", "answer"}
        for t in manifest:
            assert cache[t.id].reward == 0.5
            assert cache[t.id].gpt == 66.0
            assert cache[t.id].clip is not None
    finally:
        reward_stub.close()
        rating_stub.close()


def test_score_provider_flags_keep_a_scored_cache_current(tmp_path, capsys):
    # a cached score is never fetched again, so neither the worker count nor
    # the provider and its URLs can change scores.jsonl
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "2", "--workdir", str(work)]) == 0
    assert main(["score", "--workdir", str(work)]) == 0
    stub = StubEndpoint()
    http = ["--provider", "http", "--reward-url", stub.url, "--rating-url", stub.url]
    try:
        for flags in (["--workers", "3"], http, [*http, "--workers", "4"]):
            capsys.readouterr()
            assert main(["score", *flags, "--workdir", str(work)]) == 0
            assert "[score] up-to-date, skipping" in capsys.readouterr().out, flags
    finally:
        stub.close()
    assert stub.received == [] and stub.connections == 0


def test_score_record_with_provider_config_reruns_once_without_calls(tmp_path, capsys):
    # a record of an earlier release fingerprints provider, both URLs and workers
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "2", "--workdir", str(work)]) == 0
    assert main(["score", "--workdir", str(work)]) == 0
    path = work / ".fingerprints" / "score.sha256"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["config"] == {}
    record["config"] = fingerprint([], {"provider": "cache", "reward_url": "",
                                        "rating_url": "", "workers": 1}).config
    path.write_text(json.dumps(record), encoding="utf-8")
    scores = (work / "scores.jsonl").read_bytes()
    stub = StubEndpoint()
    argv = ["score", "--provider", "http", "--reward-url", stub.url,
            "--rating-url", stub.url, "--workdir", str(work)]
    try:
        capsys.readouterr()
        assert main(argv) == 0
        assert "ran because config provider changed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "[score] up-to-date, skipping" in capsys.readouterr().out
    finally:
        stub.close()
    assert stub.received == [] and stub.connections == 0
    assert (work / "scores.jsonl").read_bytes() == scores


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
        assert reward_stub.received[0]["headers"].get("Authorization") == "Bearer sekrit"
        cache = read_scores(work / "scores.jsonl")
        assert all(rec.gpt == 12.5 for rec in cache.values())
    finally:
        reward_stub.close()
        rating_stub.close()


def test_score_api_key_with_a_line_break_is_bad_config(tmp_path, capsys, monkeypatch):
    # a key that would inject a header line is refused before any call
    work = tmp_path / "work"
    assert main(["synth", "--n", "30", "--seed", "3", "--workdir", str(work)]) == 0
    (work / "scores.jsonl").unlink()
    stub = StubEndpoint()
    monkeypatch.setenv("VLCURATE_API_KEY", "sekrit\r\nX-Injected: 1")
    try:
        capsys.readouterr()
        code = main(["score", "--provider", "http", "--reward-url", stub.url,
                     "--rating-url", stub.url, "--workdir", str(work)])
    finally:
        stub.close()
    assert code == 1
    err = capsys.readouterr().err
    assert "error[BadConfig]" in err and "Traceback" not in err and "sekrit" not in err
    assert stub.received == [] and stub.connections == 0


# ------------------------------------------------------------------ memory

def test_embed_peak_holds_the_features_two_square_matrices_and_one_row_block(tmp_path):
    # embed holds the image and llm-text matrices, never joined, and pca_fit
    # adds the d x d covariance, one d x d product buffer and one centered
    # row block; on this corpus its solver's basis, projected matrix and
    # eigenvectors (5.4 MB) stay below the product buffer and row block it
    # frees first. The manifest and scores take 1.1 MB. Joining the two
    # matrices and centering a copy of the join peaked at 19.7 MB on this
    # corpus, over the 19.0 MB bound.
    n, image_dim, text_dim = 1500, 128, 512
    cfg = build_config(flag_values={"workdir": str(tmp_path / "work")})
    manifest = make_manifest(n)
    ids = [t.id for t in manifest]
    rng = np.random.default_rng(0)
    cfg.features_path().mkdir(parents=True)
    for name, dim in (("image", image_dim), ("text_llm", text_dim)):
        # integer values: short to write, and PCA does not care
        write_feature_file(cfg.features_path() / f"{name}.txt", ids,
                           rng.integers(-50, 50, size=(n, dim)).astype(float),
                           cfg.matrix_store())
    write_manifest(manifest, cfg.manifest_path())
    cache = ScoreCache()
    for i in ids:
        cache[i] = ScoreRecord(clip=rng.uniform(), length=int(rng.integers(1, 99)),
                                       reward=rng.normal(), gpt=rng.uniform(0, 100))
    write_scores(cache, cfg.scores_path())
    tracemalloc.start()
    try:
        assert main(["embed", "--workdir", cfg.workdir]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = image_dim + text_dim
    features, square, row_block = n * d * 8, d * d * 8, numerics.PCA_BLOCK * d * 8
    assert peak <= features + 2 * square + row_block + (2 << 20)


def test_paper_width_features_are_written_in_process(tmp_path, monkeypatch):
    # at N = 3439 and widths 16/24 every feature file, and the embeddings,
    # is below the size at which write_feature_file forks
    def no_fork(method=None):
        raise AssertionError("write_feature_file forked")

    monkeypatch.setattr(corpus_mod.multiprocessing, "get_context", no_fork)
    work = tmp_path / "work"
    run_stages(work, (["synth", "--n", "3439", "--seed", "1",
                       "--image-dim", "16", "--text-dim", "24"], ["score"], ["embed"]))
    cfg = PipelineConfig(workdir=str(work))
    ids = [t.id for t in load_manifest(cfg.manifest_path())]
    matrices = {cfg.features_path() / f"{name}.txt": matrix for name, matrix
                in generate(3439, seed=1, image_dim=16, text_dim=24).features.items()}
    embeddings = cfg.embeddings_path()
    matrices[embeddings] = np.load(
        cfg.matrix_store() / f"embeddings.{hash_file(embeddings)}.npy")
    for path, matrix in matrices.items():
        assert path.read_bytes() == feature_text(ids, matrix), path.name
