"""Command-line entry point: one binary, one subcommand per pipeline stage.

    synth           generate the seeded synthetic corpus
    score           fill the indicator score cache
    embed           fit standardizer + PCA, write per-sample embeddings
    split           build the labeled training subsets
    train-selector  fit the quality selector on (subset, label) pairs
    curate          cluster, allocate quotas, select the final alpha samples
    report          render report.json and score histograms

Config precedence: defaults < config file < environment < flags. The
environment may only set provider endpoints and the API credential.
``stage_table`` is the one place that lists each stage's input files,
fingerprinted config keys and output files; ``run_stage`` fingerprints
them, skips a stage whose inputs, config and outputs are unchanged, and
otherwise runs its body. Exit codes: 0 success, 1 pipeline error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import config as config_mod
from . import report as report_mod
from . import synth as synth_mod
from .config import PipelineConfig, build_config, fingerprint, stage_is_current, stage_mark_done
from .corpus import (
    REQUIRED_MATRICES,
    ScoreCache,
    load_features,
    load_manifest,
    read_json,
    read_matrix,
    read_scores,
    write_scores,
)
from .embedding import (
    SCORE_SLOTS,
    ItemEmbedding,
    assemble_corpus,
    fit_feature_reducer,
    fit_standardizer,
    identity_standardizer,
    save_bundle,
    write_embeddings,
)
from .curate import curate as run_curation
from .errors import MalformedRecord, VlcurateError
from .indicators import RatingClient, RewardClient, indicator_matrix, score_corpus
from .quality_labels import (
    SubsetRecord,
    attach_labels,
    build_subsets,
    read_eval_reports,
    write_eval_reports,
    write_subset_manifests,
)
from .selector import init_selector, load_selector, predict_items, save_selector, train


# -- stage bodies: each does its stage's work and returns its log message ---

def _synth(cfg: PipelineConfig, args, value: str) -> str:
    corpus = synth_mod.generate(cfg.synth_n, cfg.seed, cfg.image_dim, cfg.text_dim)
    synth_mod.write_corpus(corpus, cfg.workdir)
    return f"n={cfg.synth_n} seed={cfg.seed} -> {cfg.manifest_path()}"


def _score(cfg: PipelineConfig, args, value: str) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image", "text_clip"))
    cache = read_scores(cfg.scores_path()) if cfg.scores_path().exists() else ScoreCache()
    gpt_provider = reward_provider = None
    if cfg.provider == "http":
        headers = {"Authorization": f"Bearer {cfg.api_key}"} if cfg.api_key else None
        reward_provider = RewardClient(cfg.reward_url, headers=headers)
        gpt_provider = RatingClient(cfg.rating_url, headers=headers)
    try:
        score_corpus(manifest, features, cache, gpt_provider, reward_provider,
                     workers=cfg.workers)
    finally:  # keep every score already paid for, also when one call fails
        write_scores(cache, cfg.scores_path())
    return f"scored {len(manifest)} samples"


def _embed(cfg: PipelineConfig, args, value: str) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image", "text_llm"))
    cache = read_scores(cfg.scores_path())
    scores = indicator_matrix(manifest, cache)
    std = fit_standardizer(scores) if cfg.standardize else identity_standardizer()
    reducer = fit_feature_reducer(features, cfg.m, cfg.reducer_mode)
    embeddings = assemble_corpus(manifest, cache, features, std, reducer)
    write_embeddings(cfg.embeddings_path(), embeddings)
    save_bundle(cfg.bundle_path(), std, reducer, fingerprint=value)
    return f"embedded {len(embeddings)} samples, dim {4 + cfg.m}"


def _split(cfg: PipelineConfig, args, value: str) -> str:
    manifest = load_manifest(cfg.manifest_path())
    ids = [t.id for t in manifest]
    embeddings = [ItemEmbedding(id=i, vector=v)
                  for i, v in zip(ids, read_matrix(cfg.embeddings_path(), ids))]
    vectors = None
    if cfg.subset_space == "image":
        vectors = load_features(cfg.features_path(), manifest, ("image",)).matrix("image")
    subsets = build_subsets(
        embeddings, cfg.n_subsets, seed=cfg.seed, vectors=vectors,
        capacity=cfg.capacity or None,
    )
    write_subset_manifests(subsets, manifest, cfg.subsets_path())
    blob = {
        "n_subsets": cfg.n_subsets,
        "capacity": len(subsets[0].member_ids),
        "subsets": [
            {"subset_id": s.subset_id, "member_ids": list(s.member_ids)}
            for s in subsets
        ],
    }
    with open(cfg.subsets_path() / "subsets.json", "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2)
        fh.write("\n")
    if args.oracle_reports:
        oracle = synth_mod.read_oracle(cfg.oracle_path())
        write_eval_reports(
            cfg.reports_path(),
            synth_mod.oracle_eval_reports(subsets, oracle, seed=cfg.seed),
        )
    return f"{cfg.n_subsets} subsets x {blob['capacity']} samples"


def _train_selector(cfg: PipelineConfig, args, value: str) -> str:
    path = cfg.subsets_path() / "subsets.json"
    try:
        entries = [(int(entry["subset_id"]), tuple(entry["member_ids"]))
                   for entry in read_json(path, ("subsets",))["subsets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"{path}: bad subset entry ({exc!r})") from None
    rows = read_matrix(cfg.embeddings_path(), [i for _, members in entries for i in members])
    blocks = np.split(rows, np.cumsum([len(members) for _, members in entries])[:-1])
    subsets = [
        SubsetRecord(subset_id=subset_id, member_ids=members, embeddings=block)
        for (subset_id, members), block in zip(entries, blocks)
    ]
    labeled = attach_labels(subsets, read_eval_reports(cfg.reports_path()))
    model = init_selector(cfg.selector_kind, input_dim=rows.shape[1], seed=cfg.seed,
                          d_model=cfg.d_model, ff_dim=cfg.ff_dim, layers=cfg.layers)
    result = train(
        model,
        [s.embeddings for s in labeled],
        np.array([s.label for s in labeled]),
        epochs=cfg.epochs, lr=cfg.lr, optimizer=cfg.optimizer,
    )
    save_selector(cfg.model_path(), result.model)
    with open(cfg.model_path() / "losses.json", "w", encoding="utf-8") as fh:
        json.dump({"losses": result.losses}, fh, indent=2)
        fh.write("\n")
    return (f"kind={cfg.selector_kind} loss {result.losses[0]:.4f} -> "
            f"{result.losses[-1]:.4f} over {cfg.epochs} epochs")


def _curate(cfg: PipelineConfig, args, value: str) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image",))
    if cfg.indicator:
        cache = read_scores(cfg.scores_path())
        item_scores = indicator_matrix(manifest, cache)[:, SCORE_SLOTS.index(cfg.indicator)]
    else:
        embeddings = read_matrix(cfg.embeddings_path(), [t.id for t in manifest])
        item_scores = predict_items(load_selector(cfg.model_path()), embeddings)
    result = run_curation(
        manifest, item_scores, features.matrix("image"),
        k_clusters=cfg.k_clusters, alpha=cfg.alpha, seed=cfg.seed,
        use_clusters=cfg.clustering,
    )
    report_mod.write_selection(cfg.curated_path(), result, manifest)
    return (f"selected {len(result.selected_ids)} of {len(manifest)} across "
            f"{len(result.quotas)} clusters")


def _report(cfg: PipelineConfig, args, value: str) -> str:
    oracle = synth_mod.read_oracle(cfg.oracle_path()) if cfg.oracle_path().exists() else None
    manifest = load_manifest(cfg.manifest_path())
    report = report_mod.write_report(cfg.curated_path(), manifest, oracle, seed=cfg.seed)
    note = ""
    if "oracle_comparison" in report:
        comp = report["oracle_comparison"]
        note = f" uplift={comp['uplift']:.4f} z={comp['z']:.1f}"
    return f"wrote {cfg.curated_path() / 'report.json'}{note}"


# -- the stage table and its runner ---------------------------------------

@dataclass(frozen=True)
class Stage:
    """One stage: the files it reads, the config it depends on, the files
    it writes, and ``body(cfg, args, fingerprint) -> log message``."""

    inputs: list[Path]
    config: dict
    outputs: list[Path]
    body: Callable[[PipelineConfig, argparse.Namespace, str], str]


def stage_table(cfg: PipelineConfig, args: argparse.Namespace) -> dict[str, Stage]:
    """Every stage's declared inputs, config subset and outputs.

    A stage reruns when the bytes of an input or a config value change, or
    when an output is missing. The config keys name what a stage's output
    depends on; ``n`` and ``kind`` keep their historical spellings so that
    existing fingerprints stay valid.
    """
    def features(*names: str) -> list[Path]:
        return [cfg.features_path() / f"{name}.txt" for name in names]

    model = [cfg.model_path() / "meta.json", cfg.model_path() / "params.txt"]
    subsets = cfg.subsets_path() / "subsets.json"
    summary = cfg.curated_path() / "summary.json"
    oracle_reports = bool(getattr(args, "oracle_reports", False))
    return {
        "synth": Stage(
            inputs=[],
            config={"n": cfg.synth_n, "seed": cfg.seed,
                    "image_dim": cfg.image_dim, "text_dim": cfg.text_dim},
            outputs=[cfg.manifest_path(), cfg.scores_path(), cfg.oracle_path(),
                     *features(*REQUIRED_MATRICES)],
            body=_synth,
        ),
        "score": Stage(
            inputs=[cfg.manifest_path(), *features("image", "text_clip")],
            config={"provider": cfg.provider, "reward_url": cfg.reward_url,
                    "rating_url": cfg.rating_url, "workers": cfg.workers},
            outputs=[cfg.scores_path()],
            body=_score,
        ),
        "embed": Stage(
            inputs=[cfg.manifest_path(), cfg.scores_path(), *features("image", "text_llm")],
            config={"m": cfg.m, "standardize": cfg.standardize,
                    "reducer_mode": cfg.reducer_mode},
            outputs=[cfg.embeddings_path(), cfg.bundle_path() / "embedding_bundle.json"],
            body=_embed,
        ),
        "split": Stage(
            inputs=[cfg.manifest_path(), cfg.embeddings_path(),
                    *(features("image") if cfg.subset_space == "image" else []),
                    *([cfg.oracle_path()] if oracle_reports else [])],
            config={"n_subsets": cfg.n_subsets, "capacity": cfg.capacity,
                    "seed": cfg.seed, "subset_space": cfg.subset_space,
                    "oracle": oracle_reports},
            outputs=[subsets, *([cfg.reports_path()] if oracle_reports else [])],
            body=_split,
        ),
        "train-selector": Stage(
            inputs=[cfg.embeddings_path(), subsets, cfg.reports_path()],
            config={"kind": cfg.selector_kind, "d_model": cfg.d_model,
                    "ff_dim": cfg.ff_dim, "layers": cfg.layers, "epochs": cfg.epochs,
                    "lr": cfg.lr, "seed": cfg.seed, "optimizer": cfg.optimizer},
            outputs=model,
            body=_train_selector,
        ),
        "curate": Stage(
            inputs=[cfg.manifest_path(), *features("image"),
                    *([cfg.scores_path()] if cfg.indicator
                      else [cfg.embeddings_path(), *model])],
            config={"k_clusters": cfg.k_clusters, "alpha": cfg.alpha, "seed": cfg.seed,
                    "clustering": cfg.clustering, "indicator": cfg.indicator},
            outputs=[cfg.curated_path() / "selected.manifest.jsonl", summary],
            body=_curate,
        ),
        "report": Stage(
            inputs=[cfg.manifest_path(), summary,
                    *([cfg.oracle_path()] if cfg.oracle_path().exists() else [])],
            config={"seed": cfg.seed},
            outputs=[cfg.curated_path() / "report.json"],
            body=_report,
        ),
    }


def run_stage(name: str, cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Run one stage unless its fingerprint and outputs are current."""
    stage = stage_table(cfg, args)[name]
    value = fingerprint(stage.inputs, stage.config)
    if stage_is_current(cfg.workdir, name, value, stage.outputs):
        print(f"[{name}] up-to-date, skipping")
        return 0
    started = time.perf_counter()
    message = stage.body(cfg, args, value)
    stage_mark_done(cfg.workdir, name, value)
    print(f"[{name}] {message} ({time.perf_counter() - started:.2f}s)")
    return 0


# -- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcurate",
        description="Indicator-scored, selector-ranked curation of "
                    "vision-language instruction data.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--workdir", help="pipeline working directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--n", dest="synth_n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--image-dim", dest="image_dim", type=int)
    p.add_argument("--text-dim", dest="text_dim", type=int)

    p = sub.add_parser("score", parents=[common], help="fill the indicator score cache")
    p.add_argument("--provider", choices=("cache", "http"))
    p.add_argument("--workers", type=int)
    p.add_argument("--reward-url", dest="reward_url")
    p.add_argument("--rating-url", dest="rating_url")

    p = sub.add_parser("embed", parents=[common], help="assemble per-sample embeddings")
    p.add_argument("--feature-size", dest="m", type=int,
                   help="PCA output width m (embedding dim is 4+m)")
    p.add_argument("--no-standardize", dest="standardize",
                   action="store_const", const=False)
    p.add_argument("--reducer-mode", dest="reducer_mode", choices=("joint", "split"))

    p = sub.add_parser("split", parents=[common], help="build labeled training subsets")
    p.add_argument("--n-subsets", dest="n_subsets", type=int)
    p.add_argument("--capacity", type=int)
    p.add_argument("--space", dest="subset_space", choices=("embedding", "image"))
    p.add_argument("--seed", type=int)
    p.add_argument("--oracle", dest="oracle_reports", action="store_true",
                   help="also derive eval reports from the planted oracle")

    p = sub.add_parser("train-selector", parents=[common], help="train the selector")
    p.add_argument("--kind", dest="selector_kind",
                   choices=("linear", "mlp", "attention"))
    p.add_argument("--layers", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--ff-dim", dest="ff_dim", type=int)

    p = sub.add_parser("curate", parents=[common], help="select the final subset")
    p.add_argument("--alpha", type=int)
    p.add_argument("--clusters", dest="k_clusters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--selector", dest="model_dir", help="selector model directory")
    p.add_argument("--no-clustering", dest="clustering",
                   action="store_const", const=False)
    p.add_argument("--indicator", choices=("clip", "length", "reward", "gpt"),
                   help="rank by one raw indicator instead of the selector")

    p = sub.add_parser("report", parents=[common], help="render report and plots")
    p.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    known = config_mod.config_keys()
    flag_values = {
        key: value for key, value in vars(args).items()
        if key in known and value is not None
    }
    try:
        cfg = build_config(args.config, flag_values)
        return run_stage(args.command, cfg, args)
    except (VlcurateError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
