"""Command-line entry point: one binary, one subcommand per pipeline stage.

    synth           generate the seeded synthetic corpus
    score           fill the indicator score cache
    embed           standardize scores + PCA features, write per-sample embeddings
    split           build the labeled training subsets
    train-selector  fit the quality selector on (subset, label) pairs
    curate          cluster, allocate quotas, select the final alpha samples
    report          render report.json and score histograms

Config precedence: defaults < config file < environment < flags. The
environment may only set provider endpoints and the API credential.
``stage_table`` is the one place that lists each stage's input files,
fingerprinted config keys and output files; ``run_stage`` fingerprints
them, skips a stage whose inputs, config and output digests are
unchanged, and otherwise runs its body, hands it the input digests and
logs why it ran. Exit codes: 0 success, 1 pipeline error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import config as config_mod
from . import report as report_mod
from . import synth as synth_mod
from .config import PipelineConfig, build_config, fingerprint, rerun_reason, stage_mark_done
from .corpus import (
    REQUIRED_MATRICES,
    SCORE_SLOTS,
    load_features,
    load_manifest,
    read_json,
    read_matrix,
    read_scores,
    write_feature_file,
    write_json,
    write_scores,
)
from .embedding import assemble_corpus
from .curate import curate as run_curation
from .errors import MalformedRecord, VlcurateError
from .indicators import RatingClient, RewardClient, indicator_matrix, score_corpus
from .quality_labels import (
    build_subsets,
    read_eval_reports,
    subset_labels,
    subset_manifest_path,
    write_eval_reports,
    write_subset_manifests,
)
from .selector import KINDS, init_selector, load_selector, predict_items, save_selector, train


# -- stage bodies: each does its stage's work and returns its log message;
# ``digests`` holds the sha256 of each declared input, keyed by its path ---

def _synth(cfg: PipelineConfig, args, digests) -> str:
    corpus = synth_mod.generate(cfg.synth_n, cfg.seed, cfg.image_dim, cfg.text_dim)
    synth_mod.write_corpus(corpus, cfg)
    return f"n={cfg.synth_n} seed={cfg.seed} -> {cfg.manifest_path()}"


def _score(cfg: PipelineConfig, args, digests) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image", "text_clip"),
                             cfg.matrix_store(), digests)
    cache = read_scores(cfg.scores_path()) if cfg.scores_path().exists() else {}
    providers = {}
    if cfg.provider == "http":
        headers = {"Authorization": f"Bearer {cfg.api_key}"} if cfg.api_key else None
        providers = {"reward_provider": RewardClient(cfg.reward_url, headers=headers),
                     "gpt_provider": RatingClient(cfg.rating_url, headers=headers)}
    try:
        score_corpus(manifest, features, cache, workers=cfg.workers, **providers)
    finally:  # keep every score already paid for, also when one call fails
        write_scores(cache, cfg.scores_path())
        for client in providers.values():
            client.close()
    return f"scored {len(manifest)} samples"


def _embed(cfg: PipelineConfig, args, digests) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image", "text_llm"),
                             cfg.matrix_store(), digests)
    image_dim = features["image"].shape[1]
    # popped, so that the per-file matrices are freed once joined
    joint = np.hstack([features.pop("image"), features.pop("text_llm")])
    embeddings = assemble_corpus(manifest, read_scores(cfg.scores_path()), joint,
                                 image_dim, cfg.m, cfg.reducer_mode, cfg.standardize)
    write_feature_file(cfg.embeddings_path(), [t.id for t in manifest], embeddings,
                       cfg.matrix_store())
    return f"embedded {len(embeddings)} samples, dim {4 + cfg.m}"


def _split(cfg: PipelineConfig, args, digests) -> str:
    manifest = load_manifest(cfg.manifest_path())
    oracle = synth_mod.read_oracle(cfg.oracle_path()) if args.oracle_reports else None
    ids = [t.id for t in manifest]
    if cfg.subset_space == "image":
        data = load_features(cfg.features_path(), manifest, ("image",),
                             cfg.matrix_store(), digests)["image"]
    else:
        data = read_matrix(cfg.embeddings_path(), ids, cfg.matrix_store(), digests)
    subsets = build_subsets(ids, data, cfg.n_subsets, seed=cfg.seed,
                            capacity=cfg.capacity or None)
    reports = (None if oracle is None
               else synth_mod.oracle_eval_reports(subsets, oracle, seed=cfg.seed))
    write_subset_manifests(subsets, manifest, cfg.subsets_path())
    blob = {
        "n_subsets": cfg.n_subsets,
        "capacity": len(subsets[0]),
        "subsets": [
            {"subset_id": subset_id, "member_ids": list(members)}
            for subset_id, members in enumerate(subsets)
        ],
    }
    write_json(cfg.subsets_path() / "subsets.json", blob)
    if reports is not None:
        write_eval_reports(cfg.reports_path(), reports)
    return f"{cfg.n_subsets} subsets x {blob['capacity']} samples"


def _train_selector(cfg: PipelineConfig, args, digests) -> str:
    path = cfg.subsets_path() / "subsets.json"
    try:
        entries = [(int(entry["subset_id"]), tuple(entry["member_ids"]))
                   for entry in read_json(path, ("subsets",))["subsets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"{path}: bad subset entry ({exc!r})") from None
    rows = read_matrix(cfg.embeddings_path(), [i for _, members in entries for i in members],
                       cfg.matrix_store(), digests)
    blocks = np.split(rows, np.cumsum([len(members) for _, members in entries])[:-1])
    labels = subset_labels([subset_id for subset_id, _ in entries],
                           read_eval_reports(cfg.reports_path()))
    model = init_selector(cfg.selector_kind, input_dim=rows.shape[1], seed=cfg.seed,
                          d_model=cfg.d_model, ff_dim=cfg.ff_dim, layers=cfg.layers)
    result = train(model, blocks, labels, epochs=cfg.epochs, lr=cfg.lr,
                   optimizer=cfg.optimizer)
    save_selector(cfg.model_path(), result.model)
    write_json(cfg.model_path() / "losses.json", {"losses": result.losses})
    return (f"kind={cfg.selector_kind} loss {result.losses[0]:.4f} -> "
            f"{result.losses[-1]:.4f} over {cfg.epochs} epochs")


def _curate(cfg: PipelineConfig, args, digests) -> str:
    manifest = load_manifest(cfg.manifest_path())
    features = load_features(cfg.features_path(), manifest, ("image",), cfg.matrix_store(),
                             digests)
    if cfg.indicator:
        cache = read_scores(cfg.scores_path())
        item_scores = indicator_matrix(manifest, cache)[:, SCORE_SLOTS.index(cfg.indicator)]
    else:
        embeddings = read_matrix(cfg.embeddings_path(), [t.id for t in manifest],
                                 cfg.matrix_store(), digests)
        item_scores = predict_items(load_selector(cfg.model_path()), embeddings)
    result = run_curation(
        manifest, item_scores, features["image"],
        k_clusters=cfg.k_clusters, alpha=cfg.alpha, seed=cfg.seed,
        use_clusters=cfg.clustering,
    )
    report_mod.write_selection(cfg.curated_path(), result, manifest)
    return (f"selected {len(result.selected_ids)} of {len(manifest)} across "
            f"{len(result.quotas)} clusters")


def _report(cfg: PipelineConfig, args, digests) -> str:
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
    it writes, and ``body(cfg, args, digests) -> log message``.
    ``handed_on`` are outputs that a later stage rewrites (``synth``'s score
    cache, which ``score`` fills): only their presence keeps the stage
    current, while the other outputs must also keep the digests recorded
    when the stage ran."""

    inputs: list[Path]
    config: dict
    outputs: list[Path]
    body: Callable[[PipelineConfig, argparse.Namespace, dict[Path, str]], str]
    handed_on: tuple[Path, ...] = ()


def stage_table(cfg: PipelineConfig, args: argparse.Namespace) -> dict[str, Stage]:
    """Every stage's declared inputs, config subset and outputs.

    A stage reruns when the bytes of an input or a config value change, or
    when an output is missing or its bytes changed. The outputs are every
    file a body writes; ``report``'s cluster histograms are counted from
    ``summary.json``.
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
            config={"synth_n": cfg.synth_n, "seed": cfg.seed,
                    "image_dim": cfg.image_dim, "text_dim": cfg.text_dim},
            outputs=[cfg.manifest_path(), cfg.oracle_path(), *features(*REQUIRED_MATRICES)],
            body=_synth,
            handed_on=(cfg.scores_path(),),
        ),
        "score": Stage(
            inputs=[cfg.manifest_path(), *features("image", "text_clip")],
            # a cached score is never fetched again, so the provider, its
            # URLs and the worker count cannot change scores.jsonl
            config={},
            outputs=[cfg.scores_path()],
            body=_score,
        ),
        "embed": Stage(
            inputs=[cfg.manifest_path(), cfg.scores_path(), *features("image", "text_llm")],
            config={"m": cfg.m, "standardize": cfg.standardize,
                    "reducer_mode": cfg.reducer_mode},
            outputs=[cfg.embeddings_path()],
            body=_embed,
        ),
        "split": Stage(
            inputs=[cfg.manifest_path(),
                    *(features("image") if cfg.subset_space == "image"
                      else [cfg.embeddings_path()]),
                    *([cfg.oracle_path()] if oracle_reports else [])],
            config={"n_subsets": cfg.n_subsets, "capacity": cfg.capacity,
                    "seed": cfg.seed, "subset_space": cfg.subset_space,
                    "oracle": oracle_reports},
            outputs=[subsets,
                     *(subset_manifest_path(cfg.subsets_path(), subset_id)
                       for subset_id in range(cfg.n_subsets)),
                     *([cfg.reports_path()] if oracle_reports else [])],
            body=_split,
        ),
        "train-selector": Stage(
            inputs=[cfg.embeddings_path(), subsets, cfg.reports_path()],
            config={"selector_kind": cfg.selector_kind, "d_model": cfg.d_model,
                    "ff_dim": cfg.ff_dim, "layers": cfg.layers, "epochs": cfg.epochs,
                    "lr": cfg.lr, "seed": cfg.seed, "optimizer": cfg.optimizer},
            outputs=[*model, cfg.model_path() / "losses.json"],
            body=_train_selector,
        ),
        "curate": Stage(
            inputs=[cfg.manifest_path(), *features("image"),
                    *([cfg.scores_path()] if cfg.indicator
                      else [cfg.embeddings_path(), *model])],
            config={"k_clusters": cfg.k_clusters, "alpha": cfg.alpha, "seed": cfg.seed,
                    "clustering": cfg.clustering, "indicator": cfg.indicator},
            outputs=[cfg.curated_path() / "selected.manifest.jsonl",
                     cfg.curated_path() / "selection.jsonl", summary],
            body=_curate,
        ),
        "report": Stage(
            inputs=[cfg.manifest_path(), summary,
                    *([cfg.oracle_path()] if cfg.oracle_path().exists() else [])],
            config={"seed": cfg.seed},
            outputs=[cfg.curated_path() / "report.json",
                     *report_mod.declared_plots(cfg.curated_path())],
            body=_report,
        ),
    }


def run_stage(name: str, cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Run one stage unless its inputs, config and outputs are current, and
    say why it ran."""
    stage = stage_table(cfg, args)[name]
    value = fingerprint(stage.inputs, stage.config)
    reason = rerun_reason(cfg.workdir, name, value, [*stage.outputs, *stage.handed_on])
    if reason is None:
        print(f"[{name}] up-to-date, skipping")
        return 0
    started = time.perf_counter()
    message = stage.body(cfg, args, value.inputs)
    stage_mark_done(cfg.workdir, name, value, stage.outputs)
    print(f"[{name}] {message} ({time.perf_counter() - started:.2f}s), ran because {reason}")
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
    p.add_argument("--kind", dest="selector_kind", choices=KINDS)
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
    p.add_argument("--indicator", choices=SCORE_SLOTS,
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
