"""Labeled training subsets for the selector.

The corpus is partitioned into n equal-size subsets by balanced k-means on
the sample embeddings (capacity N // n; up to n - 1 leftover samples are
excluded). Each subset is fine-tuned and evaluated externally; the mean of
its benchmark scores becomes the subset's quality label. Subset ids are
0-based and stable for a given (embeddings, n, seed).

A reference label set for the default n=30 configuration ships as a package
asset so the selector can be trained without rerunning the evaluations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import Triplet, atomic_write, write_manifest
from .errors import DuplicateId, EmptyReport, MalformedRecord, MissingLabel, UnknownSubset
from .numerics import kmeans_pp


@dataclass(frozen=True)
class SubsetRecord:
    subset_id: int
    member_ids: tuple[str, ...]     # canonical corpus order
    embeddings: np.ndarray          # (capacity, D), rows follow member_ids
    label: float | None = None


@dataclass(frozen=True)
class EvalReport:
    subset_id: int
    scores: dict[str, float]


def build_subsets(
    ids: list[str],
    embeddings: np.ndarray,
    n: int = 30,
    seed: int = 0,
    vectors: np.ndarray | None = None,
    capacity: int | None = None,
) -> list[SubsetRecord]:
    """Partition the samples ``ids`` (rows of the (N, D) ``embeddings``)
    into n subsets of exactly `capacity` samples (N // n when unset).

    Clustering runs on `vectors` when given (e.g. raw image features),
    otherwise on the embeddings themselves; subset members always carry
    their embedding rows. Samples beyond n * capacity belong to no subset.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    data = embeddings if vectors is None else np.asarray(vectors, dtype=float)
    if not len(ids) == embeddings.shape[0] == data.shape[0]:
        raise ValueError(f"row counts differ: {len(ids)} ids, {embeddings.shape[0]} "
                         f"embeddings, {data.shape[0]} vectors")
    assignment = kmeans_pp(data, n, seed=seed, balanced=True, capacity=capacity)
    subsets = []
    for j in range(n):
        members = np.flatnonzero(assignment.labels == j)
        subsets.append(SubsetRecord(subset_id=j,
                                    member_ids=tuple(ids[i] for i in members),
                                    embeddings=embeddings[members]))
    return subsets


def write_subset_manifests(
    subsets: list[SubsetRecord], manifest: list[Triplet], out_dir: str | Path
) -> list[Path]:
    """One manifest per subset, for the external fine-tune/eval loop."""
    by_id = {t.id: t for t in manifest}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for sub in subsets:
        path = out_dir / f"subset_{sub.subset_id:03d}.manifest.jsonl"
        write_manifest([by_id[i] for i in sub.member_ids], path)
        paths.append(path)
    return paths


# -- labels --------------------------------------------------------------

def average_label(report: EvalReport) -> float:
    """Unweighted mean over whatever benchmarks the report carries."""
    if not report.scores:
        raise EmptyReport(f"subset {report.subset_id} has no benchmark scores")
    return float(np.mean(list(report.scores.values())))


def attach_labels(
    subsets: list[SubsetRecord], reports: list[EvalReport]
) -> list[SubsetRecord]:
    known = {s.subset_id for s in subsets}
    by_subset: dict[int, EvalReport] = {}
    for rep in reports:
        if rep.subset_id not in known:
            raise UnknownSubset(f"report for unknown subset {rep.subset_id}")
        if rep.subset_id in by_subset:
            raise DuplicateId(f"duplicate report for subset {rep.subset_id}")
        by_subset[rep.subset_id] = rep
    labeled = []
    for sub in subsets:
        if sub.subset_id not in by_subset:
            raise MissingLabel(sub.subset_id)
        labeled.append(replace(sub, label=average_label(by_subset[sub.subset_id])))
    return labeled


def _parse_eval_reports(lines) -> list[EvalReport]:
    """One ``{"subset_id": ..., "scores": {...}}`` object per non-blank line."""
    reports = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            blob = json.loads(line)
            subset_id = int(blob["subset_id"])
            scores = {str(k): float(v) for k, v in blob["scores"].items()}
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            raise MalformedRecord(line_no, f"bad eval report: {exc}") from exc
        reports.append(EvalReport(subset_id=subset_id, scores=scores))
    return reports


def read_eval_reports(path: str | Path) -> list[EvalReport]:
    with open(path, encoding="utf-8") as fh:
        return _parse_eval_reports(fh)


def write_eval_reports(path: str | Path, reports: list[EvalReport]) -> None:
    with atomic_write(path) as fh:
        for rep in reports:
            fh.write(json.dumps({"subset_id": rep.subset_id, "scores": rep.scores}))
            fh.write("\n")


def load_reference_reports() -> list[EvalReport]:
    """The shipped 30-subset benchmark table (n=30 default configuration)."""
    text = (
        resources.files("vlcurate").joinpath("assets/reference_labels.jsonl").read_text("utf-8")
    )
    return _parse_eval_reports(text.splitlines())
