"""Labeled training subsets for the selector.

The corpus is partitioned into n equal-size subsets by balanced k-means on
the sample embeddings or image features (capacity N // n; up to n - 1
leftover samples are excluded). Each subset, a tuple of member ids whose id
is its 0-based index, is fine-tuned and evaluated externally; the mean of
its benchmark scores becomes the subset's quality label.

A reference label set for the default n=30 configuration ships as a package
asset so the selector can be trained without rerunning the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import (
    Triplet,
    finite_float,
    read_jsonl,
    remove_numbered,
    write_jsonl,
    write_manifest,
)
from .errors import DuplicateId, EmptyReport, MalformedRecord, MissingLabel, UnknownSubset
from .numerics import kmeans_pp


@dataclass(frozen=True)
class EvalReport:
    subset_id: int
    scores: dict[str, float]


def build_subsets(
    ids: list[str],
    data: np.ndarray,
    n: int = 30,
    seed: int = 0,
    capacity: int | None = None,
) -> list[tuple[str, ...]]:
    """Partition ``ids`` (the rows of the (N, D) ``data``: embeddings or
    image features) into n subsets of exactly `capacity` samples (N // n
    when unset) by balanced k-means; subset j is the j-th tuple of member
    ids, in corpus order. Samples beyond n * capacity belong to no subset."""
    data = np.asarray(data, dtype=float)
    if len(ids) != data.shape[0]:
        raise ValueError(f"row counts differ: {len(ids)} ids, {data.shape[0]} rows")
    labels = kmeans_pp(data, n, seed=seed, balanced=True, capacity=capacity).labels
    return [tuple(ids[i] for i in np.flatnonzero(labels == j)) for j in range(n)]


def subset_manifest_path(out_dir: str | Path, subset_id: int) -> Path:
    return Path(out_dir) / f"subset_{subset_id:03d}.manifest.jsonl"


def write_subset_manifests(
    subsets: list[tuple[str, ...]], manifest: list[Triplet], out_dir: str | Path
) -> list[Path]:
    """One manifest per subset, for the external fine-tune/eval loop; the
    manifests of subsets beyond ``subsets`` that an earlier run wrote go."""
    by_id = {t.id: t for t in manifest}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for subset_id, members in enumerate(subsets):
        path = subset_manifest_path(out_dir, subset_id)
        write_manifest([by_id[i] for i in members], path)
        paths.append(path)
    remove_numbered(out_dir, lambda j: subset_manifest_path(out_dir, j).name, len(subsets))
    return paths


# -- labels --------------------------------------------------------------

def average_label(report: EvalReport) -> float:
    """Unweighted mean over whatever benchmarks the report carries."""
    if not report.scores:
        raise EmptyReport(f"subset {report.subset_id} has no benchmark scores")
    return float(np.mean(list(report.scores.values())))


def subset_labels(subset_ids: list[int], reports: list[EvalReport]) -> np.ndarray:
    """Each subset's quality label, in ``subset_ids`` order: the average of
    its one report. A report for an id not listed raises UnknownSubset, a
    second report DuplicateId, and a listed id without one MissingLabel."""
    known = set(subset_ids)
    by_subset: dict[int, EvalReport] = {}
    for rep in reports:
        if rep.subset_id not in known:
            raise UnknownSubset(f"report for unknown subset {rep.subset_id}")
        if rep.subset_id in by_subset:
            raise DuplicateId(f"duplicate report for subset {rep.subset_id}")
        by_subset[rep.subset_id] = rep
    for subset_id in subset_ids:
        if subset_id not in by_subset:
            raise MissingLabel(subset_id)
    return np.array([average_label(by_subset[j]) for j in subset_ids])


def read_eval_reports(path: str | Path) -> list[EvalReport]:
    """One ``{"subset_id": ..., "scores": {...}}`` object per non-blank line."""
    reports = []
    for line_no, blob in read_jsonl(path):
        try:
            subset_id = int(blob["subset_id"])
            scores = {str(k): finite_float(v) for k, v in blob["scores"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(line_no, f"bad eval report: {exc}") from exc
        reports.append(EvalReport(subset_id=subset_id, scores=scores))
    return reports


def write_eval_reports(path: str | Path, reports: list[EvalReport]) -> None:
    write_jsonl(path, ({"subset_id": rep.subset_id, "scores": rep.scores}
                       for rep in reports))


def load_reference_reports() -> list[EvalReport]:
    """The shipped 30-subset benchmark table (n=30 default configuration)."""
    asset = resources.files("vlcurate").joinpath("assets/reference_labels.jsonl")
    with resources.as_file(asset) as path:
        return read_eval_reports(path)
