"""Quota allocation and final sample selection.

The corpus is spectrally clustered into k groups on image features (the
landmark graph of ``numerics.spectral_embedding``, linear in N), each
cluster i gets a quota |S_i| = round-of(alpha * |D_i| / N) via largest
remainder apportionment, and the quota is filled with the cluster's
top-scoring samples. The union of per-cluster picks is the curated set of
exactly alpha samples. Clustering keeps the selection spread across visual
modes instead of letting one dense region absorb the whole budget.

Also hosts the two-judge Win/Tie/Fail aggregation used when comparing a
model trained on the curated set against a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Triplet
from .errors import InfeasibleAlpha, QuotaExceedsCluster
from .numerics import spectral_cluster


def allocate(sizes: list[int], alpha: int) -> list[int]:
    """Largest-remainder quotas: floor the proportional shares, then hand the
    leftover units to the largest fractional parts (ties to the lower index).

    Quotas never exceed their cluster size: with alpha < N each floor share
    is below its size, so one extra unit still fits, and with alpha = N
    every share is exact and no unit is left over.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes) or not sizes:
        raise InfeasibleAlpha("every cluster must have at least one member")
    total = sum(sizes)
    if alpha < 1 or alpha > total:
        raise InfeasibleAlpha(f"alpha {alpha} not in [1, {total}]")
    # integer arithmetic: alpha*s/total = quota + rem/total exactly, so ties in
    # the fractional part are broken by index rather than by float rounding
    quotas = [alpha * s // total for s in sizes]
    rems = [alpha * s % total for s in sizes]
    order = sorted(range(len(sizes)), key=lambda i: (-rems[i], i))
    # the leftover is sum(rems) / total < len(sizes): at most one unit each
    for i in order[:alpha - sum(quotas)]:
        quotas[i] += 1
    assert sum(quotas) == alpha
    return quotas


def select_topk(members: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Pick k of `members` (ascending corpus indices) with the highest scores.

    Returns indices ordered by descending score; equal scores keep corpus
    order, so reruns pick identical samples.
    """
    members = np.asarray(members, dtype=int)
    if k > members.size:
        raise QuotaExceedsCluster(f"quota {k} > cluster size {members.size}")
    if k < 0:
        raise QuotaExceedsCluster(f"negative quota {k}")
    order = np.argsort(-np.asarray(scores, dtype=float)[members], kind="stable")
    return members[order[:k]]


@dataclass(frozen=True)
class CurationResult:
    selected_ids: tuple[str, ...]          # corpus order
    ranked_per_cluster: list[list[str]]    # per cluster, descending score
    cluster_labels: np.ndarray             # (N,)
    quotas: list[int]
    item_scores: np.ndarray                # (N,)


def curate(
    manifest: list[Triplet],
    item_scores: np.ndarray,
    cluster_vectors: np.ndarray,
    k_clusters: int = 10,
    alpha: int = 200,
    seed: int = 0,
    use_clusters: bool = True,
) -> CurationResult:
    """Select exactly alpha samples, spread over spectral clusters by quota."""
    n = len(manifest)
    item_scores = np.asarray(item_scores, dtype=float)
    if item_scores.shape != (n,):
        raise ValueError(f"need one score per sample, got shape {item_scores.shape}")
    if use_clusters and k_clusters > 1:
        assignment = spectral_cluster(np.asarray(cluster_vectors, dtype=float),
                                      k_clusters, seed=seed)
        labels = assignment.labels
        k = k_clusters
    else:
        labels = np.zeros(n, dtype=int)
        k = 1
    sizes = [int(np.count_nonzero(labels == j)) for j in range(k)]
    quotas = allocate(sizes, alpha)
    ranked = []
    chosen: list[int] = []
    for j in range(k):
        members = np.flatnonzero(labels == j)
        picks = select_topk(members, item_scores, quotas[j])
        ranked.append([manifest[i].id for i in picks])
        chosen.extend(int(i) for i in picks)
    chosen.sort()
    return CurationResult(
        selected_ids=tuple(manifest[i].id for i in chosen),
        ranked_per_cluster=ranked,
        cluster_labels=labels,
        quotas=quotas,
        item_scores=item_scores,
    )


# -- pairwise judgment aggregation ----------------------------------------

VERDICTS = ("win", "tie", "loss")


def aggregate_judgments(first: str, second: str) -> str:
    """Combine two judges' verdicts on one comparison.

    win  -> both say win, or one win and one tie
    tie  -> both say tie, or the judges split win/loss
    fail -> both say loss, or one loss and one tie

    Symmetric in its arguments.
    """
    for v in (first, second):
        if v not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {v!r}")
    pair = {first, second}
    if pair == {"win"} or pair == {"win", "tie"}:
        return "win"
    if pair == {"tie"} or pair == {"win", "loss"}:
        return "tie"
    return "fail"


def tally_judgments(pairs: list[tuple[str, str]]) -> dict[str, int]:
    counts = {"win": 0, "tie": 0, "fail": 0}
    for first, second in pairs:
        counts[aggregate_judgments(first, second)] += 1
    return counts
