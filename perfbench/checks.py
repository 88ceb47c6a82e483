"""Output checks for one benchmark round, computed apart from ``vlcurate``.

Every check reads the files a pipeline pass wrote and re-derives what
they must hold from the corpus and the method's definition, using only
json, hashlib and numpy. A check that does not hold raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the pipeline contradicts what the method requires."""


# -- readers ---------------------------------------------------------------

def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse an ``id <dim>`` header plus ``<id> v1 .. v<dim>`` rows."""
    with open(path, encoding="utf-8") as fh:
        dim = int(fh.readline().split()[1])
        rows = [line.split() for line in fh if line.strip()]
    ids = [row[0] for row in rows]
    matrix = np.array([row[1:] for row in rows], dtype=float).reshape(len(rows), dim)
    return ids, matrix


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of path, a file, or of
    every file under it, a directory."""
    digest = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for item in files:
        digest.update(str(item.relative_to(path.parent)).encode() + b"\0")
        digest.update(item.read_bytes())
    return digest.hexdigest()


# -- reference values ------------------------------------------------------

def expected_indicators(workdir: Path, manifest: list[dict]) -> dict[str, tuple[float, int]]:
    """id -> (cosine of image and text_clip rows, response word count)."""
    image_ids, image = read_matrix(workdir / "features" / "image.txt")
    text_ids, text = read_matrix(workdir / "features" / "text_clip.txt")
    if image_ids != text_ids:
        raise CheckFailed("image and text_clip feature files list different ids")
    cosine = np.einsum("ij,ij->i", image, text) / (
        np.linalg.norm(image, axis=1) * np.linalg.norm(text, axis=1))
    cosine = np.clip(cosine, -1.0, 1.0)
    by_id = dict(zip(image_ids, cosine.tolist()))
    return {row["id"]: (by_id[row["id"]], len(row["response"].split())) for row in manifest}


def spearman(a, b) -> float:
    """Pearson correlation of tie-averaged ranks."""
    return float(np.corrcoef(_ranks(a), _ranks(b))[0, 1])


def _ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    ranks = np.empty(values.size)
    ranks[np.argsort(values, kind="stable")] = np.arange(1.0, values.size + 1.0)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.bincount(inverse, weights=ranks) / counts)[inverse]


# -- checks ----------------------------------------------------------------

def check_selection(manifest: list[dict], selected_rows: list[dict],
                    summary: dict, alpha: int) -> None:
    """Exactly alpha unique manifest ids, written as the manifest rows, in corpus order."""
    ids = summary["selected_ids"]
    if len(ids) != alpha or len(set(ids)) != alpha:
        raise CheckFailed(f"summary selects {len(ids)} ids, {len(set(ids))} unique; "
                          f"alpha is {alpha}")
    position = {row["id"]: i for i, row in enumerate(manifest)}
    unknown = [i for i in ids if i not in position]
    if unknown:
        raise CheckFailed(f"selected ids not in the manifest: {unknown[:3]}")
    if [row.get("id") for row in selected_rows] != sorted(ids, key=position.__getitem__):
        raise CheckFailed("selected.manifest.jsonl ids differ from the summary's, "
                          "in corpus order")
    for row in selected_rows:
        if row != manifest[position[row["id"]]]:
            raise CheckFailed(f"selected row {row['id']} differs from its manifest row")


def check_quotas(summary: dict, alpha: int, n: int) -> None:
    """Largest-remainder quotas of alpha over the cluster sizes, in exact integers."""
    labels = np.asarray(summary["cluster_labels"])
    k = summary["k_clusters"]
    sizes = summary["cluster_sizes"]
    quotas = summary["quotas"]
    if labels.size != n or len(sizes) != k or len(quotas) != k:
        raise CheckFailed("cluster labels, sizes and quotas do not match N and k")
    if sizes != np.bincount(labels, minlength=k).tolist():
        raise CheckFailed("cluster_sizes disagree with cluster_labels")
    if sum(quotas) != alpha:
        raise CheckFailed(f"quotas sum to {sum(quotas)}, not alpha={alpha}")
    floors = [alpha * s // n for s in sizes]
    remainders = [alpha * s % n for s in sizes]
    bumped = []
    for j in range(k):
        if quotas[j] not in (floors[j], floors[j] + 1):
            raise CheckFailed(f"cluster {j}: quota {quotas[j]} is not "
                              f"floor({alpha}*{sizes[j]}/{n}) = {floors[j]} or one more")
        bumped.append(quotas[j] == floors[j] + 1)
    if any(bumped) and not all(bumped):
        lowest_bumped = min(r for r, b in zip(remainders, bumped) if b)
        highest_kept = max(r for r, b in zip(remainders, bumped) if not b)
        if lowest_bumped < highest_kept:
            raise CheckFailed("a leftover unit went to a smaller remainder than "
                              "one that got none")


def check_picks(summary: dict, manifest: list[dict]) -> None:
    """Each cluster contributes its quota, and no unpicked member outscores a pick."""
    labels = np.asarray(summary["cluster_labels"])
    scores = np.asarray(summary["item_scores"], dtype=float)
    if scores.size != labels.size:
        raise CheckFailed("item_scores and cluster_labels differ in length")
    position = {row["id"]: i for i, row in enumerate(manifest)}
    picked = np.zeros(labels.size, dtype=bool)
    picked[[position[i] for i in summary["selected_ids"]]] = True
    for j, quota in enumerate(summary["quotas"]):
        members = labels == j
        chosen = scores[members & picked]
        passed = scores[members & ~picked]
        if chosen.size != quota:
            raise CheckFailed(f"cluster {j} contributes {chosen.size} picks, quota {quota}")
        if chosen.size and passed.size and chosen.min() < passed.max():
            raise CheckFailed(f"cluster {j}: a pick scores {chosen.min()!r} below an "
                              f"unpicked member's {passed.max()!r}")


def check_scores(scores: list[dict], expected: dict[str, tuple[float, int]],
                 planted: dict[str, tuple[float, float]]) -> None:
    """clip and length as recomputed; reward and gpt exactly the planted values."""
    if sorted(row["id"] for row in scores) != sorted(expected):
        raise CheckFailed("scores.jsonl ids differ from the manifest's")
    for row in scores:
        clip, length = expected[row["id"]]
        if row.get("length") != length:
            raise CheckFailed(f"{row['id']}: length {row.get('length')!r}, "
                              f"word count {length}")
        if not isinstance(row.get("clip"), float) or abs(row["clip"] - clip) > 1e-12:
            raise CheckFailed(f"{row['id']}: clip {row.get('clip')!r}, cosine {clip!r}")
        if (row.get("reward"), row.get("gpt")) != planted[row["id"]]:
            raise CheckFailed(f"{row['id']}: reward/gpt {row.get('reward')!r}/"
                              f"{row.get('gpt')!r}, planted {planted[row['id']]!r}")
