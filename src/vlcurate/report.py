"""Selection reports: quota tables, score histograms, oracle comparison.

The score histograms, full corpus first and then one per cluster, are the
panels of one SVG, ``scores.svg``, written in one atomic write with
fixed-precision coordinates, so identical inputs produce byte-identical
output. When a planted-quality oracle is available the report compares
the selected subset's mean quality against seed-matched random subsets of
the same size, and gives the Spearman correlation of item score and
planted quality over the whole corpus (``spearman_q``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import (
    Triplet,
    atomic_write,
    read_json,
    write_json,
    write_jsonl,
    write_manifest,
)
from .curate import CurationResult
from .errors import MalformedRecord
from .numerics import spearman

PANEL_WIDTH, PANEL_HEIGHT = 480, 260


def svg_histogram(
    values, bins: int = 20, width: int = PANEL_WIDTH, height: int = PANEL_HEIGHT,
    title: str = "", y: int = 0,
) -> str:
    """A histogram of ``values`` as an ``<svg>`` panel whose top edge is at ``y``."""
    values = np.asarray(values, dtype=float)
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    top = max(int(counts.max()), 1)
    margin, plot_w, plot_h = 40, width - 60, height - 70
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" y="{y}" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    bar_w = plot_w / bins
    for i, count in enumerate(counts):
        bar_h = plot_h * count / top
        x = margin + i * bar_w
        y = margin + plot_h - bar_h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w - 1:.2f}" '
            f'height="{bar_h:.2f}" fill="#4878a8"/>'
        )
    axis_y = margin + plot_h
    parts.append(
        f'<line x1="{margin}" y1="{axis_y}" x2="{margin + plot_w}" y2="{axis_y}" '
        f'stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        x = margin + frac * plot_w
        label = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label:.3g}</text>'
        )
    parts.append(
        f'<text x="{margin - 8}" y="{margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{top}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def uplift_stats(
    oracle: dict[str, float],
    selected_ids,
    all_ids,
    seed: int = 0,
    n_random: int = 20,
) -> dict:
    """Selected-vs-random mean quality.

    z = (selected mean - mean of random-subset means) / pooled SE, where
    the pooled SE combines the spread of the random means with the
    selected mean's own standard error (0 for a single pick); z is None
    when the pooled SE is 0.
    """
    alpha = len(selected_ids)
    q_all = np.array([oracle[i] for i in all_ids])
    q_sel = np.array([oracle[i] for i in selected_ids])
    rng = np.random.default_rng(seed)
    random_means = np.array([
        q_all[rng.choice(len(q_all), size=alpha, replace=False)].mean()
        for _ in range(n_random)
    ])
    se_random = float(random_means.std(ddof=1))
    se_selected = float(q_sel.std(ddof=1) / np.sqrt(alpha)) if alpha > 1 else 0.0
    pooled = float(np.sqrt(se_random**2 + se_selected**2))
    uplift = float(q_sel.mean() - random_means.mean())
    return {
        "alpha": alpha,
        "selected_mean_quality": float(q_sel.mean()),
        "random_mean_quality": float(random_means.mean()),
        "random_means": [float(v) for v in random_means],
        "uplift": uplift,
        "pooled_se": pooled,
        "z": uplift / pooled if pooled > 0.0 else None,
    }


def write_selection(
    out_dir: str | Path, result: CurationResult, manifest: list[Triplet]
) -> None:
    """Persist a curation result: selected manifest, per-pick records,
    and the summary consumed by the report stage."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {t.id: t for t in manifest}
    write_manifest(
        [by_id[i] for i in result.selected_ids], out_dir / "selected.manifest.jsonl"
    )
    index = {t.id: i for i, t in enumerate(manifest)}
    write_jsonl(out_dir / "selection.jsonl", (
        {"id": sample_id, "cluster": cluster, "rank": rank,
         "score": float(result.item_scores[index[sample_id]])}
        for cluster, picks in enumerate(result.ranked_per_cluster)
        for rank, sample_id in enumerate(picks)))
    summary = {
        "alpha": len(result.selected_ids),
        "k_clusters": len(result.quotas),
        "quotas": [int(v) for v in result.quotas],
        "cluster_sizes": [
            int(np.count_nonzero(result.cluster_labels == j))
            for j in range(len(result.quotas))
        ],
        "cluster_labels": [int(v) for v in result.cluster_labels],
        "item_scores": [float(v) for v in result.item_scores],
        "selected_ids": list(result.selected_ids),
    }
    write_json(out_dir / "summary.json", summary)


def write_report(
    out_dir: str | Path,
    manifest: list[Triplet],
    oracle: dict[str, float] | None = None,
    seed: int = 0,
) -> dict:
    """Render report.json and the histograms' scores.svg from a persisted
    selection. A summary field of the wrong type or length, a manifest or
    selected id the oracle lacks, or no selected id to compare with it
    raises MalformedRecord before any file is written."""
    out_dir = Path(out_dir)
    path = out_dir / "summary.json"
    summary = read_json(path, (
        "alpha", "k_clusters", "quotas", "cluster_sizes", "cluster_labels",
        "item_scores", "selected_ids"))
    try:
        scores = np.array(summary["item_scores"], dtype=float)
        if not np.isfinite(scores).all():
            raise MalformedRecord(None, f"{path}: non-finite item score")
        labels = np.array(summary["cluster_labels"], dtype=int)
        k = summary["k_clusters"]
        if k != len(summary["quotas"]):
            raise MalformedRecord(None, f"{path}: k_clusters {k!r} but "
                                        f"{len(summary['quotas'])} quotas")
        report = {
            "alpha": summary["alpha"],
            "k_clusters": k,
            "quota_table": [
                {"cluster": j, "size": summary["cluster_sizes"][j],
                 "quota": summary["quotas"][j]}
                for j in range(k)
            ],
            "score_summary": {
                "min": float(scores.min()),
                "mean": float(scores.mean()),
                "max": float(scores.max()),
            },
        }
        # after the quota table, which fails fast on a k beyond the lists
        members = [scores[labels == j] for j in range(k)]
        if oracle is not None:
            ids = [t.id for t in manifest]
            lacking = [i for i in [*ids, *summary["selected_ids"]] if i not in oracle]
            if lacking:
                raise MalformedRecord(None, f"oracle has no quality for id {lacking[0]!r}")
            if not summary["selected_ids"]:
                raise MalformedRecord(None, f"{path}: no selected ids to compare")
            report["oracle_comparison"] = uplift_stats(
                oracle, summary["selected_ids"], ids, seed=seed)
            report["oracle_comparison"]["spearman_q"] = spearman(
                scores, np.array([oracle[i] for i in ids]))
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise MalformedRecord(None, f"{path}: bad summary field ({exc!r})") from None

    panels = [(scores, "selector scores, full corpus"), *(
        (member_scores, f"cluster {j}: {member_scores.size} samples, "
                        f"quota {summary['quotas'][j]}")
        for j, member_scores in enumerate(members))]
    with atomic_write(out_dir / "scores.svg") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_WIDTH}" '
                 f'height="{PANEL_HEIGHT * len(panels)}">\n')
        for i, (values, title) in enumerate(panels):
            fh.write(svg_histogram(values, title=title, y=PANEL_HEIGHT * i))
        fh.write("</svg>\n")
    write_json(out_dir / "report.json", report)
    return report
