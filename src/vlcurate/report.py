"""Selection reports: quota tables, score histograms, oracle comparison.

Plots are self-contained SVG files written with fixed-precision
coordinates, so identical inputs produce byte-identical output. When a
planted-quality oracle is available the report compares the selected
subset's mean quality against seed-matched random subsets of the same
size.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import Triplet, read_json
from .curate import CurationResult


def svg_histogram(
    values, bins: int = 20, width: int = 480, height: int = 260, title: str = ""
) -> str:
    values = np.asarray(values, dtype=float)
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    top = max(int(counts.max()), 1)
    margin, plot_w, plot_h = 40, width - 60, height - 70
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
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
    selected mean's own standard error.
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
    se_selected = float(q_sel.std(ddof=1) / np.sqrt(alpha))
    pooled = float(np.sqrt(se_random**2 + se_selected**2))
    uplift = float(q_sel.mean() - random_means.mean())
    return {
        "alpha": alpha,
        "selected_mean_quality": float(q_sel.mean()),
        "random_mean_quality": float(random_means.mean()),
        "random_means": [float(v) for v in random_means],
        "uplift": uplift,
        "pooled_se": pooled,
        "z": uplift / pooled if pooled > 0.0 else float("inf"),
    }


def write_selection(
    out_dir: str | Path, result: CurationResult, manifest: list[Triplet]
) -> None:
    """Persist a curation result: selected manifest, per-pick records,
    and the summary consumed by the report stage."""
    from .corpus import write_manifest  # local import keeps module load light

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {t.id: t for t in manifest}
    write_manifest(
        [by_id[i] for i in result.selected_ids], out_dir / "selected.manifest.jsonl"
    )
    index = {t.id: i for i, t in enumerate(manifest)}
    with open(out_dir / "selection.jsonl", "w", encoding="utf-8") as fh:
        for cluster, picks in enumerate(result.ranked_per_cluster):
            for rank, sample_id in enumerate(picks):
                fh.write(json.dumps({
                    "id": sample_id,
                    "cluster": cluster,
                    "rank": rank,
                    "score": float(result.item_scores[index[sample_id]]),
                }) + "\n")
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
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report(
    out_dir: str | Path,
    manifest: list[Triplet],
    oracle: dict[str, float] | None = None,
    seed: int = 0,
) -> dict:
    """Render report.json plus histogram SVGs from a persisted selection."""
    out_dir = Path(out_dir)
    summary = read_json(out_dir / "summary.json", (
        "alpha", "k_clusters", "quotas", "cluster_sizes", "cluster_labels",
        "item_scores", "selected_ids"))
    scores = np.array(summary["item_scores"], dtype=float)
    labels = np.array(summary["cluster_labels"], dtype=int)
    selected = summary["selected_ids"]

    (out_dir / "score_hist.svg").write_text(
        svg_histogram(scores, title="selector scores, full corpus"), encoding="utf-8"
    )
    for j in range(summary["k_clusters"]):
        member_scores = scores[labels == j]
        (out_dir / f"cluster_{j:02d}_scores.svg").write_text(
            svg_histogram(
                member_scores,
                title=f"cluster {j}: {member_scores.size} samples, "
                      f"quota {summary['quotas'][j]}",
            ),
            encoding="utf-8",
        )

    report = {
        "alpha": summary["alpha"],
        "k_clusters": summary["k_clusters"],
        "quota_table": [
            {"cluster": j, "size": summary["cluster_sizes"][j], "quota": summary["quotas"][j]}
            for j in range(summary["k_clusters"])
        ],
        "score_summary": {
            "min": float(scores.min()),
            "mean": float(scores.mean()),
            "max": float(scores.max()),
        },
    }
    if oracle is not None:
        report["oracle_comparison"] = uplift_stats(
            oracle, selected, [t.id for t in manifest], seed=seed
        )
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
