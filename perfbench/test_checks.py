"""Each output check accepts a correct curated output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import math

import pytest

from checks import (
    CheckFailed,
    check_picks,
    check_quotas,
    check_scores,
    check_selection,
    spearman,
    tree_digest,
)

ALPHA = 4
# ten samples in two clusters of 6 and 4: floors 2 and 1, remainders 4 and 6
# (of 10), so the one leftover unit goes to cluster 1 and the quotas are 2, 2
LABELS = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
SCORES = [0.9, 0.1, 0.8, 0.3, 0.2, 0.4, 0.05, 0.7, 0.6, 0.5]
MANIFEST = [
    {"id": f"s{i}", "image_path": f"images/s{i}.png", "instruction": "Describe.",
     "response": " ".join(["word"] * (i + 1))}
    for i in range(10)
]
SELECTED = ["s0", "s2", "s7", "s8"]     # top two of each cluster, in corpus order


def _summary() -> dict:
    return {"alpha": ALPHA, "k_clusters": 2, "quotas": [2, 2], "cluster_sizes": [6, 4],
            "cluster_labels": list(LABELS), "item_scores": list(SCORES),
            "selected_ids": list(SELECTED)}


def _selected_rows() -> list[dict]:
    return [copy.deepcopy(MANIFEST[int(i[1:])]) for i in SELECTED]


def _check_all(summary: dict, rows: list[dict]) -> None:
    check_selection(MANIFEST, rows, summary, ALPHA)
    check_quotas(summary, ALPHA, len(MANIFEST))
    check_picks(summary, MANIFEST)


def test_correct_output_passes():
    _check_all(_summary(), _selected_rows())


def test_duplicated_id_rejected():
    summary, rows = _summary(), _selected_rows()
    summary["selected_ids"][1] = summary["selected_ids"][0]
    rows[1] = copy.deepcopy(rows[0])
    with pytest.raises(CheckFailed, match="unique"):
        _check_all(summary, rows)


def test_selected_row_differing_from_manifest_rejected():
    rows = _selected_rows()
    rows[2]["response"] += " extra"
    with pytest.raises(CheckFailed, match="differs from its manifest row"):
        check_selection(MANIFEST, rows, _summary(), ALPHA)


@pytest.mark.parametrize("quotas", [[3, 1], [2, 3], [1, 3]])
def test_quota_off_by_one_rejected(quotas):
    summary = _summary()
    summary["quotas"] = quotas
    with pytest.raises(CheckFailed):
        check_quotas(summary, ALPHA, len(MANIFEST))


def test_cluster_sizes_must_match_labels():
    summary = _summary()
    summary["cluster_sizes"] = [5, 5]
    with pytest.raises(CheckFailed, match="cluster_sizes"):
        check_quotas(summary, ALPHA, len(MANIFEST))


def test_swapped_pick_rejected():
    # s5 (0.4) replaces s2 (0.8) in cluster 0: the quota still holds, the order does not
    summary = _summary()
    summary["selected_ids"] = ["s0", "s5", "s7", "s8"]
    with pytest.raises(CheckFailed, match="below an unpicked"):
        check_picks(summary, MANIFEST)


def test_pick_moved_across_clusters_rejected():
    summary = _summary()
    summary["selected_ids"] = ["s0", "s2", "s5", "s7"]
    with pytest.raises(CheckFailed, match="contributes"):
        check_picks(summary, MANIFEST)


def _scores_and_expectations():
    expected = {row["id"]: (0.5, len(row["response"].split())) for row in MANIFEST}
    planted = {row["id"]: (1.25, 60.0) for row in MANIFEST}
    scores = [{"id": row["id"], "clip": 0.5, "length": expected[row["id"]][1],
               "reward": 1.25, "gpt": 60.0} for row in MANIFEST]
    return scores, expected, planted


@pytest.mark.parametrize("field, value", [
    ("clip", 0.5 + 1e-9), ("length", 99), ("reward", 1.2500000000000002), ("gpt", None),
])
def test_corrupted_score_rejected(field, value):
    scores, expected, planted = _scores_and_expectations()
    check_scores(scores, expected, planted)
    scores[3][field] = value
    with pytest.raises(CheckFailed):
        check_scores(scores, expected, planted)


def test_spearman_averages_ties():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4)
    expected = 4.5 / math.sqrt(4.5 * 5.0)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(expected)


def test_digest_covers_file_and_directory_contents(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "m.txt").write_text("a")
    (tmp_path / "f.txt").write_text("a")
    before = tree_digest(tmp_path / "d"), tree_digest(tmp_path / "f.txt")
    (tmp_path / "d" / "m.txt").write_text("b")
    (tmp_path / "f.txt").write_text("b")
    after = tree_digest(tmp_path / "d"), tree_digest(tmp_path / "f.txt")
    assert before[0] != after[0] and before[1] != after[1]
