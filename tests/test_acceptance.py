"""Acceptance suite: twelve checks covering fixture arithmetic, numeric
oracles, invariance properties, and the end-to-end synthetic pipeline.

Test names follow the test_criterion_NN pattern; the conftest reporting
hook turns each into one "[criterion NN] PASS/FAIL" line in the run log.
"""

import itertools
import json
import shutil
import time
from importlib import resources
from math import fsum

import numpy as np
import pytest

from vlcurate.cli import main as cli_main
from vlcurate.corpus import ScoreCache, ScoreRecord, load_manifest
from vlcurate.curate import VERDICTS, aggregate_judgments, allocate, curate, select_topk
from vlcurate.embedding import assemble_corpus
from vlcurate.errors import ScoreOutOfRange, UnparseableScore
from vlcurate.indicators import (
    default_prompt_template,
    indicator_matrix,
    parse_gpt_reply,
    render_gpt_prompt,
)
from vlcurate.numerics import (
    kmeans_pp,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    spearman,
    spectral_cluster,
)
from vlcurate.quality_labels import load_reference_reports, subset_labels
from vlcurate.selector import loss_and_grad, predict
from vlcurate.synth import read_oracle

from conftest import make_features, make_manifest
from test_numerics import canonical_labels, exhaustive_wcss_1d
from test_selector import _nonzero_head, fd_gradient, max_rel_err


def run_cli(work, stages):
    for stage in stages:
        assert cli_main([*stage, "--workdir", str(work)]) == 0, stage


# ----------------------------------------------------------- criterion 1

def test_criterion_01_reference_label_fixture():
    started = time.perf_counter()
    raw = resources.files("vlcurate.assets").joinpath("reference_labels.jsonl").read_text()
    rows = [json.loads(line) for line in raw.splitlines() if line.strip()]
    assert len(rows) == 30
    labels = subset_labels(list(range(30)), load_reference_reports())
    reported = {row["subset_id"]: row["reported_average"] for row in rows}
    for subset_id, label in enumerate(labels):
        if subset_id == 29:
            # this fixture row is internally inconsistent: its four scores
            # average to 31.6325 but the stated average is 31.64 (0.0075 off).
            # The recomputed mean is the authoritative label.
            assert label == pytest.approx(31.6325, abs=1e-12)
            continue
        # epsilon guard: one row's true mean sits exactly 0.005 away
        assert abs(label - reported[subset_id]) <= 0.005 + 1e-9, subset_id
    assert round(labels[0], 2) == 30.86
    assert round(labels[12], 2) == 31.69
    assert time.perf_counter() - started < 1.0


# ----------------------------------------------------------- criterion 2

def test_criterion_02_embedding_layout():
    n, m = 10, 6
    manifest = make_manifest(n)
    features = make_features(manifest, image_dim=4, text_dim=6)
    rng = np.random.default_rng(21)
    cache = ScoreCache()
    for t in manifest:
        cache[t.id] = ScoreRecord(
            clip=float(rng.uniform(-1, 1)),
            length=int(rng.integers(1, 200)),
            reward=float(rng.normal()),
            gpt=float(rng.uniform(0, 100)),
        )
    scores = indicator_matrix(manifest, cache)
    joint = np.hstack([features["image"], features["text_llm"]])
    embeddings = assemble_corpus(manifest, cache, features["image"], features["text_llm"], m,
                                 "joint")

    # hand-composed oracle: two-pass fsum z-scores for the four indicator
    # slots, then an explicit centered matrix product for the PCA block
    mu = [fsum(scores[:, j]) / n for j in range(4)]
    sd = [
        (fsum((scores[i, j] - mu[j]) ** 2 for i in range(n)) / n) ** 0.5
        for j in range(4)
    ]
    model = pca_fit(joint, m)
    assert embeddings.shape == (n, 4 + m)   # one row per sample, manifest order
    for i, emb in enumerate(embeddings):
        expect_z = [(scores[i, j] - mu[j]) / sd[j] for j in range(4)]
        expect_p = (joint[i] - model.mean) @ model.components.T
        expect = np.concatenate([expect_z, expect_p])
        assert np.max(np.abs(emb - expect)) < 1e-10
    # slot order is fixed: clip, length, reward, gpt, then the m features
    rec = cache[manifest[0].id]
    raw = np.array([rec.clip, float(rec.length), rec.reward, rec.gpt])
    z = (raw - np.array(mu)) / np.array(sd)
    assert embeddings[0, :4] == pytest.approx(z, abs=1e-12)


# ----------------------------------------------------------- criterion 3

def test_criterion_03_gradient_oracle():
    started = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sets = [rng.normal(size=(5, 5)) for _ in range(3)]
        labels = rng.normal(size=3)
        for kind in ("linear", "mlp", "attention"):
            model = _nonzero_head(kind, seed=seed, input_dim=5, d_model=4, ff_dim=8)
            _, grad = loss_and_grad(model, sets, labels)
            fd = fd_gradient(model, sets, labels, eps=1e-5)
            assert max_rel_err(grad, fd) < 1e-4, (kind, seed)
    assert time.perf_counter() - started < 30.0


# ----------------------------------------------------------- criterion 4

def test_criterion_04_permutation_invariance():
    model = _nonzero_head("attention", seed=11, input_dim=10, d_model=8, ff_dim=16)
    rng = np.random.default_rng(4)
    items = rng.normal(size=(20, 10))
    base = predict(model, items)
    for _ in range(50):
        perm = rng.permutation(20)
        assert predict(model, items[perm]) == base  # exact, not approximate


# ----------------------------------------------------------- criterion 5

def test_criterion_05_clustering_oracles():
    # k-means vs exhaustive 1-D minimum-WCSS partitions
    for n in range(4, 9):
        for k in range(1, 4):
            for seed in range(5):
                rng = np.random.default_rng(1000 * n + 100 * k + seed)
                values = rng.normal(size=n) * rng.uniform(0.5, 3.0)
                got = kmeans_pp(values.reshape(-1, 1), k, seed=seed).inertia
                want = exhaustive_wcss_1d(values, k)
                assert abs(got - want) < 1e-9, (n, k, seed)

    # balanced mode at full corpus scale: 30 clusters x 114 + 19 leftovers
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(12, 2)) * 8.0
    data = centers[rng.integers(0, 12, 3439)] + rng.normal(size=(3439, 2))
    balanced = kmeans_pp(data, 30, seed=0, balanced=True)
    assert balanced.sizes.tolist() == [114] * 30
    assert int((balanced.labels == -1).sum()) == 19

    # spectral recovery of two disconnected affinity blocks
    rng = np.random.default_rng(6)
    far = np.vstack([
        rng.normal(size=(30, 2)),
        rng.normal(size=(10, 2)) + 100.0,
    ])
    truth = np.array([0] * 30 + [1] * 10)
    got = spectral_cluster(far, 2, seed=0).labels
    assert np.array_equal(canonical_labels(got), canonical_labels(truth))

    # and of three separated gaussian blobs, 100% agreement up to relabeling
    blobs = np.vstack([
        rng.normal(scale=0.4, size=(25, 2)),
        rng.normal(scale=0.4, size=(20, 2)) + [12.0, 0.0],
        rng.normal(scale=0.4, size=(15, 2)) + [0.0, 12.0],
    ])
    truth = np.array([0] * 25 + [1] * 20 + [2] * 15)
    got = spectral_cluster(blobs, 3, seed=0).labels
    assert np.array_equal(canonical_labels(got), canonical_labels(truth))


# ----------------------------------------------------------- criterion 6

def test_criterion_06_pca_oracle():
    rng = np.random.default_rng(66)
    data = rng.normal(size=(20, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
    model = pca_fit(data, 6)
    assert model.components.shape == (6, 8)

    # brute force: eigendecomposition of the explicit covariance matrix
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (len(data) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    for j in range(6):
        vec = eigvecs[:, order[j]]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        assert np.max(np.abs(model.components[j] - vec)) < 1e-8, j

    # full-rank round trip
    full = pca_fit(data, 8)
    recon = pca_inverse_transform(full, pca_transform(full, data))
    assert np.max(np.abs(recon - data)) < 1e-9

    # m=6 output width enforced end to end
    reduced = pca_transform(model, data)
    assert reduced.shape == (20, 6)


# ----------------------------------------------------------- criterion 7

def test_criterion_07_allocation_and_selection():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sizes = rng.integers(1, 500, size=int(rng.integers(1, 20))).tolist()
        alpha = int(rng.integers(1, sum(sizes) + 1))
        quotas = allocate(sizes, alpha)
        assert sum(quotas) == alpha
        total = sum(sizes)
        assert all(abs(q - alpha * s / total) < 1 for q, s in zip(quotas, sizes))

    for seed in range(5):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=12)
        picked = select_topk(np.arange(12), scores, 4)
        best = max(
            scores[list(combo)].sum()
            for combo in itertools.combinations(range(12), 4)
        )
        assert scores[picked].sum() == pytest.approx(best, abs=1e-12)

    # monotone-transform invariance of the selected set
    n, k, alpha = 150, 5, 40
    manifest = make_manifest(n)
    rng = np.random.default_rng(70)
    scores = rng.normal(size=n)
    centers = rng.normal(size=(k, 3)) * 10.0
    vectors = centers[rng.integers(0, k, n)] + rng.normal(scale=0.05, size=(n, 3))
    base = curate(manifest, scores, vectors, k_clusters=k, alpha=alpha, seed=0)
    a1, a2, a3 = rng.uniform(0.5, 2.0, size=3)
    transforms = [
        lambda x: a1 * x + rng.normal(),
        lambda x: x ** 3,
        lambda x: np.exp(a2 * x),
        lambda x: np.arctan(x) * a3,
        lambda x: np.argsort(np.argsort(x)).astype(float),
    ]
    for f in transforms:
        alt = curate(manifest, f(scores), vectors, k_clusters=k, alpha=alpha, seed=0)
        assert alt.selected_ids == base.selected_ids


# ----------------------------------------------------------- criterion 8

def test_criterion_08_synthetic_uplift(tmp_path):
    started = time.perf_counter()
    work = tmp_path / "work"
    run_cli(work, (
        ["synth", "--seed", "0"],
        ["score"],
        ["embed"],
        ["split", "--oracle", "--seed", "0"],
        ["train-selector", "--seed", "0"],
        ["curate", "--seed", "0"],
        ["report", "--seed", "0"],
    ))
    manifest = load_manifest(work / "manifest.jsonl")
    oracle = read_oracle(work / "oracle.jsonl")
    summary = json.loads((work / "curated" / "summary.json").read_text())
    assert summary["alpha"] == 200 and summary["k_clusters"] == 10
    assert len(summary["selected_ids"]) == 200

    # selector scores must rank items close to the planted quality
    q_all = np.array([oracle[t.id] for t in manifest])
    rho = spearman(np.array(summary["item_scores"]), q_all)
    assert rho > 0.8, rho

    # selected mean quality vs 20 seed-matched random 200-subsets
    q_sel = np.array([oracle[i] for i in summary["selected_ids"]])
    rng = np.random.default_rng(0)
    random_means = np.array([
        q_all[rng.choice(len(q_all), size=200, replace=False)].mean()
        for _ in range(20)
    ])
    pooled = np.sqrt(
        random_means.std(ddof=1) ** 2 + q_sel.std(ddof=1) ** 2 / 200.0
    )
    z = (q_sel.mean() - random_means.mean()) / pooled
    assert z >= 2.0, z
    assert time.perf_counter() - started < 300.0


# ----------------------------------------------------------- criterion 9

ABLATION_BASE = (
    ["synth", "--n", "600", "--seed", "0"],
    ["score"],
    ["embed"],
    ["split", "--n-subsets", "12", "--oracle", "--seed", "0"],
    ["train-selector", "--epochs", "5", "--seed", "0"],
    ["curate", "--alpha", "60", "--clusters", "6", "--seed", "0"],
    ["report", "--seed", "0"],
)


@pytest.fixture(scope="module")
def ablation_base(tmp_path_factory):
    work = tmp_path_factory.mktemp("ablation") / "work"
    run_cli(work, ABLATION_BASE)
    return work


def _report_of(work):
    return json.loads((work / "curated" / "report.json").read_text())


def test_criterion_09_ablation_plumbing(ablation_base, tmp_path):
    base_report = _report_of(ablation_base)
    base_keys = set(base_report)

    def branch(name, stages):
        work = tmp_path / name
        shutil.copytree(ablation_base, work)
        run_cli(work, stages)
        report = _report_of(work)
        assert set(report) == base_keys, name
        assert sum(row["quota"] for row in report["quota_table"]) == report["alpha"]
        return report

    flat = branch("noclust", (
        ["curate", "--alpha", "60", "--clusters", "6", "--no-clustering", "--seed", "0"],
        ["report", "--seed", "0"],
    ))
    assert flat["k_clusters"] == 1

    for indicator in ("clip", "length", "reward", "gpt"):
        branch(f"ind-{indicator}", (
            ["curate", "--alpha", "60", "--clusters", "6",
             "--indicator", indicator, "--seed", "0"],
            ["report", "--seed", "0"],
        ))

    for layers in (1, 2, 3):
        branch(f"layers-{layers}", (
            ["train-selector", "--layers", str(layers), "--epochs", "5", "--seed", "0"],
            ["curate", "--alpha", "60", "--clusters", "6", "--seed", "0"],
            ["report", "--seed", "0"],
        ))

    for m in (4, 8):
        branch(f"m-{m}", (
            ["embed", "--feature-size", str(m)],
            ["split", "--n-subsets", "12", "--oracle", "--seed", "0"],
            ["train-selector", "--epochs", "5", "--seed", "0"],
            ["curate", "--alpha", "60", "--clusters", "6", "--seed", "0"],
            ["report", "--seed", "0"],
        ))


# ---------------------------------------------------------- criterion 10

GOLDEN_SYSTEM = (
    "We would like to request your feedback on the performance of an AI "
    "assistant. The assistant provides a caption based on an image and an "
    "instruction.\n"
    "\n"
    "Instruction: [Instruction]\n"
    "\n"
    "Caption: [Caption]"
)

GOLDEN_USER = (
    "Please rate according to the quality and variety of the caption to the "
    "instruction. Each assistant receives a score on a scale of 0 to 100, "
    "where a higher score indicates higher level of the quality and variety. "
    "Please first output a single line containing the value indicating the "
    "scores. In the subsequent line, please provide a comprehensive "
    "explanation of your evaluation, avoiding any potential bias. The "
    "instruction and caption are displayed following without image."
)


def test_criterion_10_prompt_golden_file():
    template = default_prompt_template()
    assert template.system_template == GOLDEN_SYSTEM
    assert template.user_template == GOLDEN_USER

    # byte-identity of everything around the two substitution slots
    system, user = render_gpt_prompt(template, "", "")
    assert system == GOLDEN_SYSTEM.replace("[Instruction]", "").replace("[Caption]", "")
    assert user == GOLDEN_USER

    system, _ = render_gpt_prompt(
        template, "Describe this image in detail.", "A cat."
    )
    assert "Instruction: Describe this image in detail." in system
    assert "Caption: A cat." in system

    # reply contract: first nonempty line carries the value
    assert parse_gpt_reply("87\nThe caption is clear...") == 87.0
    assert parse_gpt_reply("  95.5 \nexplanation") == 95.5
    with pytest.raises(UnparseableScore):
        parse_gpt_reply("Score: high")
    with pytest.raises(ScoreOutOfRange):
        parse_gpt_reply("150\nway too generous")
    with pytest.raises(ScoreOutOfRange):
        parse_gpt_reply("-3")


# ---------------------------------------------------------- criterion 11

def test_criterion_11_win_tie_fail():
    table = {
        ("win", "win"): "win",
        ("win", "tie"): "win",
        ("tie", "win"): "win",
        ("win", "loss"): "tie",
        ("loss", "win"): "tie",
        ("tie", "tie"): "tie",
        ("tie", "loss"): "fail",
        ("loss", "tie"): "fail",
        ("loss", "loss"): "fail",
    }
    assert len(table) == 9
    for (first, second), expected in table.items():
        assert aggregate_judgments(first, second) == expected, (first, second)
    for a, b in itertools.product(VERDICTS, repeat=2):
        assert aggregate_judgments(a, b) == aggregate_judgments(b, a)


# ---------------------------------------------------------- criterion 12

def test_criterion_12_byte_identical_selection(tmp_path):
    stages = (
        ["synth", "--n", "400", "--seed", "7"],
        ["score"],
        ["embed"],
        ["split", "--n-subsets", "10", "--oracle", "--seed", "7"],
        ["train-selector", "--epochs", "5", "--seed", "7"],
        ["curate", "--alpha", "50", "--clusters", "5", "--seed", "7"],
        ["report", "--seed", "7"],
    )
    outputs = []
    for name in ("one", "two"):
        work = tmp_path / name
        run_cli(work, stages)
        outputs.append((work / "curated" / "selected.manifest.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 50
