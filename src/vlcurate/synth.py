"""Seeded synthetic corpus with planted per-sample quality.

Every sample gets a latent quality q ~ U(0,1). The four indicators are
noisy monotone functions of q, so their rank correlations with q land in
documented bands (SPEARMAN_BANDS) and a selector trained on subset labels
derived from q has a recoverable signal. The clip cosine is planted
exactly: the text_clip vector is constructed in the plane spanned by the
image vector and a random orthogonal direction so that
cos(image, text_clip) equals the target to float precision. Draw order:
q; blob centers, labels, noise; clip targets; one (N, d) block of those
directions; a redraw, one row at a time in row order, of each direction
whose part orthogonal to its image row has norm <= 1e-9; text_llm noise;
word counts; reward and gpt noise; then each sample's words, instruction.

Image vectors are drawn around 10 well-separated blob centers, giving the
spectral clustering stage real structure to find. An oracle file maps id
to q; it stands in for the fine-tune-and-benchmark loop that assigns real
quality labels, and is consumed only by reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .corpus import (
    ScoreCache,
    ScoreRecord,
    Triplet,
    finite_float,
    read_jsonl,
    write_feature_file,
    write_jsonl,
    write_manifest,
    write_scores,
)
from .errors import BadConfig, MalformedRecord
from .numerics import row_dots
from .quality_labels import EvalReport

N_BLOBS = 10
MIN_SAMPLES = 30

# how strongly the leading text_llm dims track quality (linear, then one
# quadratic dim); sized so the top principal component of [image | text_llm]
# is a quality direction of roughly indicator-slot magnitude
Q_LOADINGS = (6.0, -4.5, 3.6, -2.4, 1.8)
Q2_LOADING = 3.0

# expected Spearman(indicator, q) at the default noise levels
SPEARMAN_BANDS = {
    "clip": (0.90, 0.998),
    "length": (0.92, 0.999),
    "reward": (0.90, 0.995),
    "gpt": (0.92, 0.999),
}

_INSTRUCTIONS = (
    "Describe the main objects in the image.",
    "What is happening in this scene?",
    "Explain the spatial layout of the picture.",
    "Summarize what the image depicts.",
    "What activity is shown here?",
    "Identify the most prominent subject and its context.",
    "Give a detailed account of the scene.",
    "What stands out in this picture?",
)

_VOCAB = (
    "the", "a", "scene", "shows", "person", "holding", "near", "bright",
    "table", "window", "street", "dog", "red", "standing", "with", "small",
    "group", "water", "tree", "building", "light", "walking", "two", "on",
    "background", "field", "blue", "sitting", "large", "behind", "color",
)


@dataclass(frozen=True)
class SynthCorpus:
    manifest: list[Triplet]
    features: dict[str, np.ndarray]   # image, text_clip, text_llm; manifest order
    scores: ScoreCache          # reward and gpt pre-filled, clip/length left to scoring
    oracle: dict[str, float]    # id -> planted quality q


def generate(
    n: int, seed: int, image_dim: int = 16, text_dim: int = 24
) -> SynthCorpus:
    if n < MIN_SAMPLES:
        raise BadConfig(f"synthetic corpus needs n >= {MIN_SAMPLES}, got {n}")
    if image_dim < 2 or text_dim < 8:
        raise BadConfig("need image_dim >= 2 and text_dim >= 8")
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, n)

    # image features: 10 separated blobs, slight size imbalance via sampling.
    # Scales are matched to the standardized indicator slots: blob directions
    # land near unit variance after PCA, so they cannot drown the quality
    # signal in the assembled embeddings.
    centers = rng.normal(0.0, 1.0, (N_BLOBS, image_dim)) * 0.8
    blob = rng.integers(0, N_BLOBS, n)
    image = centers[blob] + rng.normal(0.0, 0.2, (n, image_dim))

    clip_target = np.clip(0.1 + 0.75 * q + rng.normal(0.0, 0.05, n), -1.0, 1.0)
    u = image / np.sqrt(row_dots(image, image))[:, None]
    v = rng.normal(0.0, 1.0, (n, image_dim))
    v -= row_dots(v, u)[:, None] * u
    norm = np.sqrt(row_dots(v, v))
    for i in np.flatnonzero(~(norm > 1e-9)):
        while not norm[i] > 1e-9:
            w = rng.normal(0.0, 1.0, image_dim)
            v[i] = w - (w @ u[i]) * u[i]
            norm[i] = np.linalg.norm(v[i])
    v /= norm[:, None]
    sine = np.sqrt(np.maximum(0.0, 1.0 - clip_target * clip_target))[:, None]
    text_clip = clip_target[:, None] * u + sine * v

    # language-model text features: leading dims strongly loaded on q so the
    # top principal component of [image | text_llm] is a quality direction
    text_llm = rng.normal(0.0, 0.3, (n, text_dim))
    for dim, coef in enumerate(Q_LOADINGS):
        text_llm[:, dim] += coef * q
    text_llm[:, len(Q_LOADINGS)] += Q2_LOADING * q * q

    word_counts = np.maximum(
        1, 8 + np.rint(80.0 * q + rng.normal(0.0, 4.0, n)).astype(int)
    )
    reward = 4.0 * q - 2.0 + rng.normal(0.0, 0.3, n)
    gpt = np.clip(100.0 * q + rng.normal(0.0, 5.0, n), 0.0, 100.0)

    ids = [f"syn-{i:05d}" for i in range(n)]
    manifest = []
    for sample_id, count in zip(ids, word_counts.tolist()):
        words = rng.integers(0, len(_VOCAB), size=count).tolist()
        manifest.append(
            Triplet(
                id=sample_id,
                image_ref=f"images/{sample_id}.png",
                instruction=_INSTRUCTIONS[int(rng.integers(len(_INSTRUCTIONS)))],
                response=" ".join([_VOCAB[w] for w in words]),
            )
        )
    scores: ScoreCache = {sample_id: ScoreRecord(reward=r, gpt=g)
                          for sample_id, r, g in zip(ids, reward.tolist(), gpt.tolist())}
    oracle = dict(zip(ids, q.tolist()))

    features = {"image": image, "text_clip": text_clip, "text_llm": text_llm}
    return SynthCorpus(manifest=manifest, features=features, scores=scores, oracle=oracle)


def write_corpus(corpus: SynthCorpus, cfg: PipelineConfig) -> None:
    """Write ``corpus`` to the paths ``cfg`` names, with the twins of its
    feature files in ``cfg``'s matrix store."""
    cfg.features_path().mkdir(parents=True, exist_ok=True)
    for path in (cfg.manifest_path(), cfg.scores_path(), cfg.oracle_path()):
        path.parent.mkdir(parents=True, exist_ok=True)
    write_manifest(corpus.manifest, cfg.manifest_path())
    ids = [t.id for t in corpus.manifest]
    for name, matrix in corpus.features.items():
        write_feature_file(cfg.features_path() / f"{name}.txt", ids, matrix,
                           cfg.matrix_store())
    write_scores(corpus.scores, cfg.scores_path())
    write_oracle(corpus.oracle, cfg.oracle_path())


def write_oracle(oracle: dict[str, float], path: str | Path) -> None:
    write_jsonl(path, ({"id": sample_id, "q": q} for sample_id, q in oracle.items()))


def read_oracle(path: str | Path) -> dict[str, float]:
    oracle: dict[str, float] = {}
    for line_no, blob in read_jsonl(path):
        try:
            oracle[str(blob["id"])] = finite_float(blob["q"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(line_no, f"bad oracle record: {exc}") from exc
    return oracle


# four pseudo-benchmarks: baseline-relative gains, affine in the subset's
# mean quality and roughly zero at mid quality. Centered labels keep the
# short fixed training budget spent on separating subsets instead of
# chasing a large common offset.
_BENCHMARKS = (
    ("synth_vqa_gain", -27.0, 55.0),
    ("synth_gqa_gain", -19.5, 40.0),
    ("synth_cap_gain", -34.5, 70.0),
    ("synth_ret_gain", -14.6, 30.0),
)


def oracle_eval_reports(
    subsets: list[tuple[str, ...]], oracle: dict[str, float], seed: int = 0
) -> list[EvalReport]:
    """Stand-in for the external fine-tune/benchmark loop: the gains of
    subset j (the j-th tuple of member ids) are affine in its mean planted
    quality, plus a little seeded noise."""
    lacking = [i for members in subsets for i in members if i not in oracle]
    if lacking:
        raise MalformedRecord(None, f"oracle has no quality for id {lacking[0]!r}")
    rng = np.random.default_rng(seed)
    reports = []
    for subset_id, members in enumerate(subsets):
        mean_q = float(np.mean([oracle[i] for i in members]))
        scores = {
            name: float(base + scale * mean_q + rng.normal(0.0, 0.25))
            for name, base, scale in _BENCHMARKS
        }
        reports.append(EvalReport(subset_id=subset_id, scores=scores))
    return reports
