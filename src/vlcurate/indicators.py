"""Per-sample quality indicators.

Four scalar signals are computed per sample: an image/response cosine
(``clip``), a response token count (``length``), a reward-model scalar
(``reward``), and an LLM auto-grader rating in [0, 100] (``gpt``). The
two model-backed scores come either from a warm cache or from generic
HTTP-JSON endpoints; the pure functions here never touch the network.

Instructions deliberately do not influence clip/length/reward values --
they enter only through the rating prompt's instruction slot.
"""

from __future__ import annotations

import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np
import requests

from .corpus import FeatureStore, ScoreCache, ScoreRecord, Triplet
from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    MissingScore,
    ScoreOutOfRange,
    ScoringFailed,
    TemplateError,
    UnparseableScore,
)

_PLACEHOLDERS = ("[Instruction]", "[Caption]")
_SLOT_RE = re.compile(r"\[Instruction\]|\[Caption\]")


def _load_asset(name: str) -> str:
    text = resources.files("vlcurate.assets").joinpath(name).read_text(encoding="utf-8")
    # assets are stored with one trailing newline for editor friendliness
    return text[:-1] if text.endswith("\n") else text


@dataclass(frozen=True)
class PromptTemplate:
    """Auto-grader prompt: a system text with two slots plus a fixed user text."""

    system_template: str
    user_template: str

    def validate(self) -> None:
        for placeholder in _PLACEHOLDERS:
            if placeholder not in self.system_template:
                raise TemplateError(f"system template lacks the {placeholder} slot")


def default_prompt_template() -> PromptTemplate:
    return PromptTemplate(
        system_template=_load_asset("rating_prompt_system.txt"),
        user_template=_load_asset("rating_prompt_user.txt"),
    )


def render_gpt_prompt(
    template: PromptTemplate, instruction: str, response: str
) -> tuple[str, str]:
    """Fill the two slots in a single pass; substituted text is never rescanned."""
    template.validate()
    mapping = {"[Instruction]": instruction, "[Caption]": response}
    system = _SLOT_RE.sub(lambda m: mapping[m.group(0)], template.system_template)
    return system, template.user_template


def parse_gpt_reply(body: str) -> float:
    """Parse the first nonempty line of a rating reply as a number in [0, 100]."""
    if not isinstance(body, str):
        raise UnparseableScore(f"reply {body!r} is not text")
    for line in body.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise UnparseableScore(f"first line {stripped!r} is not a number") from None
        if not (0.0 <= value <= 100.0):
            raise ScoreOutOfRange(f"rating {value} outside [0, 100]")
        return value
    raise UnparseableScore("empty reply")


def clip_score(image_vec: np.ndarray, text_vec: np.ndarray) -> float:
    """Cosine similarity between an image embedding and a response embedding."""
    image_vec = np.asarray(image_vec, dtype=float)
    text_vec = np.asarray(text_vec, dtype=float)
    if image_vec.shape != text_vec.shape:
        raise DimensionMismatch(
            f"vector shapes differ: {image_vec.shape} vs {text_vec.shape}"
        )
    norm_i = float(np.linalg.norm(image_vec))
    norm_t = float(np.linalg.norm(text_vec))
    if norm_i == 0.0 or norm_t == 0.0:
        raise DegenerateEmbedding("zero-norm embedding")
    cosine = float(np.dot(image_vec, text_vec) / (norm_i * norm_t))
    return min(1.0, max(-1.0, cosine))


def length_score(response: str) -> int:
    """Whitespace-delimited token count of the response."""
    return len(response.split())


# -- providers ---------------------------------------------------------

class _JsonClient:
    """POST a JSON payload, read one field of the JSON reply; retried on failure.

    Any failed attempt -- transport error, HTTP error status, a reply that
    is not an object holding the field, or a value ``parse`` rejects --
    counts against ``retries``; once they are spent the call raises
    ScoringFailed.
    """

    def __init__(
        self,
        url: str,
        retries: int = 3,
        timeout: float = 30.0,
        headers: dict[str, str] | None = None,
        session: requests.Session | None = None,
    ):
        self.url = url
        self.retries = retries
        self.timeout = timeout
        self.headers = headers or {}
        self.session = session or requests.Session()

    def _post(self, sample_id: str, payload: dict, field: str, parse) -> float:
        last_error = "no attempts made"
        for _ in range(max(1, self.retries)):
            try:
                reply = self.session.post(
                    self.url, json=payload, timeout=self.timeout, headers=self.headers
                )
                reply.raise_for_status()
                body = reply.json()
                if not isinstance(body, dict) or field not in body:
                    raise UnparseableScore(f"reply has no {field!r} field")
                return parse(body[field])
            except (UnparseableScore, ScoreOutOfRange, requests.RequestException,
                    TypeError, ValueError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
        raise ScoringFailed(sample_id, last_error)


class RatingClient(_JsonClient):
    """HTTP auto-grader: POST {system, user}, reply {content}; retried on failure."""

    def __init__(
        self,
        url: str,
        template: PromptTemplate | None = None,
        retries: int = 3,
        timeout: float = 30.0,
        headers: dict[str, str] | None = None,
        session: requests.Session | None = None,
    ):
        super().__init__(url, retries, timeout, headers, session)
        self.template = template or default_prompt_template()

    def score(self, triplet: Triplet, template: PromptTemplate | None = None) -> float:
        system, user = render_gpt_prompt(
            template or self.template, triplet.instruction, triplet.response
        )
        return self._post(triplet.id, {"system": system, "user": user},
                          "content", parse_gpt_reply)


def _finite_reward(value) -> float:
    # a NaN or infinite reward would fail the cache's validation and so
    # keep every other paid score from being written; fail the call instead
    score = float(value)
    if not math.isfinite(score):
        raise ScoreOutOfRange(f"non-finite reward {score}")
    return score


class RewardClient(_JsonClient):
    """HTTP reward model: POST {question, answer}, reply {score} (unbounded real)."""

    def score(self, triplet: Triplet) -> float:
        return self._post(triplet.id,
                          {"question": triplet.instruction, "answer": triplet.response},
                          "score", _finite_reward)


# -- corpus-level scoring ----------------------------------------------

def score_corpus(
    manifest: list[Triplet],
    features: FeatureStore,
    cache: ScoreCache,
    gpt_provider: RatingClient | None = None,
    reward_provider: RewardClient | None = None,
    workers: int = 1,
) -> ScoreCache:
    """Fill the cache so every manifest id has complete indicator scores.

    Cached values are reused, never recomputed. clip comes from the image
    and text_clip feature matrices; length from the response text; reward
    and gpt from the cache, else the provider, else MissingScore when the
    provider is absent (cache-only mode).
    """
    lock = threading.Lock()

    def fill_local(triplet: Triplet) -> None:
        record = cache.get(triplet.id)
        if record.clip is None:
            record.clip = clip_score(
                features.vector("image", triplet.id),
                features.vector("text_clip", triplet.id),
            )
        if record.length is None:
            record.length = length_score(triplet.response)

    def fill_remote(triplet: Triplet) -> None:
        with lock:
            record = cache.get(triplet.id)
            need_reward = record.reward is None
            need_gpt = record.gpt is None
        if need_reward:
            if reward_provider is None:
                raise MissingScore(triplet.id, "reward")
            value = reward_provider.score(triplet)
            with lock:
                record.reward = value
        if need_gpt:
            if gpt_provider is None:
                raise MissingScore(triplet.id, "gpt")
            value = gpt_provider.score(triplet)
            with lock:
                record.gpt = value

    for triplet in manifest:
        fill_local(triplet)

    pending = [
        t
        for t in manifest
        if cache.get(t.id).reward is None or cache.get(t.id).gpt is None
    ]
    if pending:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(fill_remote, pending):
                    _ = result
        else:
            for triplet in pending:
                fill_remote(triplet)

    for triplet in manifest:
        record = cache.records[triplet.id]
        record.validate()
        if not record.complete():
            missing = next(
                f for f in ("clip", "length", "reward", "gpt") if getattr(record, f) is None
            )
            raise MissingScore(triplet.id, missing)
    return cache


def indicator_matrix(manifest: list[Triplet], cache: ScoreCache) -> np.ndarray:
    """Stack complete cached scores as an (N, 4) matrix in manifest order."""
    out = np.empty((len(manifest), 4), dtype=float)
    for i, triplet in enumerate(manifest):
        record = cache.records.get(triplet.id)
        if record is None or not record.complete():
            missing = "all" if record is None else next(
                f for f in ("clip", "length", "reward", "gpt") if getattr(record, f) is None
            )
            raise MissingScore(triplet.id, missing)
        out[i] = (record.clip, float(record.length), record.reward, record.gpt)
    return out


def scores_from_record(record: ScoreRecord) -> np.ndarray:
    return np.array(
        [record.clip, float(record.length), record.reward, record.gpt], dtype=float
    )
