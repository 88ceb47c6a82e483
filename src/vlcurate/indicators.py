"""Per-sample quality indicators.

Four scalar signals are computed per sample: an image/response cosine
(``clip``), a response token count (``length``), a reward-model scalar
(``reward``), and an LLM auto-grader rating in [0, 100] (``gpt``). The
two model-backed scores come either from a warm cache or from generic
HTTP-JSON endpoints; the pure functions here never touch the network.
The endpoint clients speak HTTP/1.1 through the standard library's
``http.client``: each worker thread keeps one keep-alive connection per
endpoint and reopens it once, without spending a retry, when the server
closed it while it sat idle. ``score_corpus`` writes the scores into the
plain id -> ScoreRecord dict of corpus.py; each worker writes only the
records of the samples it was handed.

Instructions deliberately do not influence clip/length/reward values --
they enter only through the rating prompt's instruction slot.
"""

from __future__ import annotations

import functools
import http.client
import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from urllib.parse import quote, urlsplit

import numpy as np

from .corpus import ScoreCache, ScoreRecord, Triplet
from .errors import (
    BadConfig,
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
_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


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


@functools.cache
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

    Each worker thread keeps one keep-alive connection to the endpoint,
    opened on its first call. A connection that was reused and turns out
    to have been closed by the server -- a reset or broken pipe before the
    reply's status line -- is reopened and the request sent once more;
    that resend is not an attempt. Any other failed attempt counts against
    ``retries``: a transport error or timeout, which also closes the
    connection, or a reply -- always read in full, so the connection stays
    usable -- with an HTTP error status, a body that is not an object
    holding the field, or a value ``parse`` rejects. Once they are spent
    the call raises ScoringFailed.
    """

    def __init__(
        self,
        url: str,
        retries: int = 3,
        timeout: float = 30.0,
        headers: dict[str, str] | None = None,
    ):
        try:
            parts = urlsplit(url)
            port = parts.port
        except ValueError as exc:
            raise BadConfig(f"provider URL {url!r}: {exc}") from None
        if parts.scheme not in _CONNECTIONS or not parts.hostname or "@" in parts.netloc:
            raise BadConfig(f"provider URL {url!r} is not http:// or https:// with a "
                            "host and without user info")
        self.retries = retries
        self.headers = {"Content-Type": "application/json", **(headers or {})}
        self._connect = functools.partial(_CONNECTIONS[parts.scheme], parts.hostname,
                                          port, timeout=timeout)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        # percent-encode spaces and non-ASCII; keep reserved characters and escapes
        self._target = quote(target, safe="!#$%&'()*+,/:;=?@[]~")
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:  # connects on its first request
            conn = self._local.conn = self._connect()
            with self._lock:
                self._opened.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        with self._lock:
            for conn in self._opened:
                conn.close()

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        reused = conn.sock is not None
        try:
            conn.request("POST", self._target, body, self.headers)
            reply = conn.getresponse()
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            conn.close()
            conn.request("POST", self._target, body, self.headers)
            reply = conn.getresponse()
        data = reply.read()
        if reply.status in (204, 304):
            # http.client reads no body here; bytes sent anyway would be
            # read as the next reply's status line
            conn.close()
        return reply.status, data

    def _post(self, sample_id: str, payload: dict, field: str, parse) -> float:
        body = json.dumps(payload).encode()
        last_error = "no attempts made"
        for _ in range(max(1, self.retries)):
            conn = self._connection()
            try:
                status, data = self._exchange(conn, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                conn.close()  # the exchange may have stopped anywhere
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if not 200 <= status < 300:
                last_error = f"HTTP status {status}"
                continue
            try:
                reply = json.loads(data)
                if not isinstance(reply, dict) or field not in reply:
                    raise UnparseableScore(f"reply has no {field!r} field")
                return parse(reply[field])
            except (UnparseableScore, ScoreOutOfRange, TypeError, ValueError,
                    OverflowError, RecursionError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
        raise ScoringFailed(sample_id, last_error)


class RatingClient(_JsonClient):
    """HTTP auto-grader: POST {system, user} rendered from the default
    prompt template, reply {content}; retried on failure."""

    def score(self, triplet: Triplet) -> float:
        system, user = render_gpt_prompt(default_prompt_template(), triplet.instruction,
                                         triplet.response)
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
    features: dict[str, np.ndarray],
    cache: ScoreCache,
    gpt_provider: RatingClient | None = None,
    reward_provider: RewardClient | None = None,
    workers: int = 1,
) -> ScoreCache:
    """Fill the cache so every manifest id has complete indicator scores.

    Cached values are reused, never recomputed. clip comes from the rows of
    the image and text_clip feature matrices, which follow the manifest
    order; length from the response text; reward and gpt from the cache,
    else the provider, else MissingScore when the provider is absent
    (cache-only mode). Each manifest id's record is looked up once; the
    remote calls then run one sample at a time in the calling thread, or
    on ``workers`` threads that each write only the record of the sample
    they were handed, so the threads share no state.
    """
    image, text = features["image"], features["text_clip"]
    if len(image) != len(manifest) or len(text) != len(manifest):
        raise DimensionMismatch(
            f"feature rows ({len(image)}, {len(text)}) != manifest size {len(manifest)}"
        )
    pending = []
    for i, triplet in enumerate(manifest):
        record = cache.setdefault(triplet.id, ScoreRecord())
        if record.clip is None:
            record.clip = clip_score(image[i], text[i])
        if record.length is None:
            record.length = length_score(triplet.response)
        if record.reward is None or record.gpt is None:
            pending.append((triplet, record))

    def fill_remote(pair: tuple[Triplet, ScoreRecord]) -> None:
        triplet, record = pair
        if record.reward is None:
            if reward_provider is None:
                raise MissingScore(triplet.id, "reward")
            record.reward = reward_provider.score(triplet)
        if record.gpt is None:
            if gpt_provider is None:
                raise MissingScore(triplet.id, "gpt")
            record.gpt = gpt_provider.score(triplet)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(fill_remote, pending):
                pass
    else:
        for pair in pending:
            fill_remote(pair)

    for triplet in manifest:
        record = cache[triplet.id]
        record.validate()
        missing = record.missing()
        if missing:
            raise MissingScore(triplet.id, missing)
    return cache


def indicator_matrix(manifest: list[Triplet], cache: ScoreCache) -> np.ndarray:
    """Stack complete cached scores as an (N, 4) matrix in manifest order."""
    out = np.empty((len(manifest), 4), dtype=float)
    for i, triplet in enumerate(manifest):
        record = cache.get(triplet.id)
        missing = "all" if record is None else record.missing()
        if missing:
            raise MissingScore(triplet.id, missing)
        out[i] = (record.clip, float(record.length), record.reward, record.gpt)
    return out

