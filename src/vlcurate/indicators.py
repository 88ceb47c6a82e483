"""Per-sample quality indicators.

Four scalar signals are computed per sample: an image/response cosine
(``clip``), a response token count (``length``), a reward-model scalar
(``reward``), and an LLM auto-grader rating in [0, 100] (``gpt``). The
two model-backed scores come either from a warm cache or from generic
HTTP-JSON endpoints; the pure functions here never touch the network.
The endpoint clients speak HTTP/1.1: each worker thread keeps one
keep-alive connection per endpoint and reopens it once, without spending
a retry, when the server closed it while it sat idle. The standard
library's ``http.client`` only opens those connections; each request
goes out in one write, and replies are parsed in this module.
``score_corpus`` writes the scores into the plain id -> ScoreRecord dict
of corpus.py; each worker writes only the records of the samples it was
handed.

Instructions deliberately do not influence clip/length/reward values --
they enter only through the rating prompt's instruction slot.
"""

from __future__ import annotations

import functools
import http.client
import json
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from urllib.parse import quote, urlsplit

import numpy as np

from .corpus import ScoreCache, ScoreRecord, Triplet, finite_float
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
from .numerics import row_dots

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


def clip_scores(image: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row pair of (N, d) image and response
    embeddings, clamped to [-1, 1]; each with the bits of
    ``np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))``, except for a
    pair whose squared norm overflows, or underflows to 0 from a nonzero
    row: that pair is scored again as ``a.b / sqrt(a.a * b.b)``, with each
    row divided by its largest absolute value first, so nothing overflows
    or underflows to 0."""
    image, text = np.asarray(image, dtype=float), np.asarray(text, dtype=float)
    if image.shape != text.shape:
        raise DimensionMismatch(f"vector shapes differ: {image.shape} vs {text.shape}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq_i, sq_t = row_dots(image, image), row_dots(text, text)
        redo = ~np.isfinite(sq_i) | ~np.isfinite(sq_t) | (sq_i == 0.0) | (sq_t == 0.0)
        cosine = row_dots(image, text) / (np.sqrt(sq_i) * np.sqrt(sq_t))
        if redo.any():
            a, b = image[redo], text[redo]
            if not (a.any(axis=1) & b.any(axis=1)).all():
                raise DegenerateEmbedding("zero-norm embedding")
            a /= np.abs(a).max(axis=1, keepdims=True)
            b /= np.abs(b).max(axis=1, keepdims=True)
            cosine[redo] = row_dots(a, b) / np.sqrt(row_dots(a, a) * row_dots(b, b))
    cosine = np.where(cosine > -1.0, cosine, -1.0)   # a NaN clamps to -1, as in max(-1.0, x)
    return np.where(cosine < 1.0, cosine, 1.0)


def clip_score(image_vec: np.ndarray, text_vec: np.ndarray) -> float:
    """Cosine similarity between an image embedding and a response embedding."""
    return float(clip_scores(np.asarray(image_vec)[None], np.asarray(text_vec)[None])[0])


def length_score(response: str) -> int:
    """Whitespace-delimited token count of the response."""
    return len(response.split())


# -- providers ---------------------------------------------------------

class _Connection:
    """Mixin for http.client's connections, which here only open and close
    the socket, adding one buffered reader for the replies."""

    reader = None

    def connect(self) -> None:
        super().connect()
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()  # else the socket's fd stays open
            self.reader = None
        super().close()


class _HTTPConnection(_Connection, http.client.HTTPConnection):
    pass


class _HTTPSConnection(_Connection, http.client.HTTPSConnection):
    pass


_CONNECTIONS = {"http": _HTTPConnection, "https": _HTTPSConnection}
# a header line: an ASCII name without colons, then a Latin-1 value; no CR, LF or NUL
_HEADER_RE = re.compile(r"[!-9;-~][\t -9;-~]*: [^\r\n\0\u0100-\U0010ffff]*")
_MAX_LINE, _MAX_FIELDS = 65536, 100   # http.client's limits
_HEX = re.compile(rb"[0-9A-Fa-f]+")
_STATUS = re.compile(rb"HTTP/1\.[0-9] [1-9][0-9][0-9](?: .*)?\r?\n", re.DOTALL)
_PIECE = 1 << 20
# full-jitter exponential backoff: after its a-th failed attempt, counted from
# 0, a client waits a uniform draw in [0, min(BACKOFF_CAP, BACKOFF_BASE * 2**a)]
# seconds; a 429 or 503 reply's Retry-After seconds, under the cap, replace it
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0


def _line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.HTTPException(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line, by lower-cased name."""
    fields = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"more than {_MAX_FIELDS} header lines")


def _exact(reader, size: int) -> bytes:
    # read in pieces, so that a length the server made up sizes no allocation
    data = b""
    while len(data) < size:
        piece = reader.read(min(size - len(data), _PIECE))
        if not piece:
            raise http.client.HTTPException(f"reply ended {size - len(data)} bytes early")
        data += piece
    return data


def _chunked(reader) -> bytes:
    chunks = []
    while True:
        size = _line(reader).partition(b";")[0].strip()
        if not _HEX.fullmatch(size):
            raise http.client.HTTPException(f"bad chunk size {size[:40]!r}")
        if int(size, 16) == 0:
            _fields(reader)  # the trailer
            return b"".join(chunks)
        chunks.append(_exact(reader, int(size, 16) + 2)[:-2])


def _read_reply(reader, line: bytes) -> tuple[int, dict[bytes, bytes], bytes, bool]:
    """Read the rest of an HTTP/1.x reply (RFC 9112) whose status line is
    ``line``: its status, its header fields, its body, and whether the
    connection stays open. Interim 1xx replies are skipped."""
    while True:
        if not _STATUS.fullmatch(line):
            raise http.client.HTTPException(f"bad status line {line[:80]!r}")
        status = int(line[9:12])
        fields = _fields(reader)
        if status >= 200:
            break
        line = _line(reader)
    connection = fields.get(b"connection", b"").lower()
    keep = (b"keep-alive" in connection if line.startswith(b"HTTP/1.0 ")
            else b"close" not in connection)
    if status in (204, 304):
        # no body; bytes sent anyway would be read as the next status line
        return status, fields, b"", False
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, fields, _chunked(reader), keep
    length = fields.get(b"content-length")
    if length is None:
        return status, fields, reader.read(), False   # the body ends at close
    if not length.isdigit():
        raise http.client.HTTPException(f"bad Content-Length {length[:40]!r}")
    return status, fields, _exact(reader, int(length)), keep


def _send(conn: _Connection, request: bytes) -> bytes:
    """Send a request in one write and read its reply's status line."""
    if conn.sock is None:
        conn.connect()
    conn.sock.sendall(request)
    line = _line(conn.reader)
    if not line:
        raise ConnectionResetError("connection closed before the reply's status line")
    return line


class _JsonClient:
    """POST a JSON payload, read one field of the JSON reply; retried on failure.

    Each worker thread keeps one keep-alive connection to the endpoint,
    opened on its first call. A request goes out in one write: its head is
    built once, as http.client would send it, and only the body and its
    length change per call. A connection that was reused and turns out
    to have been closed by the server -- a reset or broken pipe before the
    reply's status line, or no status line at all -- is reopened and the
    request sent once more; that resend is not an attempt. Any other failed
    attempt counts against ``retries``: a transport error, timeout or
    malformed reply, which also closes the connection, or a reply -- always
    read in full, so the connection stays usable unless the reply closes
    it -- with an HTTP error status, a body that is not an object
    holding the field, or a value ``parse`` rejects. Once they are spent
    the call raises ScoringFailed. Between two attempts the client calls
    ``sleep`` with the backoff's wait, drawn with ``draw`` (uniform in
    [0, 1)); both may be replaced, on the class or on a client.
    """

    sleep = staticmethod(time.sleep)
    draw = staticmethod(random.random)

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
            host = parts.hostname or ""
            host = host if host.isascii() else host.encode("idna").decode()
        except ValueError as exc:
            raise BadConfig(f"provider URL {url!r}: {exc}") from None
        if parts.scheme not in _CONNECTIONS or not parts.hostname or "@" in parts.netloc:
            raise BadConfig(f"provider URL {url!r} is not http:// or https:// with a "
                            "host and without user info")
        self.retries = retries
        connection = _CONNECTIONS[parts.scheme]
        port = connection.default_port if port is None else port
        self._connect = functools.partial(connection, parts.hostname, port, timeout=timeout)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        # percent-encode spaces and non-ASCII; keep reserved characters and escapes
        self._target = quote(target, safe="!#$%&'()*+,/:;=?@[]~")
        # the head http.client sends: Content-Length comes before the given headers
        if ":" in host:
            host = f"[{host.partition('%')[0]}]"
        if port != connection.default_port:
            host += f":{port}"
        self._head = (f"POST {self._target} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: ").encode()
        fields = [f"{name}: {value}" for name, value
                  in {"Content-Type": "application/json", **(headers or {})}.items()]
        if not all(map(_HEADER_RE.fullmatch, fields)):
            raise BadConfig("a provider header holds CR, LF or NUL, or is not an ASCII "
                            "name without colons with a Latin-1 value")
        self._tail = "\r\n".join(["", *fields, "", ""]).encode("latin-1")
        self._local = threading.local()
        self._opened: list[_Connection] = []
        self._lock = threading.Lock()

    def _connection(self) -> _Connection:
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

    def _exchange(self, conn: _Connection, body: bytes) -> tuple[int, dict, bytes]:
        request = b"%b%d%b%b" % (self._head, len(body), self._tail, body)
        reused = conn.sock is not None
        try:
            line = _send(conn, request)
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            conn.close()
            line = _send(conn, request)
        status, fields, data, keep = _read_reply(conn.reader, line)
        if not keep:
            conn.close()
        return status, fields, data

    def _wait(self, failed: int, retry_after: bytes | None) -> float:
        """The backoff's wait after the ``failed``-th failed attempt (from
        0); ``retry_after`` is the Retry-After field of a 429 or 503 reply."""
        if retry_after is not None and retry_after.isdigit():
            return min(BACKOFF_CAP, float(retry_after))
        # the exponent stops at 64, far past the cap, as 2.0 ** 1024 overflows
        return self.draw() * min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** min(failed, 64))

    def _post(self, sample_id: str, payload: dict, field: str, parse) -> float:
        body = json.dumps(payload).encode()
        last_error, retry_after = "no attempts made", None
        for attempt in range(max(1, self.retries)):
            if attempt:
                self.sleep(self._wait(attempt - 1, retry_after))
                retry_after = None
            conn = self._connection()
            try:
                status, fields, data = self._exchange(conn, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                conn.close()  # the exchange may have stopped anywhere
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if not 200 <= status < 300:
                last_error = f"HTTP status {status}"
                if status in (429, 503):
                    retry_after = fields.get(b"retry-after")
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


class RewardClient(_JsonClient):
    """HTTP reward model: POST {question, answer}, reply {score} (unbounded real)."""

    def score(self, triplet: Triplet) -> float:
        return self._post(triplet.id,
                          {"question": triplet.instruction, "answer": triplet.response},
                          "score", finite_float)


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
    order, in one ``clip_scores`` pass over the rows it is missing for;
    length from the response text; reward and gpt from the cache,
    else the provider, else MissingScore when the provider is absent
    (cache-only mode). The cache is changed only once every missing clip
    is computed. The remote calls then run one sample at a time in the
    calling thread, or on ``workers`` threads that each write only the
    record of the sample they were handed, so the threads share no state.
    """
    image, text = features["image"], features["text_clip"]
    if len(image) != len(manifest) or len(text) != len(manifest):
        raise DimensionMismatch(
            f"feature rows ({len(image)}, {len(text)}) != manifest size {len(manifest)}"
        )
    rows = [i for i, triplet in enumerate(manifest)
            if (record := cache.get(triplet.id)) is None or record.clip is None]
    clips = dict(zip(rows, clip_scores(image[rows], text[rows]).tolist())) if rows else {}
    pending = []
    for i, triplet in enumerate(manifest):
        record = cache.setdefault(triplet.id, ScoreRecord())
        if record.clip is None:
            record.clip = clips[i]
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

