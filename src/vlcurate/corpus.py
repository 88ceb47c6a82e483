"""Every record file the pipeline reads or writes, and their framing.

On-disk formats are deliberately plain text:

* manifest (``manifest.jsonl``, ``curated/selected.manifest.jsonl``): one
  JSON object per line with fields
  ``id`` / ``image_path`` / ``instruction`` / ``response``
* feature matrix (``features/*.txt``, ``embeddings.txt``): header line
  ``id <dim>`` followed by ``<id> v1 ... v<dim>`` rows (decimal floats,
  whitespace separated)
* score cache (``scores.jsonl``): one JSON object per line keyed by ``id``
  with fields ``clip``, ``length``, ``reward``, ``gpt`` (all optional per row)

The other JSON record files are decoded by their own modules, but framed
here: ``oracle.jsonl`` (synth), ``eval_reports.jsonl`` and the shipped
reference labels (quality_labels), ``subsets/subsets.json`` and
``selector_model/losses.json`` (cli), ``selector_model/meta.json``
(selector), ``curated/selection.jsonl``, ``summary.json`` and
``report.json`` (report), and the ``.fingerprints/<stage>.sha256`` records
(config). ``read_jsonl``/``read_json`` turn a file into objects or a
MalformedRecord, with one policy for every file: UTF-8 text, one object
per non-blank line (or one object per file), and invalid JSON, nesting too
deep to decode, integers too long to convert and non-finite numbers
(``NaN``, ``Infinity``, ``1e999``) all rejected. ``write_jsonl`` /
``write_json`` write them back through ``atomic_write``.

Manifest file order is the canonical dataset order; every deterministic
tie-break downstream refers to it. Images are never opened here --
``image_ref`` is an opaque string for the out-of-process encoders.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyResponse,
    MalformedRecord,
    MissingFeature,
    NonFiniteFeature,
    ScoreOutOfRange,
)

REQUIRED_MATRICES = ("image", "text_clip", "text_llm")

# the four indicator scores, in score-cache and embedding slot order
SCORE_SLOTS = ("clip", "length", "reward", "gpt")

_MANIFEST_FIELDS = ("id", "image_path", "instruction", "response")


@dataclass(frozen=True)
class Triplet:
    """One instruction sample: an image reference plus instruction/response text."""

    id: str
    image_ref: str
    instruction: str
    response: str


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened for streaming reads as UTF-8 text; bytes that are
    not UTF-8 raise MalformedRecord naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MalformedRecord(None, f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file to write ``path`` through: the block writes a
    temporary file in the same directory, which replaces ``path`` only when
    the block ends without error, so a failed write leaves the previous
    file whole (no fsync: it guards against errors, not power loss)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- JSON record framing ---------------------------------------------------

def finite_float(value) -> float:
    """``float(value)``, raising ValueError when that is NaN or infinite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


# built once: json.loads and json.dumps build a new decoder or encoder per
# call whenever an argument differs from the defaults
_DECODER = json.JSONDecoder(parse_float=finite_float, parse_constant=finite_float)
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _decode(text: str, line_no: int | None, path: str | Path) -> dict:
    """The JSON object ``text`` holds; MalformedRecord for anything else."""
    try:
        blob = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no or exc.lineno,
                              f"{path}: invalid JSON ({exc.msg})") from None
    except (RecursionError, ValueError) as exc:
        raise MalformedRecord(line_no, f"{path}: invalid JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise MalformedRecord(line_no, f"{path}: not a JSON object")
    return blob


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line_no, object)`` for each non-blank line of ``path``."""
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, _decode(line, line_no, path)


def read_json(path: str | Path, keys: tuple[str, ...] = ()) -> dict:
    """A JSON object file holding at least ``keys``; MalformedRecord otherwise."""
    with open_text(path) as fh:
        blob = _decode(fh.read(), None, path)
    missing = [k for k in keys if k not in blob]
    if missing:
        raise MalformedRecord(None, f"{path}: missing key(s) {missing}")
    return blob


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(_ENCODER.encode(row) + "\n")


def write_json(path: str | Path, blob: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- manifest --------------------------------------------------------------

def load_manifest(path: str | Path) -> list[Triplet]:
    """Read a manifest file, preserving file order.

    Raises DuplicateId, MalformedRecord, or EmptyResponse on invalid input.
    """
    triplets: list[Triplet] = []
    seen: set[str] = set()
    for line_no, record in read_jsonl(path):
        missing = [f for f in _MANIFEST_FIELDS if f not in record]
        if missing:
            raise MalformedRecord(line_no, f"missing field(s) {missing}")
        sample_id = str(record["id"])
        if not sample_id:
            raise MalformedRecord(line_no, "empty id")
        if sample_id in seen:
            raise DuplicateId(f"duplicate id {sample_id!r} at line {line_no}")
        response = str(record["response"])
        if not response:
            raise EmptyResponse(sample_id)
        seen.add(sample_id)
        triplets.append(
            Triplet(
                id=sample_id,
                image_ref=str(record["image_path"]),
                instruction=str(record["instruction"]),
                response=response,
            )
        )
    return triplets


def write_manifest(triplets: Iterable[Triplet], path: str | Path) -> None:
    write_jsonl(path, ({"id": t.id, "image_path": t.image_ref,
                        "instruction": t.instruction, "response": t.response}
                       for t in triplets))


# -- feature matrices --------------------------------------------------------

def read_feature_file(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Parse one ``id <dim>`` header + rows file into an id->vector map."""
    rows: dict[str, np.ndarray] = {}
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "id":
            raise DimensionMismatch(f"{path}: bad header {' '.join(header)!r}")
        try:
            dim = int(header[1])
        except ValueError:
            raise DimensionMismatch(f"{path}: non-integer dimension in header") from None
        if dim < 1:
            raise DimensionMismatch(f"{path}: dimension must be >= 1")
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise DimensionMismatch(
                    f"{path}:{line_no}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=float)
            except ValueError:
                raise MalformedRecord(
                    line_no, f"{path}: non-numeric value in row {parts[0]!r}"
                ) from None
            if not np.isfinite(vec).all():
                raise NonFiniteFeature(f"{path}:{line_no}: non-finite entry")
            rows[parts[0]] = vec
    return rows, dim


def write_feature_file(path: str | Path, ids: Iterable[str], matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=float)
    ids = list(ids)
    with atomic_write(path) as fh:
        fh.write(f"id {matrix.shape[1]}\n")
        for sample_id, row in zip(ids, matrix):
            fh.write(sample_id + " " + " ".join(repr(float(v)) for v in row) + "\n")


def read_matrix(path: str | Path, ids: list[str]) -> np.ndarray:
    """The rows of a feature file for ``ids``, in that order, as an (N, dim)
    array. An id the file lacks raises MissingFeature named after the
    file's stem (``image``, ``embeddings``, ...)."""
    rows, dim = read_feature_file(path)
    out = np.empty((len(ids), dim), dtype=float)
    for i, sample_id in enumerate(ids):
        if sample_id not in rows:
            raise MissingFeature(sample_id, Path(path).stem)
        out[i] = rows[sample_id]
    return out


def load_features(
    feature_dir: str | Path,
    manifest: list[Triplet],
    names: tuple[str, ...] = REQUIRED_MATRICES,
) -> dict[str, np.ndarray]:
    """One (N, dim) matrix per ``<name>.txt`` file, rows in manifest order."""
    ids = [t.id for t in manifest]
    return {name: read_matrix(Path(feature_dir) / f"{name}.txt", ids) for name in names}


# -- score cache -------------------------------------------------------

@dataclass
class ScoreRecord:
    """Per-sample indicator scores; any field may be absent until scored."""

    clip: float | None = None
    length: int | None = None
    reward: float | None = None
    gpt: float | None = None

    def validate(self) -> None:
        if self.gpt is not None and not (0.0 <= self.gpt <= 100.0):
            raise ScoreOutOfRange(f"gpt score {self.gpt} outside [0, 100]")
        if self.length is not None and self.length < 0:
            raise ScoreOutOfRange(f"negative length {self.length}")
        for slot in SCORE_SLOTS:
            value = getattr(self, slot)
            if value is not None and not math.isfinite(value):
                raise ScoreOutOfRange(f"non-finite {slot} score")

    def missing(self) -> str | None:
        """The first slot without a score, or None when all four are set."""
        return next((slot for slot in SCORE_SLOTS if getattr(self, slot) is None), None)


class ScoreCache:
    """Mutable id -> ScoreRecord map, persisted as line-delimited JSON."""

    def __init__(self) -> None:
        self.records: dict[str, ScoreRecord] = {}

    def get(self, sample_id: str) -> ScoreRecord:
        if sample_id not in self.records:
            self.records[sample_id] = ScoreRecord()
        return self.records[sample_id]


def read_scores(path: str | Path) -> ScoreCache:
    cache = ScoreCache()
    for line_no, raw in read_jsonl(path):
        if "id" not in raw:
            raise MalformedRecord(line_no, "missing id")
        try:
            record = ScoreRecord(**{
                slot: None if raw.get(slot) is None
                else int(raw[slot]) if slot == "length" else finite_float(raw[slot])
                for slot in SCORE_SLOTS
            })
            record.validate()
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecord(line_no, f"non-numeric score field ({exc})") from None
        cache.records[str(raw["id"])] = record
    return cache


def write_scores(cache: ScoreCache, path: str | Path) -> None:
    for record in cache.records.values():
        record.validate()
    write_jsonl(path, (
        {"id": sample_id, **{slot: getattr(record, slot) for slot in SCORE_SLOTS
                             if getattr(record, slot) is not None}}
        for sample_id, record in cache.records.items()))
