"""Dataset manifest, feature-matrix, and score-cache I/O.

On-disk formats are deliberately plain text:

* manifest: one JSON object per line with fields
  ``id`` / ``image_path`` / ``instruction`` / ``response``
* feature matrix: header line ``id <dim>`` followed by
  ``<id> v1 ... v<dim>`` rows (decimal floats, whitespace separated)
* score cache: one JSON object per line keyed by ``id`` with fields
  ``clip``, ``length``, ``reward``, ``gpt`` (all optional per row)

Manifest file order is the canonical dataset order; every deterministic
tie-break downstream refers to it. Images are never opened here --
``image_ref`` is an opaque string for the out-of-process encoders.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

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

_MANIFEST_FIELDS = ("id", "image_path", "instruction", "response")


@dataclass(frozen=True)
class Triplet:
    """One instruction sample: an image reference plus instruction/response text."""

    id: str
    image_ref: str
    instruction: str
    response: str


def load_manifest(path: str | Path) -> list[Triplet]:
    """Read a manifest file, preserving file order.

    Raises DuplicateId, MalformedRecord, or EmptyResponse on invalid input.
    """
    triplets: list[Triplet] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise MalformedRecord(line_no, "record is not an object")
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
    with open(path, "w", encoding="utf-8") as fh:
        for t in triplets:
            fh.write(
                json.dumps(
                    {
                        "id": t.id,
                        "image_path": t.image_ref,
                        "instruction": t.instruction,
                        "response": t.response,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


class FeatureStore:
    """Named feature matrices with rows aligned to the manifest order."""

    def __init__(self, matrices: Mapping[str, np.ndarray], ids: list[str]):
        self.ids = list(ids)
        self._index = {sample_id: row for row, sample_id in enumerate(self.ids)}
        self.matrices = {name: np.asarray(m, dtype=float) for name, m in matrices.items()}
        for name, m in self.matrices.items():
            if m.ndim != 2 or m.shape[0] != len(self.ids):
                raise DimensionMismatch(
                    f"matrix {name!r} has shape {m.shape}, expected ({len(self.ids)}, dim)"
                )
            if not np.isfinite(m).all():
                raise NonFiniteFeature(f"matrix {name!r} contains non-finite entries")

    def matrix(self, name: str) -> np.ndarray:
        return self.matrices[name]

    def dim(self, name: str) -> int:
        return self.matrices[name].shape[1]

    def vector(self, name: str, sample_id: str) -> np.ndarray:
        return self.matrices[name][self._index[sample_id]]

    def row_index(self, sample_id: str) -> int:
        return self._index[sample_id]


def read_feature_file(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Parse one ``id <dim>`` header + rows file into an id->vector map."""
    rows: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
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
) -> FeatureStore:
    """Load one ``<name>.txt`` file per matrix and align rows to the manifest."""
    ids = [t.id for t in manifest]
    return FeatureStore(
        {name: read_matrix(Path(feature_dir) / f"{name}.txt", ids) for name in names}, ids
    )


def read_json(path: str | Path, keys: tuple[str, ...]) -> dict:
    """A JSON object file holding at least ``keys``; MalformedRecord otherwise."""
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(exc.lineno, f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(blob, dict):
        raise MalformedRecord(None, f"{path}: not a JSON object")
    missing = [k for k in keys if k not in blob]
    if missing:
        raise MalformedRecord(None, f"{path}: missing key(s) {missing}")
    return blob


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
        for field in ("clip", "reward", "gpt"):
            value = getattr(self, field)
            if value is not None and not math.isfinite(value):
                raise ScoreOutOfRange(f"non-finite {field} score")

    def complete(self) -> bool:
        return None not in (self.clip, self.length, self.reward, self.gpt)


class ScoreCache:
    """Mutable id -> ScoreRecord map, persisted as line-delimited JSON."""

    def __init__(self) -> None:
        self.records: dict[str, ScoreRecord] = {}

    def get(self, sample_id: str) -> ScoreRecord:
        if sample_id not in self.records:
            self.records[sample_id] = ScoreRecord()
        return self.records[sample_id]

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self.records

    def __len__(self) -> int:
        return len(self.records)


def read_scores(path: str | Path) -> ScoreCache:
    cache = ScoreCache()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(raw, dict):
                raise MalformedRecord(line_no, "record is not an object")
            if "id" not in raw:
                raise MalformedRecord(line_no, "missing id")
            try:
                record = ScoreRecord(
                    clip=None if raw.get("clip") is None else float(raw["clip"]),
                    length=None if raw.get("length") is None else int(raw["length"]),
                    reward=None if raw.get("reward") is None else float(raw["reward"]),
                    gpt=None if raw.get("gpt") is None else float(raw["gpt"]),
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedRecord(line_no, f"non-numeric score field ({exc})") from None
            record.validate()
            cache.records[str(raw["id"])] = record
    return cache


def write_scores(cache: ScoreCache, path: str | Path) -> None:
    """Write the cache to a temporary file and move it over ``path``, so a
    failed write leaves the previous cache whole."""
    for record in cache.records.values():
        record.validate()
    tmp = Path(f"{path}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for sample_id, record in cache.records.items():
            row: dict[str, object] = {"id": sample_id}
            for field in ("clip", "length", "reward", "gpt"):
                value = getattr(record, field)
                if value is not None:
                    row[field] = value
            fh.write(json.dumps(row) + "\n")
    os.replace(tmp, path)
