"""Every record file the pipeline reads or writes, and their framing.

Text is the interchange format, the one that encoders, ``synth`` and users
write and read:

* manifest (``manifest.jsonl``, ``curated/selected.manifest.jsonl``): one
  JSON object per line with fields
  ``id`` / ``image_path`` / ``instruction`` / ``response``
* feature matrix (``features/*.txt``, ``embeddings.txt``): header line
  ``id <dim>`` followed by ``<id> v1 ... v<dim>`` rows (decimal floats,
  whitespace separated)
* score cache (``scores.jsonl``): one JSON object per line keyed by ``id``
  with fields ``clip``, ``length``, ``reward``, ``gpt`` (all optional per
  row), read into a ``ScoreCache``: a plain dict of id -> ScoreRecord

Stages read feature matrices from binary twins instead of parsing the
text again. ``<workdir>/.matrices/`` holds, for each feature file, one
twin keyed by the sha256 of the text's bytes: ``<stem>.<sha256>.npy`` (the
matrix in file row order) and ``<stem>.<sha256>.ids.npy`` (its ids, as
the UTF-8 bytes of their newline-joined text, which hold them exactly).
``write_feature_file`` writes the twin beside the text. ``read_matrix``
is given the text's sha256, the input digest that the stage's fingerprint
record holds (see config.py), and loads the twin with that key, so an
edited text file is parsed again without being hashed twice. A twin is
trusted like the score cache: a twin that cannot be read, is not a finite
float64 matrix, whose row count differs from its id count or whose ids
repeat is a miss, never an error; a miss parses the text and writes its
twin, unless the text's bytes no longer hash to the given digest after
the parse. The store lies under the workdir, not beside the text, because
the feature directory may be a read-only encoder output.

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
``write_json`` write them back through ``atomic_write``, and raise
ValueError, leaving the previous file whole, for the non-finite numbers
that reading back would reject.

Manifest file order is the canonical dataset order; every deterministic
tie-break downstream refers to it. Images are never opened here --
``image_ref`` is an opaque string for the out-of-process encoders.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, TextIO

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

# the directory under the workdir that holds the feature files' binary twins
MATRIX_STORE = ".matrices"

# a feature file of at least this many values is formatted by one process
# per CPU (write_feature_file); below it a fork costs more than it saves,
# so the paper-width features and the embeddings are written in-process
PARALLEL_MIN_VALUES = 1 << 18

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
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A file to write ``path`` through, UTF-8 text unless ``binary``: the
    block writes a temporary file in the same directory, which replaces
    ``path`` only when the block ends without error, so a failed write
    leaves the previous file whole (no fsync: it guards against errors,
    not power loss)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def hash_file(path: str | Path) -> str:
    """The hex sha256 of the bytes of ``path``, read in 1 MiB chunks so
    that a large file is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def remove_numbered(directory: Path, name: Callable[[int], str], count: int) -> None:
    """Delete the files ``name(j)`` for j >= count from ``directory``, which
    a run that wrote more of them left behind. A file whose first number
    spells j differently from ``name(j)`` is kept."""
    for path in directory.iterdir():
        number = re.search(r"\d+", path.name)
        if number and int(number[0]) >= count and path.name == name(int(number[0])):
            path.unlink()


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
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


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
        json.dump(blob, fh, indent=2, sort_keys=True, allow_nan=False)
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
    """Parse one ``id <dim>`` header + rows file into an id->vector map; an
    id on a second row raises DuplicateId."""
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
            if parts[0] in rows:
                raise DuplicateId(f"{path}:{line_no}: duplicate id {parts[0]!r}")
            rows[parts[0]] = vec
    return rows, dim


def write_feature_file(
    path: str | Path, ids: Iterable[str], matrix: np.ndarray, store: str | Path
) -> None:
    """Write ``matrix`` as a feature file, one row per id, and its twin in
    ``store`` (see read_matrix). Input whose text would not parse back (an
    id count other than the row count, no columns, an id that is empty or
    holds whitespace, a non-finite value, a repeated id) raises the
    DimensionMismatch, NonFiniteFeature or DuplicateId that
    read_feature_file would, before any file is written or process started.

    A matrix of at least PARALLEL_MIN_VALUES values is formatted by one
    process per usable CPU, each taking one contiguous range of rows: the
    parent formats the first range into the file, forked children format
    the others into unnamed temporary files, and the parent appends those
    in order, so the bytes and their sha256 are those of one serial pass.
    A child that fails raises OSError and leaves the previous file whole."""
    matrix = np.asarray(matrix, dtype=float)
    ids = list(ids)
    if matrix.ndim != 2 or matrix.shape[1] < 1 or len(ids) != len(matrix):
        raise DimensionMismatch(f"{path}: {len(ids)} ids for a matrix of shape {matrix.shape}")
    seen: set[str] = set()
    for sample_id in ids:
        if sample_id.split() != [sample_id]:
            raise DimensionMismatch(f"{path}: id {sample_id!r} is empty or holds whitespace")
        if sample_id in seen:
            raise DuplicateId(f"{path}: duplicate id {sample_id!r}")
        seen.add(sample_id)
    if not np.isfinite(matrix).all():
        raise NonFiniteFeature(f"{path}: non-finite entry")
    digest = hashlib.sha256()
    workers = _usable_cpus() if matrix.size >= PARALLEL_MIN_VALUES else 1
    workers = max(1, min(workers, len(ids)))
    bounds = [len(ids) * j // workers for j in range(workers + 1)]
    parts: list[IO[bytes]] = []
    children = []
    try:
        if workers > 1:
            # forked, not spawned, so that a child reads the matrix it
            # inherits instead of a pickled copy; Process.start flushes the
            # standard streams first, or a child would write their buffered
            # text again as it ends. No child inherits the output file
            fork = multiprocessing.get_context("fork")
            # beside the output, on the file system that must hold it anyway
            parts = [tempfile.TemporaryFile(dir=Path(path).parent)
                     for _ in bounds[2:]]
            for part, lo, hi in zip(parts, bounds[1:], bounds[2:]):
                child = fork.Process(target=_format_part,
                                     args=(part, ids[lo:hi], matrix[lo:hi]))
                child.start()
                children.append(child)

        with atomic_write(path, binary=True) as fh:
            def emit(data: bytes) -> None:
                digest.update(data)
                fh.write(data)

            emit(f"id {matrix.shape[1]}\n".encode())
            _format_rows(emit, ids[:bounds[1]], matrix[:bounds[1]])
            for child, part, lo, hi in zip(children, parts, bounds[1:], bounds[2:]):
                child.join()
                if child.exitcode != 0:
                    raise OSError(f"{path}: the process formatting rows {lo}-{hi} "
                                  f"exited with code {child.exitcode}")
                part.seek(0)
                for chunk in iter(lambda: part.read(1 << 20), b""):
                    emit(chunk)
    finally:
        for child in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
        for part in parts:
            part.close()
    _write_twin(Path(store), Path(path).stem, digest.hexdigest(), ids, matrix)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # missing where fork may be too (Windows): stay in-process
        return 1


def _format_rows(emit: Callable[[bytes], object], ids: list[str],
                 matrix: np.ndarray) -> None:
    """Pass each row's line of feature-file text to ``emit``."""
    for sample_id, row in zip(ids, matrix):
        emit(f"{sample_id} {' '.join(map(repr, row.tolist()))}\n".encode())


def _format_part(part: IO[bytes], ids: list[str], matrix: np.ndarray) -> None:
    """A forked child's work: its rows' text, written to ``part``."""
    _format_rows(part.write, ids, matrix)
    part.flush()


def read_matrix(
    path: str | Path, ids: list[str], store: str | Path, digests: Mapping[Path, str]
) -> np.ndarray:
    """The rows of a feature file for ``ids``, in that order, as an (N, dim)
    array. An id the file lacks raises MissingFeature named after the
    file's stem (``image``, ``embeddings``, ...). ``digests`` maps the path
    to the sha256 of the file's bytes, as the stage's fingerprint took it.
    The rows come from the twin in ``store`` with that key; only when there
    is none is the text parsed, and its twin written."""
    path, store = Path(path), Path(store)
    digest = digests[path]
    twin = _read_twin(store, path.stem, digest)
    if twin is None:
        rows, dim = read_feature_file(path)
        twin = list(rows), np.array(list(rows.values())).reshape(len(rows), dim)
        # the twin is keyed by the bytes that were parsed: text replaced
        # since it was fingerprinted gets none
        if hash_file(path) == digest:
            _write_twin(store, path.stem, digest, *twin)
    file_ids, matrix = twin
    if ids == file_ids:
        return matrix
    position = {sample_id: i for i, sample_id in enumerate(file_ids)}
    for sample_id in ids:
        if sample_id not in position:
            raise MissingFeature(sample_id, path.stem)
    return matrix[[position[sample_id] for sample_id in ids]]


def load_features(
    feature_dir: str | Path,
    manifest: list[Triplet],
    names: tuple[str, ...],
    store: str | Path,
    digests: Mapping[Path, str],
) -> dict[str, np.ndarray]:
    """One (N, dim) matrix per ``<name>.txt`` file, rows in manifest order."""
    ids = [t.id for t in manifest]
    return {name: read_matrix(Path(feature_dir) / f"{name}.txt", ids, store, digests)
            for name in names}


def _twin_paths(store: Path, stem: str, digest: str) -> tuple[Path, Path]:
    return store / f"{stem}.{digest}.npy", store / f"{stem}.{digest}.ids.npy"


def _write_twin(store: Path, stem: str, digest: str, ids: list[str],
                matrix: np.ndarray) -> None:
    """Save the twin of the text of ``stem`` whose sha256 is ``digest``, and
    remove that stem's older twins. Plain ``.npy``, not ``np.savez``: zip
    entries carry their write time, so a rerun would not be byte-identical."""
    store.mkdir(parents=True, exist_ok=True)
    paths = _twin_paths(store, stem, digest)
    id_bytes = np.frombuffer("\n".join(ids).encode(), dtype=np.uint8)
    for twin_path, array in zip(paths, (matrix, id_bytes)):
        with atomic_write(twin_path, binary=True) as fh:
            np.save(fh, array)
    own = re.compile(re.escape(stem) + r"\.[0-9a-f]{64}(\.ids)?\.npy")
    for old in store.iterdir():
        if old not in paths and own.fullmatch(old.name):
            old.unlink(missing_ok=True)


def _read_twin(store: Path, stem: str, digest: str) -> tuple[list[str], np.ndarray] | None:
    """The ids and matrix of the twin of the text of ``stem`` whose sha256
    is ``digest``; None when there is none or it fails a check."""
    matrix_path, ids_path = _twin_paths(store, stem, digest)
    matrix = _load_npy(matrix_path)
    if (matrix is None or matrix.dtype != np.float64 or matrix.ndim != 2
            or matrix.shape[1] < 1 or not np.isfinite(matrix).all()):
        return None
    id_bytes = _load_npy(ids_path)
    if id_bytes is None or id_bytes.dtype != np.uint8 or id_bytes.ndim != 1:
        return None
    try:
        text = id_bytes.tobytes().decode()
    except UnicodeDecodeError:
        return None
    ids = text.split("\n") if text else []
    if len(ids) != len(matrix) or len(set(ids)) != len(ids):
        return None
    return ids, matrix


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _load_npy(path: Path) -> np.ndarray | None:
    """The array saved in ``path``, or None when the file is missing or
    malformed. The header must promise exactly the data bytes the file
    holds, so that a damaged header cannot make ``np.load`` allocate more."""
    try:
        with open(path, "rb") as fh:
            read_header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if read_header is None:
                return None
            shape, _, dtype = read_header(fh)
            start = fh.tell()
            if (min(shape, default=0) < 0
                    or math.prod(shape) * dtype.itemsize != fh.seek(0, os.SEEK_END) - start):
                return None
            fh.seek(0)
            return np.load(fh, allow_pickle=False)
    except Exception:  # boundary: a bad twin is only a miss
        # numpy's header parser lets through what ast and tokenize raise on a
        # damaged header (TypeError, RecursionError, tokenize.TokenError)
        return None


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


# id -> that sample's scores; a plain dict, persisted as line-delimited JSON
ScoreCache = dict[str, ScoreRecord]


def read_scores(path: str | Path) -> ScoreCache:
    cache: ScoreCache = {}
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
        cache[str(raw["id"])] = record
    return cache


def write_scores(cache: ScoreCache, path: str | Path) -> None:
    for record in cache.values():
        record.validate()
    write_jsonl(path, (
        {"id": sample_id, **{slot: getattr(record, slot) for slot in SCORE_SLOTS
                             if getattr(record, slot) is not None}}
        for sample_id, record in cache.items()))
