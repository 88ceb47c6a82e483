"""Pipeline configuration: defaults, flat config files, flag merging.

Precedence is defaults < config file < environment < flags, where the
environment may override only the two provider endpoint URLs and the API
credential (never hyperparameters). Unknown config keys are rejected
outright so a typo cannot silently fall back to a default.

Stage fingerprints make every pipeline stage resumable. ``fingerprint``
hashes each input file once per stage run, and the stage body reuses
those digests (the feature reads look up their binary twins by them). A
stage's record, ``.fingerprints/<stage>.sha256``, holds three maps:
``inputs`` (path -> sha256 of the file's bytes), ``config`` (key ->
sha256 of the value's JSON) and ``outputs`` (path -> sha256 of the file's
bytes). ``score`` fingerprints no config: a cached score is never fetched
again, so the provider, its endpoint URLs and ``workers`` (threads that
share no state, each filling the records of its own samples) cannot
change its output, and no URL is recorded anywhere.
Paths inside the workdir are kept relative to it, so a copied workdir
stays current. A rerun whose inputs, config and outputs all match its
record is a no-op; otherwise ``rerun_reason`` names the first input,
config key or output that differs, or says that the record is missing or
in an older format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import MATRIX_STORE, SCORE_SLOTS, hash_file, read_json, write_json
from .errors import BadConfig, MalformedRecord
from .selector import KINDS

ENV_REWARD_URL = "VLCURATE_REWARD_URL"
ENV_RATING_URL = "VLCURATE_RATING_URL"
ENV_API_KEY = "VLCURATE_API_KEY"


@dataclass
class PipelineConfig:
    # paths; empty string means "derive from workdir"
    workdir: str = "work"
    manifest: str = ""
    features_dir: str = ""
    scores: str = ""
    oracle: str = ""
    embeddings: str = ""
    subsets_dir: str = ""
    reports: str = ""
    model_dir: str = ""
    curated_dir: str = ""
    # hyperparameters
    n_subsets: int = 30
    capacity: int = 0          # 0 derives N // n_subsets (114 at the 3439-sample scale)
    k_clusters: int = 10
    alpha: int = 200
    m: int = 6
    d_model: int = 16
    ff_dim: int = 32
    layers: int = 2
    epochs: int = 20
    lr: float = 0.01
    seed: int = 0
    selector_kind: str = "attention"
    optimizer: str = "adam"
    standardize: bool = True
    reducer_mode: str = "joint"
    subset_space: str = "embedding"
    indicator: str = ""        # set to clip|length|reward|gpt for single-indicator runs
    clustering: bool = True
    # providers
    provider: str = "cache"
    reward_url: str = ""
    rating_url: str = ""
    api_key: str = ""
    workers: int = 1
    # synthetic generator
    synth_n: int = 3439
    image_dim: int = 16
    text_dim: int = 24

    # -- derived paths --------------------------------------------------
    def _derived(self, explicit: str, default_name: str) -> Path:
        return Path(explicit) if explicit else Path(self.workdir) / default_name

    def manifest_path(self) -> Path:
        return self._derived(self.manifest, "manifest.jsonl")

    def features_path(self) -> Path:
        return self._derived(self.features_dir, "features")

    def scores_path(self) -> Path:
        return self._derived(self.scores, "scores.jsonl")

    def oracle_path(self) -> Path:
        return self._derived(self.oracle, "oracle.jsonl")

    def embeddings_path(self) -> Path:
        return self._derived(self.embeddings, "embeddings.txt")

    def subsets_path(self) -> Path:
        return self._derived(self.subsets_dir, "subsets")

    def reports_path(self) -> Path:
        return self._derived(self.reports, "eval_reports.jsonl")

    def model_path(self) -> Path:
        return self._derived(self.model_dir, "selector_model")

    def curated_path(self) -> Path:
        return self._derived(self.curated_dir, "curated")

    def matrix_store(self) -> Path:
        """Where the feature files' binary twins live: always under the
        workdir, since ``features_dir`` may be read-only (see corpus.py)."""
        return Path(self.workdir) / MATRIX_STORE

    def validate(self) -> None:
        checks = [
            (self.n_subsets >= 2, "n_subsets must be >= 2"),
            (self.capacity >= 0, "capacity must be >= 0 (0 = derive)"),
            (self.k_clusters >= 1, "k_clusters must be >= 1"),
            (self.alpha >= 1, "alpha must be >= 1"),
            (self.m >= 1, "m must be >= 1"),
            (self.d_model >= 1 and self.ff_dim >= 1 and self.layers >= 1,
             "selector dimensions must be positive"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.lr > 0.0, "lr must be > 0"),
            (self.workers >= 1, "workers must be >= 1"),
            (self.selector_kind in KINDS,
             f"unknown selector_kind {self.selector_kind!r}"),
            (self.optimizer in ("adam", "sgd"), f"unknown optimizer {self.optimizer!r}"),
            (self.reducer_mode in ("joint", "split"),
             f"unknown reducer_mode {self.reducer_mode!r}"),
            (self.subset_space in ("embedding", "image"),
             f"unknown subset_space {self.subset_space!r}"),
            (self.indicator in ("", *SCORE_SLOTS),
             f"unknown indicator {self.indicator!r}"),
            (self.provider in ("cache", "http"), f"unknown provider {self.provider!r}"),
        ]
        for ok, message in checks:
            if not ok:
                raise BadConfig(message)


_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def config_keys() -> set[str]:
    return set(_FIELDS)


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise BadConfig(f"config key {key}: cannot parse {raw!r} as bool")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise BadConfig(f"config key {key}: cannot parse {raw!r} as {kind}") from exc
    return raw.strip()


def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` lines; # starts a comment; unknown keys rejected."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise BadConfig(f"{path}:{line_no}: expected key = value")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in _FIELDS:
                    raise BadConfig(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = _coerce(key, raw)
    except UnicodeDecodeError as exc:
        raise BadConfig(f"{path}: not UTF-8 text ({exc.reason})") from None
    return values


def build_config(
    config_file: str | None = None, flag_values: dict | None = None
) -> PipelineConfig:
    """Merge defaults, file, environment (endpoint/credential keys only),
    then flags; validate the result."""
    cfg = PipelineConfig()
    if config_file:
        for key, value in read_config_file(config_file).items():
            setattr(cfg, key, value)
    env_map = (
        ("reward_url", ENV_REWARD_URL),
        ("rating_url", ENV_RATING_URL),
        ("api_key", ENV_API_KEY),
    )
    for key, env_name in env_map:
        if os.environ.get(env_name):
            setattr(cfg, key, os.environ[env_name])
    for key, value in (flag_values or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise BadConfig(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# -- stage fingerprints -------------------------------------------------

class Fingerprint(NamedTuple):
    inputs: dict[Path, str]   # input path -> sha256 of the file's bytes
    config: dict[str, str]    # config key -> sha256 of the value's JSON


def fingerprint(input_paths: list[Path], config_subset: dict) -> Fingerprint:
    return Fingerprint(
        {Path(p): hash_file(p) for p in input_paths},
        {key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
         for key, value in config_subset.items()})


def _fingerprint_file(workdir: str | Path, stage: str) -> Path:
    return Path(workdir) / ".fingerprints" / f"{stage}.sha256"


def _path_key(workdir: str | Path, path: str | Path) -> str:
    """A file's name in a record: relative to the workdir where it lies
    inside, so a copied workdir keeps its records valid."""
    path = Path(path).resolve()
    try:
        return path.relative_to(Path(workdir).resolve()).as_posix()
    except ValueError:
        return str(path)


def rerun_reason(
    workdir: str | Path, stage: str, value: Fingerprint, outputs: list[Path]
) -> str | None:
    """Why the stage must run, or None when it is current: its record holds
    the input and config digests of ``value``, every output exists, and
    every output the record has a digest for still has that digest. Outputs
    are hashed only once the inputs and config match."""
    try:
        record = read_json(_fingerprint_file(workdir, stage), ("inputs", "config", "outputs"))
    except FileNotFoundError:
        return "there is no record"
    except (OSError, MalformedRecord):
        return "the record is old or unreadable"
    if not all(isinstance(record[key], dict) for key in ("inputs", "config", "outputs")):
        return "the record is old or unreadable"
    inputs = {_path_key(workdir, p): digest for p, digest in value.inputs.items()}
    for kind, stored, current in (("input", record["inputs"], inputs),
                                  ("config", record["config"], value.config)):
        for key in sorted(stored.keys() | current.keys()):
            if stored.get(key) != current.get(key):
                return f"{kind} {key} changed"
    for path in outputs:
        key = _path_key(workdir, path)
        if not Path(path).exists():
            return f"output {key} is missing"
        stored = record["outputs"].get(key)
        if stored is not None and stored != hash_file(path):
            return f"output {key} changed"
    return None


def stage_mark_done(
    workdir: str | Path, stage: str, value: Fingerprint, outputs: Sequence[Path] = ()
) -> None:
    """Record the digests of ``value`` and the sha256 of each of ``outputs``."""
    record = _fingerprint_file(workdir, stage)
    record.parent.mkdir(parents=True, exist_ok=True)
    write_json(record, {
        "inputs": {_path_key(workdir, p): digest for p, digest in value.inputs.items()},
        "config": value.config,
        "outputs": {_path_key(workdir, p): hash_file(p) for p in outputs},
    })
