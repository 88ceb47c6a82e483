"""Per-layer spans recorded from outside the program.

A Tracer replaces public functions of the ``vlcurate`` modules with timing
wrappers for the length of a ``with`` block. Modules import these
functions by name (``from .corpus import load_features``), so every module
attribute that refers to the original function object is swapped, not
only the one in the defining module. Spans are inclusive: a nested call
(``pca_fit`` inside ``fit_feature_reducer``) counts in both.

The tracer times its own bookkeeping too: installing and removing the
wrappers, and everything a wrapper does outside the call it wraps (file
sizes, tracemalloc start and stop, list appends). That sum is
``trace.overhead_s``. It leaves out the wrapper's extra call frame and
what tracemalloc's allocation hook costs inside ``spectral_embedding``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MIB = float(1 << 20)

# (module, function) pairs whose calls become spans named "<module>.<function>"
SPANNED = (
    ("config", "fingerprint"),
    ("corpus", "load_features"),
    ("corpus", "read_feature_file"),
    ("synth", "generate"),
    ("synth", "write_corpus"),
    ("indicators", "score_corpus"),
    ("embedding", "fit_feature_reducer"),
    ("embedding", "assemble_corpus"),
    ("numerics", "pca_fit"),
    ("numerics", "spectral_embedding"),
    ("numerics", "kmeans_pp"),
    ("quality_labels", "build_subsets"),
    ("selector", "train"),
    ("selector", "predict_items"),
    ("curate", "curate"),
)
# HTTP client methods; each call is one remote score, retries included
CLIENT_METHODS = (("indicators", "RewardClient"), ("indicators", "RatingClient"))


def _file_mb(paths) -> float:
    return sum(Path(p).stat().st_size for p in paths) / MIB


class Tracer:
    """Collects span durations, counters and per-call latencies."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: list[tuple[float, float]] = []   # (start, end) per remote call
        self._undo: list[tuple[object, str, object]] = []
        self.overhead_s = 0.0   # bookkeeping outside the wrapped calls
        self.call_overhead_s: list[float] = []   # the same, per remote call

    # -- installing wrappers ------------------------------------------------
    def __enter__(self) -> "Tracer":
        entered = time.perf_counter()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vlcurate" or name.startswith("vlcurate.")]
        for module_name, func_name in SPANNED:
            original = getattr(importlib.import_module(f"vlcurate.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, attr, wrapper)
        for module_name, class_name in CLIENT_METHODS:
            cls = getattr(importlib.import_module(f"vlcurate.{module_name}"), class_name)
            self._swap(cls, "score", self._wrap_call(cls.score))
        self.overhead_s += time.perf_counter() - entered
        return self

    def __exit__(self, *exc) -> None:
        entered = time.perf_counter()
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.overhead_s += time.perf_counter() - entered

    def _swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, func):
        spans = self.spans[name]
        counts = self.counts
        measure_memory = name == "numerics.spectral_embedding"

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if name == "config.fingerprint":
                counts["config.hashed_mb"] += _file_mb(args[0])
            elif name == "corpus.read_feature_file":
                counts["corpus.feature_loads"] += 1
                counts["corpus.parsed_mb"] += _file_mb([args[0]])
            elif name == "selector.predict_items":
                counts["selector.items"] += len(args[1])
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spans.append(end - start)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    counts["numerics.spectral_embedding_peak_mb"] = max(
                        counts["numerics.spectral_embedding_peak_mb"], peak / MIB)
                self.overhead_s += (start - entered) + (time.perf_counter() - end)

        traced.__wrapped__ = func
        return traced

    def _wrap_call(self, method):
        calls = self.calls
        bookkeeping = self.call_overhead_s

        def traced(client, *args, **kwargs):
            start = time.perf_counter()
            try:
                return method(client, *args, **kwargs)
            finally:
                end = time.perf_counter()
                calls.append((start, end))
                bookkeeping.append(time.perf_counter() - end)   # atomic across workers

        traced.__wrapped__ = method
        return traced

    # -- reading results ----------------------------------------------------
    def total(self, name: str) -> float:
        return sum(self.spans.get(name, ()))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced since this Tracer was made."""
        out = {
            f"{name}_s": self.total(name)
            for name in (f"{m}.{f}" for m, f in SPANNED)
            if name != "corpus.read_feature_file"
        }
        out["trace.overhead_s"] = self.overhead_s + sum(self.call_overhead_s)
        out["config.hashed_mb"] = self.counts["config.hashed_mb"]
        out["corpus.feature_loads"] = self.counts["corpus.feature_loads"]
        out["corpus.parsed_mb"] = self.counts["corpus.parsed_mb"]
        out["numerics.spectral_embedding_peak_mb"] = self.counts[
            "numerics.spectral_embedding_peak_mb"]
        predict_s = self.total("selector.predict_items")
        out["selector.items_per_s"] = (
            self.counts["selector.items"] / predict_s if predict_s else 0.0)
        latencies_ms = sorted((end - start) * 1e3 for start, end in self.calls)
        out["indicators.remote_calls"] = float(len(latencies_ms))
        if latencies_ms:
            window = max(e for _, e in self.calls) - min(s for s, _ in self.calls)
            cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
            out["indicators.calls_per_s"] = len(latencies_ms) / window
            out["indicators.call_ms_p50"] = statistics.median(latencies_ms)
            out["indicators.call_ms_p99"] = cuts[98]
        else:
            out["indicators.calls_per_s"] = 0.0
            out["indicators.call_ms_p50"] = 0.0
            out["indicators.call_ms_p99"] = 0.0
        return out
