"""Benchmark of the vlcurate pipeline: one workload, in one process.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each round builds a fresh work
directory from the seed (the set-up), then drives the six stages
score -> embed -> split --oracle -> train-selector -> curate -> report
through ``vlcurate.cli.main`` in this process, and checks the outputs with
``checks.py``. An untimed warm-up round on a small corpus goes first. With
``--trace 0`` extra set-ups come next, until SETUP_SECONDS / 2 have passed.
Then rounds repeat while another one of the last one's length still fits in
``--seconds``, at least once (twice with ``--trace 1``), and with
``--trace 0`` more extra set-ups follow until there are SETUP_REPS of them
and SETUP_SECONDS have passed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is the warm-up,
one round or one extra set-up; it fails when a stage exits non-zero or a
check does not hold. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` untraced and traced rounds alternate and the
metrics are the per-layer ones, plus ``trace.overhead_s``, the tracer's
own bookkeeping time. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

# BLAS reads its thread count once, when numpy loads, so it is fixed here,
# before the imports below. Fixed for the run and at most the core count:
# two threads halve the dense eigensolve on a 2-core machine (README.md).
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

N = 3439          # MiniGPT-4's alignment set size, as in the paper
ALPHA = 200       # curated set size (pipeline default)
# The first pass in a process runs 10-20% slower (imports, BLAS thread
# start, malloc thresholds); a pass over this many samples absorbs that.
WARMUP_N = 600
# A run sets up at least SETUP_REPS times, counting the rounds' set-ups,
# and goes on while less than SETUP_SECONDS of set-up have passed; setup_s
# is the fastest of them, which drifts least on a shared machine. Half the
# extra set-ups run before the rounds and half after, so the fastest is
# taken over the whole run, not over a few seconds of it. A set-up at wide
# widths takes 6-9 s, so wide sets up once before and once after its round.
SETUP_REPS = 3
SETUP_SECONDS = 5.0
# One scoring worker: the client's requests.Session is GIL-bound, and a
# second worker cost more CPU in GIL hand-offs than its overlap saved.
REMOTE_WORKERS = 1
# The stub and the scoring client share one core during the score stage.
# On separate cores the client's core idles while the stub answers each
# call, and on a virtual machine that idle-and-wake per call made the same
# 2000 calls take 4.7-8.9 s; on one core they took 3.7-5.1 s (README.md).
STUB_CPU = min(os.sched_getaffinity(0))
STAGES = (("score", ["score"]), ("embed", ["embed"]), ("split", ["split", "--oracle"]),
          ("train", ["train-selector"]), ("curate", ["curate"]), ("report", ["report"]))


@dataclass(frozen=True)
class Workload:
    image_dim: int
    text_dim: int
    remote: bool = False


WORKLOADS = {
    "paper": Workload(image_dim=16, text_dim=24),
    "wide": Workload(image_dim=256, text_dim=1024),
    "remote": Workload(image_dim=16, text_dim=24, remote=True),
}


@dataclass
class Round:
    setup_s: float = 0.0
    pipeline_s: float = 0.0
    rss_mb: float = 0.0
    stage_s: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    planted: dict = field(default_factory=dict)   # id -> (reward, gpt) expected in scores
    served: dict = field(default_factory=dict)    # stub requests per endpoint
    spearman_q: float = 0.0
    uplift: float = 0.0


class Stub:
    """The remote-score stand-in, run as a child process (see stub.py)."""

    def __init__(self, table_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(table_path)],
            stdout=subprocess.PIPE, text=True)
        try:
            os.sched_setaffinity(self.proc.pid, {STUB_CPU})
            port = self.proc.stdout.readline().strip()
            if not port:
                raise RuntimeError("remote stub did not start")
        except BaseException:
            self.stop()
            raise
        self.url = f"http://127.0.0.1:{port}"

    def served(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as reply:
            return json.load(reply)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


# -- one round ---------------------------------------------------------------

@contextlib.contextmanager
def _on_stub_cpu():
    """Run the calling thread on the stub's core, then restore its cores."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {STUB_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _stage(argv: list[str]) -> None:
    from vlcurate import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise checks.CheckFailed(f"vlcurate {argv[0]} exited {rc}")


def _planted(workdir: Path) -> tuple[list[dict], dict]:
    """Manifest rows and the generator's id -> (reward, gpt) from scores.jsonl."""
    manifest = checks.read_jsonl(workdir / "manifest.jsonl")
    planted = {row["id"]: (row["reward"], row["gpt"])
               for row in checks.read_jsonl(workdir / "scores.jsonl")}
    return manifest, planted


def _serve_planted(workdir: Path) -> tuple[Stub, dict]:
    """Empty the model-backed scores and start a stub that serves them.

    Requests carry text, not ids, so samples whose instruction and response
    are both identical share one entry: the first such sample's values are
    served for all of them, and those are what the check expects.
    """
    from vlcurate.indicators import default_prompt_template, render_gpt_prompt
    manifest, planted = _planted(workdir)
    template = default_prompt_template()
    reward, rating, expected = {}, {}, {}
    for row in manifest:
        value_reward, value_gpt = planted[row["id"]]
        key = row["instruction"] + "\0" + row["response"]
        system, _ = render_gpt_prompt(template, row["instruction"], row["response"])
        expected[row["id"]] = (reward.setdefault(key, value_reward),
                               rating.setdefault(system, value_gpt))
    table_path = workdir / "stub_table.json"
    table_path.write_text(json.dumps({"reward": reward, "rating": rating}),
                          encoding="utf-8")
    with open(workdir / "scores.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"id": row["id"]}) + "\n" for row in manifest)
    return Stub(table_path), expected


def set_up(name: str, seed: int, n: int, workdir: Path) -> tuple[Stub | None, dict]:
    """Generate and write the seeded corpus; on remote also empty the
    model-backed scores and start the stub. Returns the stub, if any, and
    the reward/gpt values it serves."""
    wl = WORKLOADS[name]
    _stage(["synth", "--workdir", str(workdir), "--n", str(n), "--seed", str(seed),
            "--image-dim", str(wl.image_dim), "--text-dim", str(wl.text_dim)])
    return _serve_planted(workdir) if wl.remote else (None, {})


def run_round(name: str, seed: int, n: int, workdir: Path, traced: bool) -> Round:
    """Set up and run the six stages once, timing both; raises on a failed stage."""
    result = Round()
    stub = None
    try:
        with Tracer() if traced else contextlib.nullcontext() as tracer:
            started = time.perf_counter()
            stub, result.planted = set_up(name, seed, n, workdir)
            result.setup_s = time.perf_counter() - started
            score_flags = []
            if stub is not None:
                score_flags = ["--provider", "http", "--workers", str(REMOTE_WORKERS),
                               "--reward-url", stub.url + "/reward",
                               "--rating-url", stub.url + "/rating"]
            else:
                result.planted = _planted(workdir)[1]
            started = time.perf_counter()
            for stage, argv in STAGES:
                begun = time.perf_counter()
                with (_on_stub_cpu() if stub is not None and stage == "score"
                      else contextlib.nullcontext()):
                    _stage(argv + ["--workdir", str(workdir)]
                           + (score_flags if stage == "score" else []))
                result.stage_s[stage] = time.perf_counter() - begun
            result.pipeline_s = time.perf_counter() - started
            result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            result.layers = tracer.layer_metrics()
        if stub is not None:
            result.served = stub.served()
    finally:
        if stub is not None:
            stub.stop()
    return result


# -- checks ------------------------------------------------------------------

@dataclass
class Reference:
    """What every round of one run must reproduce, taken from its first round."""

    corpus: str               # digest of the set-up's manifest, features and oracle
    manifest: list[dict]
    planted: dict             # id -> (reward, gpt) the scores must hold
    expected: dict            # id -> (cosine, word count)
    q: np.ndarray             # planted quality, manifest order
    curated: str = ""         # digest of the first round's curated outputs

    @classmethod
    def of(cls, workdir: Path, planted: dict) -> "Reference":
        manifest = checks.read_jsonl(workdir / "manifest.jsonl")
        oracle = {row["id"]: row["q"] for row in checks.read_jsonl(workdir / "oracle.jsonl")}
        return cls(corpus=_corpus_digest(workdir), manifest=manifest, planted=planted,
                   expected=checks.expected_indicators(workdir, manifest),
                   q=np.array([oracle[row["id"]] for row in manifest]))


def _corpus_digest(workdir: Path) -> str:
    return "".join(checks.tree_digest(workdir / name)
                   for name in ("manifest.jsonl", "features", "oracle.jsonl"))


def extra_set_up(name: str, seed: int, workdir: Path, ref: Reference | None
                  ) -> tuple[float, Reference]:
    """One timed set-up outside a round; checks it against ref, or makes ref."""
    started = time.perf_counter()
    stub, planted = set_up(name, seed, N, workdir)
    elapsed = time.perf_counter() - started
    if stub is not None:
        stub.stop()
    else:
        planted = _planted(workdir)[1]
    if ref is None:
        return elapsed, Reference.of(workdir, planted)
    if _corpus_digest(workdir) != ref.corpus or planted != ref.planted:
        raise checks.CheckFailed("set-up wrote a different corpus for the same seed")
    return elapsed, ref


def check_round(workdir: Path, ref: Reference, result: Round, remote: bool) -> None:
    """Every output check of checks.py on one round; sets spearman_q and uplift."""
    if _corpus_digest(workdir) != ref.corpus or result.planted != ref.planted:
        raise checks.CheckFailed("set-up wrote a different corpus for the same seed")
    n = len(ref.manifest)
    curated = workdir / "curated"
    with open(curated / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    checks.check_selection(ref.manifest, checks.read_jsonl(curated / "selected.manifest.jsonl"),
                           summary, ALPHA)
    checks.check_quotas(summary, ALPHA, n)
    checks.check_picks(summary, ref.manifest)
    checks.check_scores(checks.read_jsonl(workdir / "scores.jsonl"), ref.expected,
                        result.planted)
    if remote and result.served != {"reward": n, "rating": n}:
        raise checks.CheckFailed(f"stub served {result.served}; expected {n} of each")
    result.spearman_q = checks.spearman(summary["item_scores"], ref.q)
    position = {row["id"]: i for i, row in enumerate(ref.manifest)}
    picked = ref.q[[position[i] for i in summary["selected_ids"]]]
    result.uplift = float(picked.mean() - ref.q.mean())
    if not (result.spearman_q > 0.8 and result.uplift > 0.0):
        raise checks.CheckFailed(f"spearman_q {result.spearman_q} or uplift "
                                 f"{result.uplift} under its floor (0.8, 0)")
    digest = checks.tree_digest(curated)
    if ref.curated and digest != ref.curated:
        raise checks.CheckFailed("curated outputs differ between rounds of one run")
    ref.curated = digest


# -- metrics -----------------------------------------------------------------

def end_to_end(rounds: list[Round], setup_s: list[float]) -> dict:
    return {
        "pipeline_s": (statistics.median(r.pipeline_s for r in rounds), "s"),
        "setup_s": (min(setup_s), "s"),
        "peak_rss_mb": (rounds[0].rss_mb, "MB"),
        "spearman_q": (rounds[0].spearman_q, "1"),
        "uplift": (rounds[0].uplift, "1"),
    }


def per_layer(rounds: list[Round]) -> dict:
    traced = [r for r in rounds if r.layers]
    plain = [r for r in rounds if not r.layers]
    out = {f"stage.{stage}_s": (statistics.median(r.stage_s[stage] for r in traced), "s")
           for stage, _ in STAGES}
    for key in traced[0].layers:
        out[key] = (statistics.median(r.layers[key] for r in traced), _unit(key))
    # trace.overhead_s, the tracer's bookkeeping, is timed in the wrappers;
    # the pass difference is mostly round-to-round noise, so it is only logged
    difference = (statistics.median(r.pipeline_s for r in traced)
                  - statistics.median(r.pipeline_s for r in plain))
    print(f"traced minus untraced pipeline_s: {difference:.3f}", file=sys.stderr)
    return out


def _unit(key: str) -> str:
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    return "ms" if "_ms_" in key else "count"


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vlcurate" / "cli.py").is_file():
        print(f"error: no vlcurate source under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import vlcurate
    if Path(vlcurate.__file__).resolve().parent != ROOT / "src" / "vlcurate":
        print(f"error: imported vlcurate from {vlcurate.__file__}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally blocks that stop the stub and
    # remove the work directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    name, remote = args.workload, WORKLOADS[args.workload].remote
    run_dir = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
    min_rounds = 2 if args.trace else 1
    rounds: list[Round] = []
    setup_s: list[float] = []
    attempted = failed = 0
    ref = None
    try:
        attempted += 1
        try:
            run_round(name, 0, WARMUP_N, run_dir / "warmup", traced=False)
        except Exception:  # boundary: counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            failed += 1
        shutil.rmtree(run_dir / "warmup", ignore_errors=True)

        def set_up_while(more) -> None:
            nonlocal attempted, failed, ref
            while more() and not args.trace and not failed:
                workdir = run_dir / f"setup{len(setup_s)}"
                attempted += 1
                try:
                    elapsed, ref = extra_set_up(name, args.seed, workdir, ref)
                    setup_s.append(elapsed)
                except Exception:  # boundary: counted as a failed operation
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                shutil.rmtree(workdir, ignore_errors=True)

        set_up_while(lambda: not setup_s or sum(setup_s) < SETUP_SECONDS / 2)
        began = time.perf_counter()
        last = 0.0
        while (len(rounds) < min_rounds
               or time.perf_counter() - began + last <= args.seconds):
            workdir = run_dir / f"round{len(rounds)}"
            started = time.perf_counter()
            attempted += 1
            try:
                result = run_round(name, args.seed, N, workdir,
                                   traced=bool(args.trace) and len(rounds) % 2 == 1)
                ref = ref or Reference.of(workdir, result.planted)
                check_round(workdir, ref, result, remote)
                rounds.append(result)
                setup_s.append(result.setup_s)
                print(f"round {len(rounds)}: setup {result.setup_s:.3f}s pipeline "
                      f"{result.pipeline_s:.3f}s " + " ".join(
                          f"{k} {v:.3f}" for k, v in result.stage_s.items()),
                      file=sys.stderr)
            except Exception:  # boundary: a failed round is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
            shutil.rmtree(workdir, ignore_errors=True)
            last = time.perf_counter() - started
        set_up_while(lambda: len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    metrics = {}
    if failed == 0:
        chosen = per_layer(rounds) if args.trace else end_to_end(rounds, setup_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    print(f"workload={name} seed={args.seed} rounds={len(rounds)} "
          f"blas_threads={BLAS_THREADS}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
