"""Steadiness of the benchmark: repeated runs, quartiles, spread against bounds.

    python3 perfbench/steady.py run --workload paper --runs 10 --first-seed 0 \
        --out .perfbench_results/paper-a.json
    python3 perfbench/steady.py show .perfbench_results/paper-a.json
    python3 perfbench/steady.py compare .perfbench_results/paper-a.json \
        .perfbench_results/paper-b.json

``run`` calls run.py once per seed (first-seed, first-seed + 1, ...) with
the run length from BENCHMARK.json, keeps every result line and prints the
table that ``show`` prints: for each metric the median, the first and
third quartile (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound. ``compare`` sets the medians of
two such files side by side: the change of each median in the metric's
worse direction, as a share of the first median, must stay within the
bound, and the share of failed operations must be equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, runs: int, first_seed: int, out: Path) -> dict:
    seconds = _spec()["run_seconds"]
    results = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall_s = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        result.update(seed=seed, exit_code=proc.returncode, wall_s=wall_s, log=[
            line for line in proc.stderr.splitlines() if line.startswith("round ")])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        results.append(result)
        print(f"seed {seed}: exit {proc.returncode} in {wall_s:.0f}s " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result.get("metrics", {}).items()),
            flush=True)
    blob = {"workload": workload, "results": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(blob, indent=1) + "\n", encoding="utf-8")
    return blob


def summarize(blob: dict) -> dict[str, dict]:
    """Per metric: median, q1, q3, spread and bound over the runs in blob."""
    rows = {}
    for metric in _spec()["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in blob["results"]
                  if metric["name"] in r.get("metrics", {})]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows[metric["name"]] = {
            "n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "bound": metric["bound"], "better": metric["better"],
        }
    return rows


def failed_share(blob: dict) -> tuple[int, int]:
    return (sum(r.get("failed", 0) for r in blob["results"]),
            sum(r.get("attempted", 0) for r in blob["results"]))


def show(blob: dict) -> None:
    failed, attempted = failed_share(blob)
    print(f"{blob['workload']}: {len(blob['results'])} runs, "
          f"{failed}/{attempted} operations failed")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for name, row in summarize(blob).items():
        bound = row["bound"]
        verdict = "steady" if row["spread"] < bound / 3 else (
            "within" if row["spread"] <= bound else "OVER")
        print(f"{name:38s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.4f} {bound:>6} {verdict}")


def compare(first: dict, second: dict) -> bool:
    ok = failed_share(first)[0] * failed_share(second)[1] == (
        failed_share(second)[0] * failed_share(first)[1])
    print(f"failed share: {failed_share(first)} vs {failed_share(second)}"
          f"{'' if ok else '  DIFFERENT'}")
    a, b = summarize(first), summarize(second)
    print(f"{'metric':38s} {'median 1':>12s} {'median 2':>12s} {'worse by':>9s} {'bound':>6s}")
    for name in a:
        if name not in b:
            continue
        m1, m2 = a[name]["median"], b[name]["median"]
        worse = (m2 - m1) / abs(m1) if a[name]["better"] == "lower" else (m1 - m2) / abs(m1)
        bound = a[name]["bound"]
        ok = ok and worse <= bound
        print(f"{name:38s} {m1:12.6g} {m2:12.6g} {worse:9.4f} {bound:>6} "
              f"{'ok' if worse <= bound else 'OVER'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run one workload on consecutive seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("show", help="print the table of a saved set of runs")
    p.add_argument("file", type=Path)
    p = sub.add_parser("compare", help="compare the medians of two saved sets")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        show(run(args.workload, args.runs, args.first_seed, args.out))
        return 0
    if args.command == "show":
        show(json.loads(args.file.read_text(encoding="utf-8")))
        return 0
    sets = [json.loads(path.read_text(encoding="utf-8")) for path in (args.first, args.second)]
    return 0 if compare(*sets) else 1


if __name__ == "__main__":
    sys.exit(main())
