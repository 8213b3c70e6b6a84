"""Steadiness check: repeated runs of each workload against BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads simulate_grid --sets 2

Runs ``perfbench/run.py`` once per seed (seeds 1 to ``--runs``) for
BENCHMARK.json's ``run_seconds``, one run at a time, each in a fresh
process, from the root of the checkout. For every end-to-end metric it
prints the median of the runs and their interquartile spread as a share
of the median (``statistics.quantiles`` with n=4), next to the metric's
bound. With ``--sets 2`` the whole series is run twice with the same
seeds, and the second median's change over the first, in either
direction, is shown against the bound as well. It also checks that the
share of failed operations is the same in every run, and reports the
longest wall time of a run. The table is written to
``perfbench/out/steady.json``. Exit status 1 means a spread or a drift
exceeded its bound, a run was incorrect, or the failed share varied.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The result line of one run and the run's wall time in seconds."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), wall
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}") from None


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    ok = True
    report = {}
    for workload in args.workloads.split(","):
        series = []
        shares = set()
        walls = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = i + 1
                result, wall = run_once(spec["command"], workload, seed, spec["run_seconds"])
                walls.append(wall)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                    ok = False
                shares.add(Fraction(result["failed"], result["attempted"]))
                results.append(result)
            series.append(results)
        if len(shares) != 1:
            print(f"{workload}: failed share varies between runs: {sorted(map(str, shares))}", file=sys.stderr)
            ok = False
        rows = {}
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), failed share {sorted(map(str, shares))}, "
              f"longest run {max(walls):.1f} s")
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  drift")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results]) for results in series]
            median = stats[0][0]
            drift = worse_by(stats[0][0], stats[-1][0], m["better"]) if args.sets == 2 else None
            spread_ok = all(rel <= bound for _, rel in stats)
            drift_ok = drift is None or abs(drift) <= bound
            ok = ok and spread_ok and drift_ok
            rows[name] = {
                "unit": m["unit"],
                "medians": [st[0] for st in stats],
                "spreads": [st[1] for st in stats],
                "values": [[r["metrics"][name]["value"] for r in results] for results in series],
                "bound": bound,
                "drift": drift,
            }
            flag = "" if spread_ok and drift_ok else "  EXCEEDS BOUND"
            drift_text = "" if drift is None else f"{drift:+.3f}"
            spreads_text = "/".join(f"{st[1]:.3f}" for st in stats)
            print(f"  {name:<16} {median:>12.6g} {spreads_text:>8} {bound:>6}  {drift_text}{flag}")
        report[workload] = {"runs": args.runs, "sets": args.sets, "failed_shares": sorted(map(str, shares)),
                            "longest_run_s": max(walls), "metrics": rows}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
