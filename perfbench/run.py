"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload detect_wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory. With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the per-layer table is also
written to ``perfbench/out/trace-<workload>.json``.

One run attempts whole rounds of the workload's operations until the
timed phase has lasted ``--seconds``. The outputs of the last round are
then checked against computations made apart from the program; a failed
check prints the result with ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import os

# The load is one process: BLAS and OpenMP run one thread, so timings do
# not depend on how many cores are free. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Setup (import, inputs, warm-up) is repeated this many times in a run and
# its median reported.
SETUP_REPEATS = 7
# A latency percentile is reported when it leaves this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


# Imports the program as a user's script would; timed in fresh interpreters.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, rmdshrink, rmdshrink.cli; print(time.perf_counter() - t)"
)


def import_program() -> float:
    """Import rmdshrink from this checkout's src/ and nowhere else.

    Returns the import time of this process.
    """
    src = ROOT / "src"
    if not (src / "rmdshrink" / "__init__.py").is_file():
        raise SystemExit(f"error: no rmdshrink package under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import numpy  # noqa: F401
    import rmdshrink
    import rmdshrink.cli  # noqa: F401

    seconds = perf_counter() - start
    if Path(rmdshrink.__file__).resolve().parent != (src / "rmdshrink").resolve():
        raise SystemExit(f"error: rmdshrink imported from {rmdshrink.__file__}, not {src}")
    return seconds


def import_seconds(own: float) -> float:
    """Median import time over this process and SETUP_REPEATS - 1 fresh ones."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def timed(op, latencies: list[float]):
    """Run one operation; a refusal (ValueError) is returned, not raised."""
    start = perf_counter()
    try:
        out = op.run()
    except ValueError as exc:
        return exc
    latencies.append(perf_counter() - start)
    return out


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    With a tracer, every operation runs untraced and then once more
    traced, so the tracing overhead is taken from pairs of runs made
    moments apart. Only the untraced runs give latencies and outputs.
    """
    latencies, traced, outputs = [], [], {}
    attempted = failed = 0
    t0 = perf_counter()
    while True:
        for op in ops:
            out = outputs[op.key] = timed(op, latencies)
            failed += isinstance(out, ValueError)
            attempted += 1
            if tracer is not None:
                tracer.install()
                try:
                    failed += isinstance(timed(op, traced), ValueError)
                finally:
                    tracer.uninstall()
                attempted += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return latencies, traced, outputs, attempted, failed, elapsed


def tail_latency(latencies: list[float]) -> float:
    """The highest percentile with TAIL_SAMPLES samples beyond it.

    A run of fewer than 4 * TAIL_SAMPLES operations has too few samples
    for such a tail; it reports the upper quartile instead (a quarter of
    the samples beyond it), so that one slow operation does not set it.
    """
    ordered = sorted(latencies)
    beyond = min(TAIL_SAMPLES, len(ordered) // 4)
    return ordered[-beyond - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    own_import_s = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            workload.build()
            workload.ops[0].run()
            setups.append(perf_counter() - start)
        setup_s = import_seconds(own_import_s) + statistics.median(setups)

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        latencies, traced, outputs, attempted, failed, elapsed = run_rounds(workload.ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            workload.check(outputs)
            correct = True
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_table(args.workload, tracer, latencies, traced)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / elapsed,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_latency(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_table(name: str, tracer, latencies: list[float], traced: list[float]) -> dict:
    """Per-layer metrics per traced operation, also written to OUT_DIR."""
    from tracing import LAYER_METRICS

    # Refused operations have no latency on either side; the pairs stay
    # aligned because an operation is refused traced and untraced alike.
    overhead = (sum(traced) - sum(latencies)) / len(traced)
    values = tracer.layer_metrics(len(traced), overhead)
    layers = {metric: {"value": values[metric], "unit": LAYER_METRICS[metric]} for metric in LAYER_METRICS}
    table = {
        "workload": name,
        "traced_operations": len(traced),
        "untraced_s_per_op": sum(latencies) / len(latencies),
        "traced_s_per_op": sum(traced) / len(traced),
        "layers": layers,
    }
    (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(table, indent=2) + "\n")
    for metric, entry in layers.items():
        print(f"{metric:<40} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
