"""Command-line interface: detect, simulate, boxplot, and bench subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .depth import boxplot_summary
from .detector import DEFAULT_QUANTILE, detect
from .io import (
    atomic_write_text,
    boxplot_to_json,
    detection_to_csv,
    detection_to_json,
    load_csv,
    metrics_to_csv,
    metrics_to_json,
    parse_scenarios,
    scenario_id,
)
from .scatter import VARIANTS
from .simulate import bench_variant, run_scenario


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmdshrink",
        description="Robust Mahalanobis outlier detection with shrinkage estimators.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed of every scenario read from a config file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="flag outlying rows of a CSV table")
    p_detect.add_argument("--input", required=True, help="numeric CSV file")
    p_detect.add_argument("--variant", choices=sorted(VARIANTS), default="v6")
    p_detect.add_argument("--quantile", type=float, default=DEFAULT_QUANTILE)
    p_detect.add_argument("--format", choices=("json", "csv"), default="json")
    p_detect.add_argument("--output", required=True)
    p_detect.add_argument(
        "--has-header", action="store_true", help="first row holds column names"
    )

    p_sim = sub.add_parser("simulate", help="run scenario configs and write metrics")
    p_sim.add_argument("--config", required=True, help="JSON scenario file")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--output", required=True)

    p_box = sub.add_parser(
        "boxplot", help="detect outliers and emit depth-based boxplot plot data"
    )
    p_box.add_argument("--input", required=True)
    p_box.add_argument("--variant", choices=sorted(VARIANTS), default="v6")
    p_box.add_argument("--quantile", type=float, default=DEFAULT_QUANTILE)
    p_box.add_argument("--output", required=True)
    p_box.add_argument("--has-header", action="store_true")

    p_bench = sub.add_parser("bench", help="time detection per scenario and variant")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--measurements", type=_positive_int, default=5)
    p_bench.add_argument("--output", default=None, help="optional CSV destination")
    return parser


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_detect(args) -> int:
    data, names = load_csv(args.input, args.has_header)
    report = detect(data, args.variant, args.quantile)
    if args.format == "json":
        text = detection_to_json(report, names)
    else:
        text = detection_to_csv(report)
    atomic_write_text(args.output, text)
    flagged = int(report.flags.sum())
    print(f"{args.input}: flagged {flagged} of {len(report.flags)} rows ({args.variant})")
    return 0


def _scenarios_from_args(args) -> list:
    scenarios = parse_scenarios(_read_text(args.config))
    if args.seed is not None:
        scenarios = [dataclasses.replace(s, seed=args.seed) for s in scenarios]
    return scenarios


def _run_each(scenarios, run, report) -> tuple[list, int]:
    """Run every scenario; count and skip the refused ones.

    A scenario whose run raises ValueError is named on stderr as ABORTED and
    the loop moves on, so the caller writes the rows that ran and exits 1.
    """
    results = []
    aborted = 0
    for spec in scenarios:
        try:
            result = run(spec)
        except ValueError as exc:
            aborted += 1
            print(f"ABORTED {scenario_id(spec)}: {exc}", file=sys.stderr)
            continue
        results.append(result)
        report(spec, result)
    return results, aborted


def _print_metrics(spec, report) -> None:
    print(
        f"{scenario_id(spec)}: c={report.c_mean:.4f} min_c={min(report.c_reps):.4f} "
        f"f={report.f_mean:.4f} F={report.fscore_mean:.4f} "
        f"({report.wall_seconds:.2f}s)"
    )


def _cmd_simulate(args) -> int:
    reports, aborted = _run_each(_scenarios_from_args(args), run_scenario, _print_metrics)
    text = metrics_to_csv(reports) if args.format == "csv" else metrics_to_json(reports)
    atomic_write_text(args.output, text)
    return 1 if aborted else 0


def _cmd_boxplot(args) -> int:
    data, _ = load_csv(args.input, args.has_header)
    report = detect(data, args.variant, args.quantile)
    summary = boxplot_summary(data, report.flags)
    atomic_write_text(args.output, boxplot_to_json(summary, data, report.flags, report))
    print(
        f"{args.input}: {summary.n_flagged} flagged, "
        f"{summary.n_outside} outside the fences"
    )
    return 0


def _print_timing(spec, row) -> None:
    print(
        f"{row['variant']:<8} {row['family']:<20} {row['p']:>4} {row['n']:>6} "
        f"{row['median_seconds']:>15.4f}"
    )


def _cmd_bench(args) -> int:
    scenarios = _scenarios_from_args(args)
    print(f"{'variant':<8} {'family':<20} {'p':>4} {'n':>6} {'median seconds':>15}")
    rows, aborted = _run_each(
        scenarios, lambda spec: bench_variant(spec, args.measurements), _print_timing
    )
    if args.output:
        lines = ["variant,family,p,n,measurements,median_seconds"]
        lines += [
            f"{r['variant']},{r['family']},{r['p']},{r['n']},"
            f"{r['measurements']},{r['median_seconds']!r}"
            for r in rows
        ]
        atomic_write_text(args.output, "\n".join(lines) + "\n")
    return 1 if aborted else 0


_COMMANDS = {
    "detect": _cmd_detect,
    "simulate": _cmd_simulate,
    "boxplot": _cmd_boxplot,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
