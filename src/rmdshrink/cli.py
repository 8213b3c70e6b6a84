"""Command-line interface: detect, simulate, boxplot, and bench subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .depth import boxplot_summary
from .detector import DEFAULT_QUANTILE, detect
from .io import (
    RESULT_COLUMNS,
    atomic_write_text,
    boxplot_to_json,
    detection_to_csv,
    detection_to_json,
    load_csv,
    parse_scenarios,
    rows_to_csv,
    scenario_columns,
    scenario_id,
    scenario_row,
)
from .scatter import VARIANTS
from .simulate import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmdshrink",
        description="Robust Mahalanobis outlier detection with shrinkage estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="flag outlying rows of a CSV table")
    _add_detection_args(p_detect)
    p_detect.add_argument("--format", choices=("json", "csv"), default="json")

    p_sim = sub.add_parser("simulate", help="run scenario configs and write a metrics CSV")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--output", required=True)

    p_box = sub.add_parser(
        "boxplot", help="detect outliers and emit depth-based boxplot plot data"
    )
    _add_detection_args(p_box)

    p_bench = sub.add_parser("bench", help="time detection per scenario and variant")
    _add_scenario_args(p_bench)
    p_bench.add_argument("--output", default=None, help="optional CSV destination")
    return parser


def _read_text(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, as load_csv does for data files.
    with open(path, encoding="utf-8-sig") as fh:
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


def _add_detection_args(parser) -> None:
    parser.add_argument("--input", required=True, help="numeric CSV file")
    parser.add_argument("--variant", choices=sorted(VARIANTS), default="v6")
    parser.add_argument("--quantile", type=float, default=DEFAULT_QUANTILE)
    parser.add_argument("--output", required=True)
    parser.add_argument("--has-header", action="store_true", help="first row holds column names")


def _add_scenario_args(parser) -> None:
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the seed of every scenario in the config"
    )


def _cmd_scenarios(args) -> int:
    """simulate and bench: one row and one status line per scenario that ran.

    A scenario whose run raises ValueError is named on stderr as ABORTED and
    skipped, so the output holds the rows that ran and the command exits 1.
    """
    scenarios = parse_scenarios(_read_text(args.config))
    if args.seed is not None:
        scenarios = [dataclasses.replace(s, seed=args.seed) for s in scenarios]
    results = RESULT_COLUMNS[args.command]
    rows = []
    for spec in scenarios:
        try:
            report = run_scenario(spec)
        except ValueError as exc:
            print(f"ABORTED {scenario_id(spec)}: {exc}", file=sys.stderr)
            continue
        row = scenario_row(args.command, report)
        rows.append(row)
        print(f"{row['scenario']}: " + " ".join(f"{name}={row[name]:.6g}" for name in results))
    if args.output:
        atomic_write_text(args.output, rows_to_csv(scenario_columns(args.command), rows))
    return 1 if len(rows) < len(scenarios) else 0


def _cmd_boxplot(args) -> int:
    data, _ = load_csv(args.input, args.has_header)
    report = detect(data, args.variant, args.quantile)
    summary = boxplot_summary(data, report.flags)
    atomic_write_text(args.output, boxplot_to_json(summary, data, report))
    print(
        f"{args.input}: {summary.n_flagged} flagged, "
        f"{summary.n_outside} outside the fences"
    )
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "simulate": _cmd_scenarios,
    "boxplot": _cmd_boxplot,
    "bench": _cmd_scenarios,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
