"""CSV ingestion, scenario config parsing, and atomic report serialization."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import stat
import tempfile

import numpy as np

from .depth import BoxplotSummary
from .detector import DetectionReport
from .simulate import MetricsReport, ScenarioSpec

# Config key -> ScenarioSpec field; the config spells lam as "lambda".
_SCENARIO_KEYS = {
    "lambda" if f.name == "lam" else f.name: f.name for f in dataclasses.fields(ScenarioSpec)
}

# The result columns of each harness command's row, read off a MetricsReport.
RESULT_COLUMNS = {
    "simulate": {
        "c": lambda report: report.c_mean,
        "min_c": lambda report: min(report.c_reps),
        "f": lambda report: report.f_mean,
        "fscore": lambda report: report.fscore_mean,
    },
    "bench": {"median_seconds": lambda report: float(np.median(report.detect_seconds))},
}


def load_csv(path, has_header: bool = False) -> tuple[np.ndarray, list[str] | None]:
    """Read a rectangular numeric CSV into a matrix, plus header names if any."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = None
    first_data_row = 1
    if has_header:
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        first_data_row = 2
        if not rows:
            raise ValueError(f"{path}: no data rows below the header")
    width = len(rows[0])
    if names is not None and len(names) != width:
        raise ValueError(f"{path}: header has {len(names)} cells, expected {width}")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        line = first_data_row + i
        if len(row) != width:
            raise ValueError(
                f"{path}: row {line} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise ValueError(f"{path}: blank cell at row {line}, column {j + 1}")
            try:
                # float() also reads "1_0" and non-ASCII digits; a data cell may not.
                if "_" in text or not text.isascii():
                    raise ValueError
                value = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {text!r} at row {line}, column {j + 1}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite cell {text!r} at row {line}, column {j + 1}"
                )
            data[i, j] = value
    return data, names


def atomic_write_text(path, text: str) -> None:
    """Write through a temp file and rename, so partial output never lands.

    The file gets the permissions of a plain ``open(path, "w")`` (mkstemp's
    are 0600): those of the file it replaces, else 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _scenario_from_mapping(obj, index: int) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"scenario {index}: expected a JSON object")
    unknown = obj.keys() - _SCENARIO_KEYS.keys()
    if unknown:
        raise ValueError(f"scenario {index}: unknown keys {sorted(unknown)}")
    missing = _SCENARIO_KEYS.keys() - obj.keys()
    if missing:
        raise ValueError(f"scenario {index}: missing keys {sorted(missing)}")
    try:
        return ScenarioSpec(**{_SCENARIO_KEYS[key]: value for key, value in obj.items()})
    except ValueError as exc:
        raise ValueError(f"scenario {index}: {exc}") from None


def _refuse_repeated_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config repeats key {key!r} in one object")
        obj[key] = value
    return obj


def parse_scenarios(text: str) -> list[ScenarioSpec]:
    """Parse a strict JSON scenario config: one object or an array of them."""
    try:
        parsed = json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    items = parsed if isinstance(parsed, list) else [parsed]
    if not items:
        raise ValueError("config contains no scenarios")
    return [_scenario_from_mapping(obj, i) for i, obj in enumerate(items)]


def scenario_id(spec: ScenarioSpec) -> str:
    return (
        f"{spec.family}-{spec.variant}-p{spec.p}-n{spec.n}"
        f"-a{spec.alpha:g}-d{spec.delta:g}-l{spec.lam:g}"
    )


def scenario_columns(command: str) -> tuple[str, ...]:
    """The scenario id, then the config keys in config order, then the command's results."""
    return ("scenario", *_SCENARIO_KEYS, *RESULT_COLUMNS[command])


def scenario_row(command: str, report: MetricsReport) -> dict:
    """One row of `command`'s CSV: the scenario that ran and what it measured."""
    spec = report.spec
    values = [scenario_id(spec)]
    values += [getattr(spec, name) for name in _SCENARIO_KEYS.values()]
    values += [read(report) for read in RESULT_COLUMNS[command].values()]
    return dict(zip(scenario_columns(command), values, strict=True))


def rows_to_csv(columns, rows) -> str:
    """CSV with a header row; floats are written as str, which reads back exactly."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def detection_to_json(report: DetectionReport, column_names=None) -> str:
    payload = {
        "variant": report.variant,
        "quantile": report.quantile,
        "threshold": report.threshold,
        "n": int(report.d2.shape[0]),
        "eta_location": report.eta_location,
        "eta_scatter": report.eta_scatter,
        "columns": column_names,
        "d2": report.d2.tolist(),
        "flags": report.flags.tolist(),
        "flagged_indices": np.flatnonzero(report.flags).tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def detection_to_csv(report: DetectionReport) -> str:
    rows = (
        {"index": i, "d2": float(d2), "flag": int(flag)}
        for i, (d2, flag) in enumerate(zip(report.d2, report.flags))
    )
    return rows_to_csv(("index", "d2", "flag"), rows)


def boxplot_to_json(summary: BoxplotSummary, data, report: DetectionReport) -> str:
    X = np.asarray(data, dtype=float)
    payload = {
        "variant": report.variant,
        "threshold": report.threshold,
        "median_point": summary.median_point.tolist(),
        "q1": summary.q1.tolist(),
        "q3": summary.q3.tolist(),
        "fences_lo": summary.fences_lo.tolist(),
        "fences_hi": summary.fences_hi.tolist(),
        "depth_order": summary.depth_order.tolist(),
        "counts": {
            "inside_fences": summary.n_inside,
            "outside_fences": summary.n_outside,
            "flagged_total": summary.n_flagged,
        },
        "rows": X.tolist(),
        "flags": report.flags.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"
