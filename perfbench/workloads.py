"""The workloads: their inputs, their operations and their checks.

Every workload draws its inputs from the seed it is given. The inputs of
detect_wide and boxplot_table come from this file's own numpy
code, not from rmdshrink.simulate, so a change to the program's generators
cannot change them. simulate_grid is the program's own Monte Carlo study,
so its replicates are drawn by ``rmdshrink.generate`` inside
``run_scenario``.

Operations call the program through module attributes looked up at call
time (``rm.detect``, ``cli.main``), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import rmdshrink as rm
import rmdshrink.cli as cli
import rmdshrink.io

QUANTILE = rm.DEFAULT_QUANTILE
VARIANT_IDS = tuple(rm.VARIANTS)

# The near-contamination acceptance cell of tests/test_acceptance.py
# (criterion 6, AffineTransformed p30 n500 alpha 0.3 delta 5 lambda 0.1, v6,
# 100 replicates from seed 20250819). Its replicate 96 (seed 20250915) is
# refused as "matrix is not positive definite"; the cell does not depend on
# --seed, so every run fails exactly that one operation.
ACCEPTANCE_SEED = 20250819
ACCEPTANCE_REPS = 100

# simulate_grid cells at delta 10, alpha 0.1, lambda 1: (family, p, n, reps).
GRID_FAMILIES = ("NormalMixture", "T3Mixture", "ExpMixture", "AffineTransformed")
GRID_SIZES = ((5, 100, 25), (10, 100, 25), (30, 500, 15))
CORRELATED_REPS = 25


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation. ``run`` raises ValueError when the program refuses it."""

    key: object
    run: Callable[[], object]


@dataclass
class Workload:
    seed: int
    workdir: str
    ops: list[Op] = field(default_factory=list)

    def build(self) -> None:
        """Draw the inputs, write them to disk and list the operations."""
        raise NotImplementedError

    def check(self, outputs: dict) -> None:
        """Check the outputs of the last round; raise CheckFailed on a mismatch."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# checks shared by the workloads


def chi2_threshold(p: int) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(QUANTILE, p))


def reference_d2(X: np.ndarray, variant: str):
    """d2 from np.linalg.solve on the estimates scatter_for_variant returns."""
    loc, scat = rm.scatter_for_variant(X, variant)
    Y = X - loc.center
    sol = np.linalg.solve(scat.matrix.entries, Y.T)
    return np.einsum("ij,ji->i", Y, sol), loc, scat


def base_center(X: np.ndarray, variant: str, loc) -> np.ndarray:
    """The vector the variant centres its comedian at."""
    _, center_method = rm.VARIANTS[variant]
    if center_method == "ccm":
        return np.median(X, axis=0)
    if center_method == loc.method:
        return loc.center
    return rm.l1_median(X, mode="geometric").center


def check_detection(X: np.ndarray, variant: str, threshold: float, d2, flags, eta_loc, eta_scat, tag: str) -> None:
    """Threshold, flags, d2, trace and intensities of one detection."""
    p = X.shape[1]
    d2 = np.asarray(d2, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    expect(math.isclose(threshold, chi2_threshold(p), rel_tol=1e-9), f"{tag}: threshold {threshold} != chi2.ppf")
    expect(np.array_equal(flags, d2 > threshold), f"{tag}: flags != (d2 > threshold)")
    ref, loc, scat = reference_d2(X, variant)
    expect(np.allclose(d2, ref, rtol=1e-7, atol=1e-9), f"{tag}: d2 differs from np.linalg.solve on the estimates")
    c = base_center(X, variant, loc)
    raw_trace = rm.COMEDIAN_ADJUST * sum(float(np.median((X[:, j] - c[j]) ** 2)) for j in range(p))
    kept = float(np.trace(scat.matrix.entries))
    expect(math.isclose(kept, raw_trace, rel_tol=1e-9), f"{tag}: scatter trace {kept} != adjusted comedian trace {raw_trace}")
    for name, eta in (("location", eta_loc), ("scatter", eta_scat)):
        expect(eta is None or 0.0 <= eta <= 1.0, f"{tag}: {name} eta {eta} outside [0, 1]")


def check_invariance(X: np.ndarray, variant: str, flags, rng: np.random.Generator, tag: str) -> None:
    """Flags survive a column permutation and a positive rescaling."""
    perm = rng.permutation(X.shape[1])
    permuted = rm.detect(X[:, perm], variant, QUANTILE).flags
    expect(np.array_equal(permuted, flags), f"{tag}: flags change under a column permutation")
    scale = float(rng.uniform(0.2, 5.0))
    rescaled = rm.detect(scale * X, variant, QUANTILE).flags
    expect(np.array_equal(rescaled, flags), f"{tag}: flags change under rescaling by {scale}")


def check_comedian_entries(X: np.ndarray, rng: np.random.Generator) -> None:
    """Twelve sampled comedian entries against an explicit per-pair np.median."""
    p = X.shape[1]
    center = np.median(X, axis=0)
    S = rm.comedian(X, center)
    for j, t in rng.integers(0, p, size=(12, 2)):
        want = float(np.median((X[:, j] - center[j]) * (X[:, t] - center[t])))
        expect(math.isclose(S[j, t], want, rel_tol=1e-12, abs_tol=1e-15), f"comedian[{j}, {t}] {S[j, t]} != {want}")


def write_csv(path: str, X: np.ndarray, header: list[str]) -> None:
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in X.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_cli(argv: list[str]) -> int:
    """cli.main in-process with its status line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise ValueError(f"rmdshrink {argv[0]} exited with {code}")
    return code


# ---------------------------------------------------------------------------
# detect_wide


class DetectWide(Workload):
    """Library detect on a wide table (p=100, n=2000), all six variants."""

    N, P, OUTLIERS, SHIFT = 2000, 100, 100, 10.0

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        loadings = 0.7 * rng.standard_normal((3, self.P))
        X = rng.standard_normal((self.N, self.P)) + rng.standard_normal((self.N, 3)) @ loadings
        X[: self.OUTLIERS] += self.SHIFT
        self.X = X
        self.ops = [Op(v, lambda v=v: rm.detect(self.X, v, QUANTILE)) for v in VARIANT_IDS]

    def check(self, outputs: dict) -> None:
        rng = np.random.default_rng(self.seed + 1)
        for v, report in outputs.items():
            if isinstance(report, ValueError):
                continue
            check_detection(self.X, v, report.threshold, report.d2, report.flags,
                            report.eta_location, report.eta_scatter, f"detect_wide {v}")
            expect(report.flags[: self.OUTLIERS].all(), f"detect_wide {v}: a shifted row is not flagged")
        if not isinstance(outputs["v6"], ValueError):
            check_invariance(self.X, "v6", outputs["v6"].flags, rng, "detect_wide v6")
        check_comedian_entries(self.X, rng)


# ---------------------------------------------------------------------------
# simulate_grid


class SimulateGrid(Workload):
    """The Monte Carlo grid, one replicate per operation."""

    def build(self) -> None:
        cells = [(f, p, n, 0.1, 10.0, 1.0, reps) for f in GRID_FAMILIES for p, n, reps in GRID_SIZES]
        cells.append(("CorrelatedNormal", 6, 100, 0.1, 5.0, 1.0, CORRELATED_REPS))
        specs = []
        for family, p, n, alpha, delta, lam, reps in cells:
            for v in VARIANT_IDS:
                specs += [rm.ScenarioSpec(family, p, n, alpha, delta, lam, 1, self.seed + r, v)
                          for r in range(reps)]
        specs += [rm.ScenarioSpec("AffineTransformed", 30, 500, 0.3, 5.0, 0.1, 1, ACCEPTANCE_SEED + r, "v6")
                  for r in range(ACCEPTANCE_REPS)]
        self.ops = [Op(i, lambda s=s: rm.run_scenario(s)) for i, s in enumerate(specs)]
        self.specs = specs

    def check(self, outputs: dict) -> None:
        rng = np.random.default_rng(self.seed + 1)
        checked = set()
        for i, spec in enumerate(self.specs):
            report = outputs[i]
            if isinstance(report, ValueError):
                continue
            tag = f"simulate_grid {rmdshrink.io.scenario_id(spec)} seed {spec.seed}"
            if spec.delta == 10.0:
                expect(report.c_reps == (1.0,), f"{tag}: c {report.c_reps} below 1 at delta 10")
            cell = (spec.family, spec.p, spec.n, spec.alpha, spec.delta, spec.lam, spec.variant)
            if cell in checked:
                continue
            checked.add(cell)
            # The first completed replicate of every cell is recomputed.
            X, truth = rm.generate(spec, np.random.default_rng(spec.seed))
            det = rm.detect(X, spec.variant, QUANTILE)
            check_detection(X, spec.variant, det.threshold, det.d2, det.flags,
                            det.eta_location, det.eta_scatter, tag)
            c = float(det.flags[truth].mean()) if truth.any() else 1.0
            f = float(det.flags[~truth].mean())
            expect(math.isclose(c, report.c_mean, abs_tol=1e-12), f"{tag}: c {report.c_mean} != {c} from flags")
            expect(math.isclose(f, report.f_mean, abs_tol=1e-12), f"{tag}: f {report.f_mean} != {f} from flags")
            if spec.delta == 10.0:
                expect(det.flags[truth].all(), f"{tag}: a delta-10 outlier is not flagged")
            check_invariance(X, spec.variant, det.flags, rng, tag)


# ---------------------------------------------------------------------------
# boxplot_table


def reference_depths(X: np.ndarray, block: int = 100) -> np.ndarray:
    """L1 depth of every row, in blocks of rows, coincident points skipped."""
    n = X.shape[0]
    depths = np.empty(n)
    for start in range(0, n, block):
        diffs = X[start : start + block, None, :] - X[None, :, :]
        norms = np.sqrt((diffs * diffs).sum(axis=2))
        units = np.where(norms[:, :, None] > 1e-12, diffs / np.maximum(norms, 1e-300)[:, :, None], 0.0)
        depths[start : start + block] = 1.0 - np.linalg.norm(units.sum(axis=1) / n, axis=1)
    return depths


def brute_force_depth(X: np.ndarray, point: np.ndarray) -> float:
    total = np.zeros(X.shape[1])
    for row in X:
        diff = point - row
        norm = math.sqrt(float(diff @ diff))
        if norm > 1e-12:
            total += diff / norm
    return 1.0 - float(np.linalg.norm(total / X.shape[0]))


class BoxplotTable(Workload):
    """CLI boxplot on a heavy-tailed CSV (n=2000, p=5, with a header)."""

    N, P, OUTLIERS, SHIFT = 2000, 5, 40, 8.0

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        mix = np.tril(rng.uniform(-0.5, 0.5, (self.P, self.P)), -1) + np.eye(self.P)
        Z = rng.standard_normal((self.N, self.P)) @ mix.T
        X = Z / np.sqrt(rng.chisquare(3.0, self.N) / 3.0)[:, None]
        X[: self.OUTLIERS] += self.SHIFT
        self.X = X
        self.csv = os.path.join(self.workdir, "boxplot_input.csv")
        self.out = os.path.join(self.workdir, "boxplot.json")
        write_csv(self.csv, X, [f"x{j + 1}" for j in range(self.P)])
        argv = ["boxplot", "--input", self.csv, "--output", self.out, "--has-header"]
        self.ops = [Op("boxplot", lambda: run_cli(argv))]

    def check(self, outputs: dict) -> None:
        # A refused last command would leave an earlier round's file to check.
        expect(not isinstance(outputs["boxplot"], ValueError), f"boxplot_table: {outputs['boxplot']}")
        with open(self.out, encoding="utf-8") as fh:
            payload = json.load(fh)
        X = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        expect(np.array_equal(np.asarray(payload["rows"]), X), "boxplot_table: rows differ from np.loadtxt")
        p = X.shape[1]
        threshold = payload["threshold"]
        expect(math.isclose(threshold, chi2_threshold(p), rel_tol=1e-9), "boxplot_table: threshold != chi2.ppf")
        d2, _, _ = reference_d2(X, payload["variant"])
        flags = np.asarray(payload["flags"], dtype=bool)
        expect(np.array_equal(flags, d2 > threshold), "boxplot_table: flags differ from np.linalg.solve distances")
        depths = reference_depths(X)
        rng = np.random.default_rng(self.seed + 1)
        for i in rng.choice(X.shape[0], size=4, replace=False):
            brute = brute_force_depth(X, X[i])
            expect(math.isclose(rm.l1_depth(X, X[i]), brute, rel_tol=1e-9, abs_tol=1e-12),
                   f"boxplot_table: l1_depth of row {i} != brute force {brute}")
            expect(math.isclose(depths[i], brute, rel_tol=1e-9, abs_tol=1e-12),
                   f"boxplot_table: blocked depth of row {i} != brute force {brute}")
        order = np.asarray(payload["depth_order"])
        expect(np.array_equal(np.sort(order), np.arange(X.shape[0])), "boxplot_table: depth_order is not a permutation")
        expect(bool(np.all(np.diff(depths[order]) <= 1e-12)), "boxplot_table: depth_order is not by descending depth")
        deepest = X[np.argsort(-depths, kind="stable")[: math.ceil(X.shape[0] / 2)]]
        q1, q3 = deepest.min(axis=0), deepest.max(axis=0)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        for key, want in (("q1", q1), ("q3", q3), ("fences_lo", lo), ("fences_hi", hi)):
            expect(np.allclose(payload[key], want, rtol=1e-12, atol=0.0), f"boxplot_table: {key} != deepest-half value")
        within = np.all((X >= lo) & (X <= hi), axis=1)
        counts = payload["counts"]
        expect(counts["flagged_total"] == int(flags.sum()), "boxplot_table: flagged_total != number of flags")
        expect(counts["inside_fences"] == int((flags & within).sum()), "boxplot_table: inside_fences miscounted")
        expect(counts["outside_fences"] == int((flags & ~within).sum()), "boxplot_table: outside_fences miscounted")


WORKLOADS = {
    "detect_wide": DetectWide,
    "simulate_grid": SimulateGrid,
    "boxplot_table": BoxplotTable,
}
