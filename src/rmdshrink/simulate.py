"""Seeded contamination generators, detection metrics, and scenario runners."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .detector import DEFAULT_QUANTILE, detect
from .scatter import VARIANTS

FAMILIES = (
    "NormalMixture",
    "T3Mixture",
    "ExpMixture",
    "CorrelatedNormal",
    "AffineTransformed",
    "BreakdownSymmetric",
    "BreakdownAsymmetric",
)

# Fixed 6x6 correlation structure for CorrelatedNormal: two diagonal
# blocks, one strongly dependent and one near the negative exchangeable
# bound for three variables.
_P_BLOCK_1 = np.array(
    [
        [1.0, 0.95, 0.3],
        [0.95, 1.0, 0.1],
        [0.3, 0.1, 1.0],
    ]
)
_P_BLOCK_2 = np.full((3, 3), -0.499) + np.diag(np.full(3, 1.499))


def correlation_matrix() -> np.ndarray:
    """The fixed block-diagonal correlation matrix used by CorrelatedNormal."""
    P = np.zeros((6, 6))
    P[:3, :3] = _P_BLOCK_1
    P[3:, 3:] = _P_BLOCK_2
    return P


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative simulation scenario."""

    family: str
    p: int
    n: int
    alpha: float
    delta: float
    lam: float
    reps: int
    seed: int
    variant: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive")
        if self.family == "CorrelatedNormal" and self.p != 6:
            raise ValueError("CorrelatedNormal requires p = 6")
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError("alpha must lie in [0, 0.5]")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")

    @property
    def n_outliers(self) -> int:
        return math.floor(self.alpha * self.n)


@dataclass(frozen=True)
class MetricsReport:
    """Detection metrics averaged over the replicates of one scenario."""

    spec: ScenarioSpec
    c_mean: float
    f_mean: float
    fscore_mean: float
    c_reps: tuple[float, ...]
    f_reps: tuple[float, ...]
    fscore_reps: tuple[float, ...]
    wall_seconds: float


def _truth(spec: ScenarioSpec) -> np.ndarray:
    truth = np.zeros(spec.n, dtype=bool)
    truth[: spec.n_outliers] = True
    return truth


def gen_normal_mixture(spec: ScenarioSpec, rng: np.random.Generator):
    """Standard normal rows; the first floor(alpha n) are shifted and rescaled."""
    k = spec.n_outliers
    X = rng.standard_normal((spec.n, spec.p))
    X[:k] = spec.delta + math.sqrt(spec.lam) * rng.standard_normal((k, spec.p))
    return X, _truth(spec)


def gen_t3_mixture(spec: ScenarioSpec, rng: np.random.Generator):
    """Heavy-tailed rows: one chi-squared(3) mixing draw per row."""
    k = spec.n_outliers
    w = rng.chisquare(3.0, spec.n)
    Z = rng.standard_normal((spec.n, spec.p))
    X = Z * np.sqrt(3.0 / w)[:, None]
    X[:k] = spec.delta + math.sqrt(spec.lam) * X[:k]
    return X, _truth(spec)


def gen_exp_mixture(spec: ScenarioSpec, rng: np.random.Generator):
    """Independent rate-1 exponential rows; contamination is a location shift."""
    k = spec.n_outliers
    X = rng.exponential(1.0, (spec.n, spec.p))
    X[:k] += spec.delta
    return X, _truth(spec)


def gen_correlated(spec: ScenarioSpec, rng: np.random.Generator):
    """Correlated normal rows under the fixed 6x6 block structure."""
    k = spec.n_outliers
    L = np.linalg.cholesky(correlation_matrix())
    X = rng.standard_normal((spec.n, 6)) @ L.T
    X[:k] += spec.delta
    return X, _truth(spec)


def haar_orthogonal(rng: np.random.Generator, p: int) -> np.ndarray:
    """Uniformly distributed orthogonal matrix via QR with sign fixing."""
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def random_diagonal_scales(rng: np.random.Generator, p: int) -> np.ndarray:
    """Uniform(0,1) scales, redrawing entries too small to keep A invertible."""
    u = rng.uniform(0.0, 1.0, p)
    while True:
        tiny = u < 1e-6
        if not tiny.any():
            return u
        u[tiny] = rng.uniform(0.0, 1.0, int(tiny.sum()))


def gen_affine_transformed(spec: ScenarioSpec, rng: np.random.Generator):
    """Normal mixture pushed through a random invertible map rows -> rows A'."""
    X, truth = gen_normal_mixture(spec, rng)
    T = haar_orthogonal(rng, spec.p)
    u = random_diagonal_scales(rng, spec.p)
    A = T * u
    return X @ A.T, truth


def gen_breakdown(spec: ScenarioSpec, rng: np.random.Generator):
    """Extreme contamination: row i scaled by 100i, or replaced by (100i) * ones."""
    if spec.family not in ("BreakdownSymmetric", "BreakdownAsymmetric"):
        raise ValueError("breakdown generator requires a breakdown family")
    k = spec.n_outliers
    X = rng.standard_normal((spec.n, spec.p))
    magnitudes = 100.0 * np.arange(1, k + 1, dtype=float)
    if spec.family == "BreakdownSymmetric":
        X[:k] *= magnitudes[:, None]
    else:
        X[:k] = np.broadcast_to(magnitudes[:, None], (k, spec.p))
    return X, _truth(spec)


_GENERATORS = {
    "NormalMixture": gen_normal_mixture,
    "T3Mixture": gen_t3_mixture,
    "ExpMixture": gen_exp_mixture,
    "CorrelatedNormal": gen_correlated,
    "AffineTransformed": gen_affine_transformed,
    "BreakdownSymmetric": gen_breakdown,
    "BreakdownAsymmetric": gen_breakdown,
}


def generate(spec: ScenarioSpec, rng: np.random.Generator):
    """Draw one (data, truth) replicate for the scenario family."""
    return _GENERATORS[spec.family](spec, rng)


def metrics(flags, truth) -> tuple[float, float, float]:
    """Correct detection rate, false detection rate, and F-score."""
    fl = np.asarray(flags, dtype=bool).ravel()
    tr = np.asarray(truth, dtype=bool).ravel()
    if fl.shape != tr.shape:
        raise ValueError("flags and truth lengths differ")
    k = int(tr.sum())
    flagged = int(fl.sum())
    if k == 0 and flagged == 0:
        return 1.0, 0.0, 1.0
    tp = int((fl & tr).sum())
    fp = flagged - tp
    inliers = tr.size - k
    c = 1.0 if k == 0 else tp / k
    f = 0.0 if inliers == 0 else fp / inliers
    recall = c
    precision = tp / flagged if flagged > 0 else 0.0
    if precision + recall == 0.0:
        fscore = 0.0
    else:
        fscore = 2.0 * precision * recall / (precision + recall)
    return float(c), float(f), float(fscore)


def run_scenario(spec: ScenarioSpec) -> MetricsReport:
    """Average metrics over seeded replicates (replicate r uses seed + r)."""
    t0 = time.perf_counter()
    cs: list[float] = []
    fs: list[float] = []
    fscores: list[float] = []
    for r in range(spec.reps):
        rng = np.random.default_rng(spec.seed + r)
        X, truth = generate(spec, rng)
        try:
            report = detect(X, spec.variant, DEFAULT_QUANTILE)
        except ValueError as exc:
            raise ValueError(
                f"replicate {r} (seed {spec.seed + r}) of "
                f"{spec.family} p={spec.p} n={spec.n} alpha={spec.alpha:g} "
                f"delta={spec.delta:g} lambda={spec.lam:g} "
                f"variant={spec.variant}: {exc}"
            ) from exc
        c, f, fscore = metrics(report.flags, truth)
        cs.append(c)
        fs.append(f)
        fscores.append(fscore)
    wall = time.perf_counter() - t0
    return MetricsReport(
        spec=spec,
        c_mean=float(np.mean(cs)),
        f_mean=float(np.mean(fs)),
        fscore_mean=float(np.mean(fscores)),
        c_reps=tuple(cs),
        f_reps=tuple(fs),
        fscore_reps=tuple(fscores),
        wall_seconds=wall,
    )


def bench_variant(spec: ScenarioSpec, measurements: int = 5) -> dict:
    """Median wall time of a single detection on freshly generated data."""
    if measurements < 1:
        raise ValueError("measurements must be at least 1")
    times = []
    for i in range(measurements):
        rng = np.random.default_rng(spec.seed + i)
        X, _ = generate(spec, rng)
        t0 = time.perf_counter()
        detect(X, spec.variant, DEFAULT_QUANTILE)
        times.append(time.perf_counter() - t0)
    return {
        "variant": spec.variant,
        "family": spec.family,
        "p": spec.p,
        "n": spec.n,
        "measurements": measurements,
        "median_seconds": float(np.median(times)),
    }
