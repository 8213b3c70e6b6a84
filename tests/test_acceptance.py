"""Acceptance gate: fixed-seed statistical targets and exact behavioral
properties for the whole detection pipeline.

Every Monte Carlo assertion pins a numeric target at seed 20250819 with 100
replicates per scenario. The tolerances are contractual, so a failing cell
here marks a real shortfall of the current construction, not a flaky bound.
A scenario whose replicate errors out is reported as a failure carrying the
replicate context.
"""

import math
import time

import numpy as np
import pytest

from rmdshrink.detector import detect
from rmdshrink.location import ccm_median, l1_median, sandwich_trace, shrink_ccm, shrink_mm
from rmdshrink.primitives import PDMatrix, adjusted_comedian, chi2_quantile, quad_form
from rmdshrink.scatter import shrink_scatter
from rmdshrink.simulate import ScenarioSpec, generate, run_scenario

ACCEPTANCE_SEED = 20250819
REPS = 100
VARIANT_IDS = ("v1", "v2", "v3", "v4", "v5", "v6")


def run_cell(family, p, n, alpha, delta, lam, variant="v6"):
    spec = ScenarioSpec(
        family=family,
        p=p,
        n=n,
        alpha=alpha,
        delta=delta,
        lam=lam,
        reps=REPS,
        seed=ACCEPTANCE_SEED,
        variant=variant,
    )
    try:
        return run_scenario(spec)
    except ValueError as exc:
        pytest.fail(f"scenario aborted: {exc}")


SIZES = ((5, 100), (10, 100), (30, 500))
ALPHAS = (0.1, 0.2, 0.3)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p,n", SIZES)
def test_criterion_01_normal_far_contamination(p, n, alpha):
    report = run_cell("NormalMixture", p, n, alpha, 10.0, 1.0)
    assert report.c_mean == pytest.approx(1.0, abs=0.01)
    assert report.f_mean <= 0.01


def test_criterion_02_sharp_contamination_flagship():
    report = run_cell("NormalMixture", 30, 500, 0.3, 5.0, 0.1, variant="v6")
    assert report.c_mean >= 0.97


def test_criterion_02_sharp_contamination_plain_baseline():
    report = run_cell("NormalMixture", 30, 500, 0.3, 5.0, 0.1, variant="v1")
    assert report.c_mean == pytest.approx(0.5308, abs=0.08)


@pytest.mark.parametrize("p,n,bound", [(5, 100, 0.01), (30, 500, 0.001)])
def test_criterion_03_clean_data_false_rate(p, n, bound):
    report = run_cell("NormalMixture", p, n, 0.0, 0.0, 1.0)
    assert report.f_mean <= bound


@pytest.mark.parametrize("alpha", (0.1, 0.2, 0.3, 0.4, 0.45))
@pytest.mark.parametrize("p", (10, 30))
@pytest.mark.parametrize("family", ("BreakdownSymmetric", "BreakdownAsymmetric"))
def test_criterion_04_breakdown_resistance(family, p, alpha):
    report = run_cell(family, p, 1000, alpha, 0.0, 1.0)
    assert all(c == 1.0 for c in report.c_reps)
    assert report.f_mean <= 0.01


@pytest.mark.parametrize("alpha", (0.1, 0.2))
def test_criterion_05_correlated_moderate_contamination(alpha):
    report = run_cell("CorrelatedNormal", 6, 100, alpha, 5.0, 1.0)
    assert report.c_mean == pytest.approx(1.0, abs=0.01)


def test_criterion_05_correlated_heavy_contamination():
    report = run_cell("CorrelatedNormal", 6, 100, 0.3, 5.0, 1.0)
    assert report.c_mean >= 0.88
    assert report.f_mean <= 0.01


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("lam", (0.1, 1.0))
@pytest.mark.parametrize("p,n", SIZES)
def test_criterion_06_affine_far_contamination(p, n, lam, alpha):
    report = run_cell("AffineTransformed", p, n, alpha, 10.0, lam)
    assert report.c_mean == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("lam", (0.1, 1.0))
@pytest.mark.parametrize("p,n", SIZES)
def test_criterion_06_affine_near_contamination(p, n, lam):
    report = run_cell("AffineTransformed", p, n, 0.3, 5.0, lam)
    assert report.c_mean >= 0.90


def test_criterion_07_heavy_tail_t3_contamination():
    report = run_cell("T3Mixture", 30, 500, 0.3, 10.0, 1.0)
    assert report.c_mean == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_criterion_08_skewed_exponential_contamination(alpha):
    report = run_cell("ExpMixture", 30, 500, alpha, 10.0, 1.0)
    assert report.c_mean == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# criterion 9: exact properties, no Monte Carlo targets


def small_sample(rng):
    p = int(rng.choice([2, 3, 5]))
    n = int(rng.integers(p + 2, 30))
    kind = rng.integers(0, 3)
    if kind == 0:
        X = rng.standard_normal((n, p))
    elif kind == 1:
        X = rng.uniform(-3.0, 3.0, size=(n, p))
    else:
        X = rng.standard_t(df=3, size=(n, p))
    return X * rng.uniform(0.2, 5.0) + rng.uniform(-10.0, 10.0, size=p)


def test_criterion_09_scatter_always_positive_definite():
    failures = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        X = small_sample(rng)
        try:
            est = shrink_scatter(X, ccm_median(X).center)
        except ValueError as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        if np.linalg.eigvalsh(est.matrix.entries)[0] <= 0.0:
            failures.append(f"seed {seed}: nonpositive eigenvalue escaped")
    assert not failures, (
        f"{len(failures)} of 1000 samples broke positive definiteness: "
        + "; ".join(failures)
    )


@pytest.mark.parametrize("seed", range(30))
def test_criterion_09_trace_preserved(seed):
    rng = np.random.default_rng(seed)
    X = small_sample(rng)
    center = ccm_median(X).center
    raw = adjusted_comedian(X, center)
    est = shrink_scatter(X, center)
    assert np.isclose(np.trace(est.matrix.entries), np.trace(raw), rtol=1e-10)


def scan_sample(rng):
    p = int(rng.integers(2, 6))
    n = int(rng.integers(30, 80))
    X = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
    X[: max(1, n // 12)] += rng.uniform(3.0, 6.0)
    return X


def invariance_violations(variant, transform):
    violations = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = scan_sample(rng)
        try:
            base = detect(X, variant)
        except ValueError:
            continue
        try:
            moved = detect(transform(rng, X), variant)
        except ValueError:
            violations.append(seed)
            continue
        if not np.array_equal(base.flags, moved.flags):
            violations.append(seed)
    return violations


@pytest.mark.parametrize("variant", VARIANT_IDS)
def test_criterion_09_flags_translation_invariant(variant):
    # Shrunk centers pull toward nu * ones with an intensity that depends on
    # how the raw center spreads about its mean coordinate, so only shifts
    # along the all-ones vector leave them unchanged. v1 and v4 carry no
    # shrunk center and must be invariant under arbitrary shifts.
    arbitrary = variant in ("v1", "v4")
    bad = invariance_violations(
        variant,
        lambda rng, X: X + rng.uniform(-8.0, 8.0, size=X.shape[1] if arbitrary else None),
    )
    assert bad == [], f"{variant}: flags changed under translation at seeds {bad}"


@pytest.mark.parametrize("variant", VARIANT_IDS)
def test_criterion_09_flags_uniform_scale_invariant(variant):
    bad = invariance_violations(
        variant, lambda rng, X: rng.uniform(0.2, 5.0) * X
    )
    assert bad == [], f"{variant}: flags changed under rescaling at seeds {bad}"


@pytest.mark.parametrize("variant", VARIANT_IDS)
def test_criterion_09_flags_column_permutation_invariant(variant):
    bad = invariance_violations(
        variant, lambda rng, X: X[:, rng.permutation(X.shape[1])]
    )
    assert bad == [], f"{variant}: flags changed under permutation at seeds {bad}"


def test_criterion_09_intensities_stay_in_unit_interval():
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = scan_sample(rng)
        for variant in VARIANT_IDS:
            try:
                report = detect(X, variant)
            except ValueError:
                continue
            if report.eta_location is not None:
                assert 0.0 <= report.eta_location <= 1.0
            assert 0.0 <= report.eta_scatter <= 1.0
            checked += 1
    assert checked > 200


def grid_minimizer(numerator, denominator, points=10_000):
    # argmin over [0, 1] of (1-eta)^2 * N + eta^2 * (D - N)
    grid = np.linspace(0.0, 1.0, points)
    objective = (1.0 - grid) ** 2 * numerator + grid**2 * (denominator - numerator)
    return float(grid[int(np.argmin(objective))]), 1.0 / (points - 1)


@pytest.mark.parametrize("seed", range(10))
def test_criterion_09_ccm_location_intensity_minimizes_risk(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 4)) + rng.uniform(-3.0, 3.0, size=4)
    est = shrink_ccm(X)
    mu = np.median(X, axis=0)
    numerator = math.pi / (2.0 * len(X)) * float(np.trace(adjusted_comedian(X, mu)))
    gap = mu - mu.mean()
    best, step = grid_minimizer(numerator, float(gap @ gap))
    assert abs(est.eta - best) <= step


@pytest.mark.parametrize("seed", range(10))
def test_criterion_09_spatial_location_intensity_minimizes_risk(seed):
    rng = np.random.default_rng(seed + 100)
    X = rng.standard_normal((35, 3)) + rng.uniform(-3.0, 3.0, size=3)
    est = shrink_mm(X)
    raw = l1_median(X, mode="geometric").center
    numerator = sandwich_trace(X, raw)
    gap = raw - raw.mean()
    best, step = grid_minimizer(numerator, float(gap @ gap))
    assert abs(est.eta - best) <= step


@pytest.mark.parametrize("seed", range(10))
def test_criterion_09_scatter_intensity_minimizes_risk(seed):
    rng = np.random.default_rng(seed + 200)
    X = rng.standard_normal((40, 3)) * rng.uniform(0.5, 2.0) + rng.uniform(
        -4.0, 4.0, size=3
    )
    center = ccm_median(X).center
    est = shrink_scatter(X, center)
    S = adjusted_comedian(X, center)
    n, p = X.shape
    nu = float(np.trace(S)) / p
    deviation = S - nu * np.eye(p)
    d2 = float((deviation * deviation).sum()) / p
    Y = X - center
    q = np.einsum("ij,ij->i", Y, Y)
    cross = np.einsum("ij,jk,ik->i", Y, S, Y)
    b2 = float((q * q - 2.0 * cross).sum() + n * float((S * S).sum())) / (n * n * p)
    best, step = grid_minimizer(b2, d2)
    assert abs(est.eta - best) <= step


@pytest.mark.parametrize("seed", range(10))
def test_criterion_09_quadratic_form_matches_explicit_inverse(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 8))
    A = rng.standard_normal((p + 5, p))
    M = PDMatrix.from_symmetric(A.T @ A / len(A) + 0.5 * np.eye(p))
    y = rng.standard_normal(p)
    want = float(y @ np.linalg.inv(M.entries) @ y)
    assert quad_form(M, y) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("prob", (0.5, 0.9, 0.975, 0.999))
def test_criterion_09_chi2_quantile_matches_closed_form(prob):
    assert abs(chi2_quantile(2, prob) - (-2.0 * math.log(1.0 - prob))) < 1e-10


def test_criterion_10_single_detection_under_one_second():
    spec = ScenarioSpec(
        family="NormalMixture",
        p=30,
        n=500,
        alpha=0.1,
        delta=10.0,
        lam=1.0,
        reps=1,
        seed=ACCEPTANCE_SEED,
        variant="v6",
    )
    X, _ = generate(spec, np.random.default_rng(ACCEPTANCE_SEED))
    detect(X, "v6")  # warm the code paths once
    start = time.perf_counter()
    detect(X, "v6")
    assert time.perf_counter() - start < 1.0
