"""Location estimators checked against brute-force and grid-search oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from rmdshrink.location import (
    ccm_median,
    l1_median,
    sandwich_trace,
    shrink_ccm,
    shrink_mm,
)


def spatial_objective(X, point):
    return np.linalg.norm(X - point, axis=1).sum()


class TestCcmMedian:
    def test_columnwise_values(self):
        X = np.array([[1.0, 10.0], [2.0, 30.0], [3.0, 20.0]])
        est = ccm_median(X)
        assert np.array_equal(est.center, [2.0, 20.0])
        assert est.method == "ccm"

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((21, 3))
        a = np.array([2.0, -1.5, 0.25])
        b = np.array([4.0, 0.0, -2.0])
        got = ccm_median(X * a + b).center
        want = ccm_median(X).center * a + b
        assert np.allclose(got, want, atol=1e-12)


class TestL1Median:
    def test_three_point_corner(self):
        # Every angle of the right isosceles triangle is below 120 degrees,
        # so the spatial median is its Fermat point, on the diagonal.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        est = l1_median(X)
        assert est.method == "mm"
        assert np.allclose(est.center, (3.0 - math.sqrt(3.0)) / 6.0, rtol=0.0, atol=1e-9)

    def test_single_row(self):
        est = l1_median(np.array([[3.0, -1.0]]))
        assert np.array_equal(est.center, [3.0, -1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        # A general-purpose minimizer of the summed distances is the oracle.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        p = int(rng.integers(1, 6))
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
        opt = minimize(
            lambda m: spatial_objective(X, m),
            np.median(X, axis=0),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20_000},
        )
        got = spatial_objective(X, l1_median(X).center)
        assert got <= opt.fun + 1e-9 * max(1.0, opt.fun)

    def test_row_order_invariance_without_ties(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((15, 3))
        want = l1_median(X).center
        perm = rng.permutation(15)
        assert np.allclose(l1_median(X[perm]).center, want, rtol=0.0, atol=1e-9)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((11, 4))
        perm = np.array([2, 0, 3, 1])
        got = l1_median(X[:, perm]).center
        assert np.allclose(got, l1_median(X).center[perm], rtol=0.0, atol=1e-9)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((25, 3)) + np.array([1.0, -2.0, 0.5])
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        got = l1_median(X @ Q.T).center
        assert np.allclose(got, Q @ l1_median(X).center, rtol=0.0, atol=1e-9)

    def test_geometric_mode_finds_symmetric_center(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        est = l1_median(X, mode="geometric")
        assert np.linalg.norm(est.center) < 1e-6

    def test_geometric_mode_handles_coincident_points(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 1.0]])
        est = l1_median(X, mode="geometric")
        assert np.all(np.isfinite(est.center))
        # majority point dominates the pull
        assert np.linalg.norm(est.center) < 1e-6
        # every row on the starting iterate: no 0/0 weights are formed
        for same in (np.array([[3.0, -1.0]]), np.full((4, 3), 0.1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = l1_median(same, mode="geometric")
            assert np.allclose(est.center, same[0], rtol=0.0, atol=1e-15)

    def test_unknown_mode_rejected(self):
        for mode in ("mean", "medoid"):
            with pytest.raises(ValueError, match="unknown mode"):
                l1_median(np.ones((3, 2)), mode=mode)


def sandwich_oracle(X, center):
    # plain-loop recomputation of the averaged direction matrices
    Y = X - center
    n, p = X.shape
    A = np.zeros((p, p))
    B = np.zeros((p, p))
    m = 0
    for y in Y:
        r = np.linalg.norm(y)
        if r <= 1e-12:
            continue
        m += 1
        B += np.outer(y, y) / r**2
        A += (np.eye(p) - np.outer(y, y) / r**2) / r
    A /= m
    B /= m
    Ainv = np.linalg.inv(A)
    return np.trace(Ainv @ B @ Ainv) / n


# (seed, largest p, smallest n, t3 rows): seeds 0-7 are small normal samples,
# the rest reach p = 30 and alternate normal and t3 rows.
SANDWICH_CASES = [(seed, 5, 10, False) for seed in range(8)] + [
    (seed, 30, 60, seed % 2 == 1) for seed in range(8, 40)
]


class TestSandwichTrace:
    @pytest.mark.parametrize("seed, p_max, n_min, t3", SANDWICH_CASES,
                             ids=[str(case[0]) for case in SANDWICH_CASES])
    def test_matches_loop_recomputation(self, seed, p_max, n_min, t3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(n_min, n_min + 50))
        p = int(rng.integers(2, p_max + 1))
        X = rng.standard_normal((n, p))
        if t3:
            X /= np.sqrt(rng.chisquare(3.0, n) / 3.0)[:, None]
        center = np.median(X, axis=0)
        got = sandwich_trace(X, center)
        want = sandwich_oracle(X, center)
        assert np.isclose(got, want, rtol=1e-10)

    def test_direction_second_moment_is_isotropic_for_spherical_data(self):
        # for spherical data the B average tends to I/p entrywise
        rng = np.random.default_rng(99)
        p = 3
        X = rng.standard_normal((100_000, p))
        Y = X - np.zeros(p)
        r = np.linalg.norm(Y, axis=1)
        U = Y / r[:, None]
        B = (U.T @ U) / len(X)
        assert np.allclose(B, np.eye(p) / p, atol=0.01)

    @pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
    def test_scales_quadratically(self, c):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((40, 3))
        center = np.median(X, axis=0)
        base = sandwich_trace(X, center)
        scaled = sandwich_trace(c * X, c * center)
        assert np.isclose(scaled, c * c * base, rtol=1e-9)

    def test_collinear_data_rejected(self):
        t = np.linspace(-1.0, 1.0, 20)
        X = np.column_stack([t, 2.0 * t, -t])
        with pytest.raises(ValueError, match="degenerate direction"):
            sandwich_trace(X, np.zeros(3))

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            sandwich_trace(np.ones((2, 3)), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_center_rejected(self, bad):
        X = np.random.default_rng(7).standard_normal((20, 3))
        center = np.median(X, axis=0)
        center[1] = bad
        with pytest.raises(ValueError, match="center contains NaN or infinite entries"):
            sandwich_trace(X, center)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_column_rejected(self, seed):
        # at p = 1, A = mean(1/r - y^2/r^3) is zero up to rounding
        X = np.random.default_rng(seed).standard_normal((50, 1))
        X[:3] += 8.0
        with pytest.raises(ValueError, match="degenerate direction"):
            sandwich_trace(X, l1_median(X).center)

    def test_all_rows_at_center_rejected(self):
        X = np.tile([1.0, 2.0], (6, 1))
        with pytest.raises(ValueError, match="degenerate direction"):
            sandwich_trace(X, np.array([1.0, 2.0]))

    def test_traced_peak_is_two_copies_of_the_data(self):
        # at p100/n2000 one n x p array is 1.5 MiB; the centred rows, their
        # unit directions, U / r and U V once took 6.3 MiB together
        X = np.random.default_rng(5).standard_normal((2000, 100))
        assert traced_peak(sandwich_trace, X, np.median(X, axis=0)) <= 3.5 * 2**20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_argmin_eta(numerator, denom, points=10_001):
    # minimize (1-eta)^2 * N + eta^2 * (D - N) over a uniform grid
    grid = np.linspace(0.0, 1.0, points)
    mse = (1.0 - grid) ** 2 * numerator + grid**2 * (denom - numerator)
    return grid[int(np.argmin(mse))]


class TestShrinkCcm:
    def test_traced_peak_is_one_copy_of_the_data(self):
        # at p100/n2000 one n x p array is 1.5 MiB; X - mu, its square and
        # the median's copy of that once took 4.6 MiB together
        X = np.random.default_rng(5).standard_normal((2000, 100))
        assert traced_peak(shrink_ccm, X) <= 2 * 2**20

    def test_already_on_target_pins_intensity(self):
        # all coordinates share one median, so the target equals the raw
        # estimate and the intensity convention is 1
        rng = np.random.default_rng(2)
        X = rng.standard_normal((31, 4))
        X -= np.median(X, axis=0)  # every column median now 0
        est = shrink_ccm(X)
        assert est.eta == 1.0
        assert np.allclose(est.center, 0.0, atol=1e-12)

    def test_center_lies_between_raw_and_target(self):
        rng = np.random.default_rng(77)
        X = rng.standard_normal((25, 3)) + np.array([1.0, 5.0, -2.0])
        est = shrink_ccm(X)
        mu = np.median(X, axis=0)
        lo = np.minimum(mu, est.nu_mu)
        hi = np.maximum(mu, est.nu_mu)
        assert np.all(est.center >= lo - 1e-12)
        assert np.all(est.center <= hi + 1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_intensity_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 3)) * rng.uniform(0.1, 10.0) + rng.uniform(
            -5.0, 5.0, size=3
        )
        est = shrink_ccm(X)
        assert 0.0 <= est.eta <= 1.0

    def test_intensity_shrinks_with_sample_size(self):
        rng = np.random.default_rng(8)
        loc = np.array([0.0, 2.0, 4.0, 6.0])
        small = rng.standard_normal((50, 4)) + loc
        large = rng.standard_normal((5000, 4)) + loc
        assert shrink_ccm(small).eta > shrink_ccm(large).eta

    @pytest.mark.parametrize("seed", range(6))
    def test_intensity_matches_grid_search(self, seed):
        from rmdshrink.primitives import adjusted_comedian

        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 4)) + rng.uniform(-3.0, 3.0, size=4)
        est = shrink_ccm(X)
        mu = np.median(X, axis=0)
        n = len(X)
        numerator = math.pi / (2.0 * n) * float(
            np.trace(adjusted_comedian(X, mu))
        )
        gap = mu - mu.mean()
        denom = float(gap @ gap)
        want = min(max(numerator / denom, 0.0), 1.0)
        grid_best = grid_argmin_eta(numerator, denom)
        assert abs(est.eta - want) < 1e-12
        assert abs(est.eta - grid_best) <= 1e-4  # one grid step


class TestShrinkMm:
    def test_center_is_convex_combination(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3)) + np.array([0.0, 4.0, 8.0])
        est = shrink_mm(X)
        raw = l1_median(X).center
        want = (1.0 - est.eta) * raw + est.eta * est.nu_mu
        assert np.allclose(est.center, want, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_intensity_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((15, 3)) + rng.uniform(-4.0, 4.0, size=3)
        est = shrink_mm(X)
        assert 0.0 <= est.eta <= 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_intensity_matches_grid_search(self, seed):
        rng = np.random.default_rng(seed + 100)
        X = rng.standard_normal((35, 3)) + rng.uniform(-3.0, 3.0, size=3)
        est = shrink_mm(X)
        raw = l1_median(X).center
        numerator = sandwich_trace(X, raw)
        gap = raw - raw.mean()
        denom = float(gap @ gap)
        want = min(max(numerator / denom, 0.0), 1.0)
        grid_best = grid_argmin_eta(numerator, denom)
        assert abs(est.eta - want) < 1e-12
        assert abs(est.eta - grid_best) <= 1e-4

    def test_intensity_shrinks_with_sample_size(self):
        rng = np.random.default_rng(31)
        loc = np.array([0.0, 3.0, 6.0])
        small = rng.standard_normal((50, 3)) + loc
        large = rng.standard_normal((5000, 3)) + loc
        assert shrink_mm(small).eta > shrink_mm(large).eta


# Each location function -> the raw median its estimate is shrunk from.
RAW_MEDIANS = {
    ccm_median: lambda X: np.median(X, axis=0),
    l1_median: lambda X: l1_median(X).center,
    shrink_ccm: lambda X: np.median(X, axis=0),
    shrink_mm: lambda X: l1_median(X).center,
}


@pytest.mark.parametrize("fn", list(RAW_MEDIANS), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("seed", range(3))
def test_median_is_the_raw_median_bit_for_bit(fn, seed):
    rng = np.random.default_rng(seed + 400)
    X = rng.standard_t(df=3, size=(40, 4)) + np.array([0.0, 2.0, 4.0, 6.0])
    est = fn(X)
    assert np.array_equal(est.median, RAW_MEDIANS[fn](X))
    if est.eta is None:
        assert est.median is est.center
