"""End-to-end detection behavior: distances, thresholds, invariances."""

import dataclasses

import numpy as np
import pytest

from rmdshrink.detector import DEFAULT_QUANTILE, detect, rmd_squared
from rmdshrink.primitives import chi2_quantile
from rmdshrink.scatter import VARIANTS, scatter_for_variant
from rmdshrink.simulate import ScenarioSpec, generate, metrics


def planted_sample(seed=4, n=60, p=3, k=4, offset=9.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X[:k] += offset
    return X, np.arange(n) < k


class TestRmdSquared:
    def test_identity_scatter_gives_squared_norm(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        loc, scat = scatter_for_variant(
            np.vstack([X, np.array([[1.0, 1.0], [-1.0, -1.0],
                                    [1.0, -1.0], [-1.0, 1.0]])]), "v1")
        d2 = rmd_squared(X, loc, scat)
        # oracle: explicit inverse of the scatter entries
        inv = np.linalg.inv(scat.matrix.entries)
        Y = X - loc.center
        want = np.einsum("ij,jk,ik->i", Y, inv, Y)
        assert np.allclose(d2, want, rtol=1e-8)

    def test_zero_at_the_center(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 3))
        loc, scat = scatter_for_variant(X, "v2")
        d2 = rmd_squared(loc.center[None, :], loc, scat)
        assert d2[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 3))
        loc, scat = scatter_for_variant(X, "v1")
        with pytest.raises(ValueError):
            rmd_squared(np.ones((4, 2)), loc, scat)

    def test_scatter_of_another_width_rejected(self):
        # the centre fits the data, so the scatter's width is what is checked
        X = np.random.default_rng(7).standard_normal((20, 3))
        loc, _ = scatter_for_variant(X, "v1")
        _, scat = scatter_for_variant(X[:, :2], "v1")
        with pytest.raises(ValueError, match="^row width does not match matrix dimension$"):
            rmd_squared(X, loc, scat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_center_rejected(self, bad):
        X = np.random.default_rng(7).standard_normal((20, 3))
        loc, scat = scatter_for_variant(X, "v1")
        center = loc.center.copy()
        center[0] = bad
        with pytest.raises(ValueError, match="center contains NaN or infinite entries"):
            rmd_squared(X, dataclasses.replace(loc, center=center), scat)


class TestDetect:
    def test_planted_far_points_are_flagged(self):
        X, truth = planted_sample()
        report = detect(X, "v6")
        assert report.flags[truth].all()
        c, f, _ = metrics(report.flags, truth)
        assert c == 1.0
        assert f <= 0.05

    def test_flags_equal_distances_above_threshold(self):
        X, _ = planted_sample(seed=9)
        report = detect(X, "v4")
        assert np.array_equal(report.flags, report.d2 > report.threshold)

    def test_threshold_is_the_chi2_quantile(self):
        X, _ = planted_sample(seed=10)
        report = detect(X, "v1", quantile=0.95)
        assert np.isclose(report.threshold, chi2_quantile(X.shape[1], 0.95),
                          rtol=1e-12)
        assert report.quantile == 0.95

    def test_default_quantile(self):
        X, _ = planted_sample(seed=11)
        report = detect(X, "v3")
        assert report.quantile == DEFAULT_QUANTILE == 0.975

    @pytest.mark.parametrize("variant", ["v1", "v4"])
    def test_translation_invariance_of_plain_center_variants(self, variant):
        X, _ = planted_sample(seed=12)
        shift = np.array([5.0, -7.5, 2.25])
        a = detect(X, variant)
        b = detect(X + shift, variant)
        assert np.allclose(a.d2, b.d2, atol=1e-10)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("variant", ["v2", "v3", "v5", "v6"])
    def test_equal_coordinate_shift_invariance_of_shrunk_variants(self, variant):
        # shrinking toward nu * ones is basis-dependent: only shifts along
        # the all-ones direction leave the intensity (and hence the
        # distances) unchanged; general shifts do not
        X, _ = planted_sample(seed=12)
        a = detect(X, variant)
        b = detect(X + 4.75, variant)
        assert np.allclose(a.d2, b.d2, atol=1e-9)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("variant", ["v1", "v4", "v6"])
    def test_uniform_scale_invariance(self, variant):
        X, _ = planted_sample(seed=13)
        a = detect(X, variant)
        b = detect(2.5 * X, variant)
        assert np.allclose(a.d2, b.d2, rtol=1e-8)
        assert np.array_equal(a.flags, b.flags)

    def test_column_permutation_invariance(self):
        X, _ = planted_sample(seed=14, p=4)
        perm = np.array([2, 0, 3, 1])
        a = detect(X, "v6")
        b = detect(X[:, perm], "v6")
        assert np.allclose(a.d2, b.d2, rtol=1e-9)
        assert np.array_equal(a.flags, b.flags)

    def test_flag_sets_shrink_as_quantile_rises(self):
        X, _ = planted_sample(seed=15)
        flagged = [set(np.flatnonzero(detect(X, "v1", quantile=q).flags))
                   for q in (0.90, 0.95, 0.975, 0.99)]
        for wider, tighter in zip(flagged, flagged[1:]):
            assert tighter <= wider

    def test_invalid_quantile_rejected(self):
        X, _ = planted_sample(seed=16)
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                detect(X, "v1", quantile=q)

    def test_unknown_variant_rejected(self):
        X, _ = planted_sample(seed=17)
        with pytest.raises(ValueError):
            detect(X, "v9")

    def test_refuses_when_rows_do_not_exceed_columns(self):
        # one rule for every variant, whatever the estimators would make of it
        rng = np.random.default_rng(18)
        for n, p in [(3, 5), (10, 20), (5, 5)]:
            X = rng.standard_normal((n, p))
            message = f"^need more observations than dimensions, got n = {n}, p = {p}$"
            for variant in VARIANTS:
                with pytest.raises(ValueError, match=message):
                    detect(X, variant)

    def test_constant_data_rejected(self):
        X = np.tile([1.0, 2.0], (25, 1))
        with pytest.raises(ValueError):
            detect(X, "v1")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("variant, plain",
                             [("v2", "v1"), ("v3", "v1"), ("v5", "v4"), ("v6", "v4")])
    def test_one_column_shrunk_variants_equal_plain(self, variant, plain, seed):
        # at p = 1 the equal-coordinate target is the center itself
        X, _ = planted_sample(seed=seed, n=50, p=1, k=3, offset=8.0)
        report = detect(X, variant)
        base = detect(X, plain)
        assert report.eta_location == 1.0
        assert np.array_equal(report.d2, base.d2)
        assert np.array_equal(report.flags, base.flags)

    def test_report_carries_shrinkage_intensities(self):
        X, _ = planted_sample(seed=19)
        report = detect(X, "v6")
        assert 0.0 <= report.eta_location <= 1.0
        assert 0.0 <= report.eta_scatter <= 1.0
        r1 = detect(X, "v1")
        assert r1.eta_location is None  # plain median has no intensity

    def test_extreme_asymmetric_contamination_all_flagged(self):
        # 45% of rows replaced by huge equal-coordinate vectors; the
        # detector must still isolate every one of them
        spec = ScenarioSpec(family="BreakdownAsymmetric", p=10, n=1000,
                            alpha=0.45, delta=0.0, lam=1.0, reps=1,
                            seed=2468, variant="v6")
        rng = np.random.default_rng(spec.seed)
        X, truth = generate(spec, rng)
        report = detect(X, "v6")
        c, f, _ = metrics(report.flags, truth)
        assert c == 1.0
        assert f <= 0.01
