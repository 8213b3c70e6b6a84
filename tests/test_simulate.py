"""Scenario generators, metrics, and the replication harness."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmdshrink.simulate as simulate
from rmdshrink.io import scenario_row
from rmdshrink.simulate import (
    FAMILIES,
    MetricsReport,
    ScenarioSpec,
    correlation_matrix,
    gen_breakdown,
    generate,
    haar_orthogonal,
    metrics,
    random_diagonal_scales,
    run_scenario,
)


def spec_for(family="NormalMixture", **kw):
    base = dict(family=family, p=3, n=50, alpha=0.2, delta=10.0, lam=1.0,
                reps=2, seed=42, variant="v6")
    base.update(kw)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_families_are_exposed(self):
        assert "NormalMixture" in FAMILIES
        assert len(FAMILIES) == 7

    def test_outlier_count_is_floor(self):
        spec = spec_for("NormalMixture", n=103, alpha=0.3)
        assert spec.n_outliers == 30

    @pytest.mark.parametrize("bad", [
        dict(family="Cauchy"),
        dict(alpha=0.6),
        dict(alpha=-0.1),
        dict(lam=0.0),
        dict(reps=0),
        dict(n=0),
        dict(delta=-1.0),
        dict(variant="v7"),
        dict(family="CorrelatedNormal", p=5),
        dict(seed=-1),
        dict(variant=["v6"]),
        dict(family=5),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            spec_for(**bad)

    @pytest.mark.parametrize("key,value", [
        ("p", 2.0),
        ("p", True),
        ("n", 40.0),
        ("reps", False),
        ("seed", 1.5),
        ("seed", None),
    ])
    def test_non_integer_count_or_seed_is_refused(self, key, value):
        with pytest.raises(ValueError) as info:
            spec_for(**{key: value})
        assert str(info.value) == f"{key} must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.1",
                                       pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("key,field",
                             [("alpha", "alpha"), ("delta", "delta"), ("lambda", "lam")])
    def test_non_finite_or_non_number_rate_is_refused(self, key, field, value):
        with pytest.raises(ValueError) as info:
            spec_for(**{field: value})
        assert str(info.value) == f"{key} must be a finite number, got {value!r}"

    def test_rates_are_stored_as_floats(self):
        spec = spec_for(alpha=0, delta=10, lam=np.float64(2.0))
        assert [type(v) for v in (spec.alpha, spec.delta, spec.lam)] == [float, float, float]
        assert spec == spec_for(alpha=0.0, delta=10.0, lam=2.0)

    @given(st.integers(min_value=1, max_value=500),
           st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_truth_count_always_floor_alpha_n(self, n, alpha):
        spec = spec_for("NormalMixture", n=n, alpha=alpha)
        X, truth = generate(spec, np.random.default_rng(1))
        assert truth.sum() == int(np.floor(alpha * n))
        assert truth[: truth.sum()].all()
        assert X.shape == (n, 3)


class TestGenerators:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic_given_seed(self, family):
        p = 6 if family == "CorrelatedNormal" else 4
        spec = spec_for(family, p=p, n=40)
        a, ta = generate(spec, np.random.default_rng(7))
        b, tb = generate(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.array_equal(ta, tb)

    def test_clean_scenario_has_no_outliers(self):
        spec = spec_for("NormalMixture", alpha=0.0, delta=0.0)
        X, truth = generate(spec, np.random.default_rng(3))
        assert not truth.any()

    def test_normal_mixture_moments(self):
        spec = spec_for("NormalMixture", n=10_000, alpha=0.3, delta=10.0,
                        lam=1.0)
        X, truth = generate(spec, np.random.default_rng(5))
        inliers = X[~truth]
        bound = 4.0 / np.sqrt(len(inliers))
        assert np.all(np.abs(inliers.mean(axis=0)) < bound)
        assert np.all(np.abs(X[truth].mean(axis=0) - 10.0) < 0.1)

    def test_normal_mixture_contamination_scale(self):
        spec = spec_for("NormalMixture", n=20_000, alpha=0.5, delta=0.0,
                        lam=0.01)
        X, truth = generate(spec, np.random.default_rng(6))
        assert np.all(X[truth].std(axis=0) < 0.15)
        assert np.all(X[~truth].std(axis=0) > 0.9)

    def test_t3_center_and_heavy_tails(self):
        spec = spec_for("T3Mixture", p=2, n=100_000, alpha=0.0, delta=0.0)
        X, _ = generate(spec, np.random.default_rng(8))
        assert np.all(np.abs(np.median(X, axis=0)) < 0.05)
        # fourth-moment ratio far above the gaussian 3
        z = X[:, 0]
        kurt = np.mean((z - z.mean()) ** 4) / np.var(z) ** 2
        assert kurt > 6.0

    def test_exponential_support_and_shift(self):
        spec = spec_for("ExpMixture", n=20_000, alpha=0.5, delta=5.0)
        X, truth = generate(spec, np.random.default_rng(9))
        assert np.all(X[~truth] >= 0.0)
        assert np.all(X[truth] >= 5.0)
        want = np.log(2.0) + 5.0
        assert np.all(np.abs(np.median(X[truth], axis=0) - want) < 0.06)

    def test_correlated_family_matches_target_correlation(self):
        spec = spec_for("CorrelatedNormal", p=6, n=100_000, alpha=0.0,
                        delta=0.0)
        X, _ = generate(spec, np.random.default_rng(10))
        corr = np.corrcoef(X, rowvar=False)
        P = correlation_matrix()
        assert abs(corr[0, 1] - 0.95) < 0.01
        assert abs(corr[3, 4] - (-0.499)) < 0.01
        assert np.allclose(corr, P, atol=0.015)

    def test_correlation_matrix_is_positive_definite(self):
        np.linalg.cholesky(correlation_matrix())

    def test_correlated_family_requires_p6(self):
        with pytest.raises(ValueError):
            generate(spec_for("CorrelatedNormal", p=5),
                     np.random.default_rng(1))

    def test_haar_orthogonal(self):
        rng = np.random.default_rng(11)
        T = haar_orthogonal(rng, 5)
        assert np.allclose(T.T @ T, np.eye(5), atol=1e-10)

    def test_diagonal_scales_bounded_away_from_zero(self):
        for seed in range(50):
            u = random_diagonal_scales(np.random.default_rng(seed), 8)
            assert np.all(u >= 1e-6)
            assert np.all(u < 1.0)

    def test_affine_rows_are_transformed_normal_mixture(self):
        spec = spec_for("AffineTransformed", p=4, n=30, alpha=0.2)
        X, truth = generate(spec, np.random.default_rng(12))
        assert X.shape == (30, 4)
        assert truth.sum() == 6
        # the transform must be invertible, so the sample spans full rank
        assert np.linalg.matrix_rank(X - X.mean(axis=0)) == 4

    def test_breakdown_asymmetric_rows_are_exact(self):
        spec = spec_for("BreakdownAsymmetric", p=3, n=10, alpha=0.2,
                        delta=0.0)
        X, truth = generate(spec, np.random.default_rng(13))
        assert truth.sum() == 2
        assert np.array_equal(X[0], [100.0, 100.0, 100.0])
        assert np.array_equal(X[1], [200.0, 200.0, 200.0])

    def test_breakdown_symmetric_scales_base_rows(self):
        spec = spec_for("BreakdownSymmetric", p=3, n=10, alpha=0.2,
                        delta=0.0)
        rng = np.random.default_rng(14)
        X, truth = generate(spec, rng)
        base = np.random.default_rng(14).standard_normal((10, 3))
        assert np.array_equal(X[0], 100.0 * base[0])
        assert np.array_equal(X[1], 200.0 * base[1])
        assert np.array_equal(X[2:], base[2:])

    def test_breakdown_helper_rejects_other_families(self):
        with pytest.raises(ValueError):
            gen_breakdown(spec_for("NormalMixture"),
                          np.random.default_rng(1))


class TestMetrics:
    def test_perfect_detection(self):
        truth = np.array([True, True, False, False])
        assert metrics(truth.copy(), truth) == (1.0, 0.0, 1.0)

    def test_nothing_flagged(self):
        truth = np.array([True, False, False])
        flags = np.zeros(3, dtype=bool)
        assert metrics(flags, truth) == (0.0, 0.0, 0.0)

    def test_complement_flags(self):
        truth = np.array([True, True, False, False])
        c, f, fscore = metrics(~truth, truth)
        assert (c, f, fscore) == (0.0, 1.0, 0.0)

    def test_no_true_outliers_conventions(self):
        truth = np.zeros(4, dtype=bool)
        assert metrics(np.zeros(4, dtype=bool), truth) == (1.0, 0.0, 1.0)
        c, f, fscore = metrics(np.array([True, False, False, False]), truth)
        assert c == 1.0
        assert f == 0.25
        assert fscore == 0.0  # precision 0 with recall 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    @given(st.lists(st.booleans(), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_rates_stay_in_unit_interval(self, truth_list, seed):
        truth = np.array(truth_list, dtype=bool)
        flags = np.random.default_rng(seed).random(truth.size) < 0.5
        c, f, fscore = metrics(flags, truth)
        assert 0.0 <= c <= 1.0
        assert 0.0 <= f <= 1.0
        assert 0.0 <= fscore <= 1.0


class TestRunScenario:
    def test_deterministic(self):
        spec = spec_for("NormalMixture", p=4, n=80, reps=3)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.c_reps == b.c_reps
        assert a.f_reps == b.f_reps
        assert a.fscore_reps == b.fscore_reps

    def test_replicates_use_consecutive_seeds(self):
        spec = spec_for("NormalMixture", p=4, n=80, reps=4, seed=900)
        whole = run_scenario(spec)
        for r in range(4):
            single = run_scenario(spec_for("NormalMixture", p=4, n=80,
                                           reps=1, seed=900 + r))
            assert single.c_reps[0] == whole.c_reps[r]
            assert single.f_reps[0] == whole.f_reps[r]

    def test_means_match_replicate_tuples(self):
        spec = spec_for("NormalMixture", p=3, n=60, reps=5)
        rep = run_scenario(spec)
        assert np.isclose(rep.c_mean, np.mean(rep.c_reps))
        assert np.isclose(rep.f_mean, np.mean(rep.f_reps))
        assert np.isclose(rep.fscore_mean, np.mean(rep.fscore_reps))
        assert isinstance(rep, MetricsReport)

    def test_far_contamination_detected(self):
        spec = spec_for("NormalMixture", p=10, n=100, alpha=0.2, delta=10.0,
                        reps=5, seed=99)
        rep = run_scenario(spec)
        assert rep.c_mean == 1.0
        assert rep.f_mean <= 0.01

    def test_replicate_failure_carries_context(self):
        # a single-row sample cannot support any scatter estimate, so every
        # replicate fails and the abort message names the replicate
        spec = spec_for("NormalMixture", p=3, n=1, alpha=0.0, delta=0.0,
                        reps=1, seed=0)
        with pytest.raises(ValueError, match=r"^replicate 0 \(seed 0\): ") as info:
            run_scenario(spec)
        assert "NormalMixture" not in str(info.value)


class TestBench:
    def test_uses_the_count_given(self):
        spec = spec_for("NormalMixture", p=5, n=60, reps=3)
        report = run_scenario(spec)
        seconds = report.detect_seconds
        assert len(seconds) == spec.reps
        assert all(t > 0.0 for t in seconds)
        row = scenario_row("bench", report)
        assert row["reps"] == spec.reps and row["variant"] == "v6"
        assert row["median_seconds"] == float(np.median(seconds)) > 0.0

    def test_detect_seconds_exclude_metrics(self, monkeypatch):
        # A fake clock that only metrics advances: detect's time stays 0.
        clock = SimpleNamespace(now=0.0)
        real_metrics = simulate.metrics

        def slow_metrics(flags, truth):
            clock.now += 100.0
            return real_metrics(flags, truth)

        monkeypatch.setattr(simulate, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        monkeypatch.setattr(simulate, "metrics", slow_metrics)
        report = run_scenario(spec_for("NormalMixture", p=3, n=40, reps=3))
        assert report.detect_seconds == (0.0, 0.0, 0.0)
        assert clock.now == 300.0
