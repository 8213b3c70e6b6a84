"""Shrinkage scatter estimation: trace preservation, invariances,
positive definiteness, and the grid-search optimality oracle.
"""

import numpy as np
import pytest

from rmdshrink.detector import detect
from rmdshrink.location import ccm_median, l1_median, shrink_ccm, shrink_mm
from rmdshrink.primitives import PDMatrix, adjusted_comedian
from rmdshrink.scatter import VARIANTS, scatter_for_variant, shrink_scatter


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


# Samples whose scatter intensity is 1, inside (0, 1), and inside (0, 1) on
# an indefinite comedian (the sample of the repair test below).
DECOMPOSITION_SAMPLES = {
    "eta_one": np.random.default_rng(1).standard_normal((40, 4)),
    "eta_inside": np.random.default_rng(0).standard_normal((200, 4)) * [1.0, 2.0, 4.0, 8.0],
    "indefinite_comedian": np.array([[0.1, -0.1], [1.0, 1.0], [-1.0, -1.0]]),
}


class TestShrinkScatter:
    def test_identity_comedian_is_fixed_point(self):
        # rows at the four corners of a square make the adjusted comedian a
        # multiple of I, so the target equals the raw matrix and the result
        # is that matrix for any intensity
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        center = np.zeros(2)
        S = adjusted_comedian(X, center)
        assert np.allclose(S, S[0, 0] * np.eye(2))
        est = shrink_scatter(X, center)
        assert est.eta == 1.0
        assert np.allclose(est.matrix.entries, S, atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        X = small_sample(rng)
        center = ccm_median(X).center
        S = adjusted_comedian(X, center)
        est = shrink_scatter(X, center)
        got = np.trace(est.matrix.entries)
        assert np.isclose(got, np.trace(S), rtol=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        center = ccm_median(X).center
        shift = np.array([4.5, -2.0, 0.75])
        a = shrink_scatter(X, center)
        b = shrink_scatter(X + shift, center + shift)
        assert np.allclose(a.matrix.entries, b.matrix.entries, atol=1e-12)
        assert np.isclose(a.eta, b.eta, atol=1e-12)

    @pytest.mark.parametrize("c", [0.5, 3.7])
    def test_uniform_scale_equivariance(self, c):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((35, 4))
        center = ccm_median(X).center
        base = shrink_scatter(X, center)
        scaled = shrink_scatter(c * X, c * center)
        assert np.allclose(scaled.matrix.entries, c * c * base.matrix.entries,
                           rtol=1e-10)
        assert np.isclose(scaled.nu_sigma, c * c * base.nu_sigma, rtol=1e-10)
        assert np.isclose(scaled.eta, base.eta, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(40))
    def test_intensity_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed + 1000)
        X = small_sample(rng)
        est = shrink_scatter(X, ccm_median(X).center)
        assert 0.0 <= est.eta <= 1.0

    @pytest.mark.parametrize("seed", range(40))
    def test_intensity_matches_the_plug_in(self, seed):
        # the matrix form of the rule the scatter applies to the spectrum:
        # b2 = mean_i |y_i y_i' - S|^2 / n and d2 = |S - nu I|^2, norms trace(AA')/p
        X = small_sample(np.random.default_rng(seed + 2000))
        center = ccm_median(X).center
        n, p = X.shape
        S = adjusted_comedian(X, center)
        nu = np.trace(S) / p
        Y = X - center
        b2 = sum(((np.outer(y, y) - S) ** 2).sum() for y in Y) / (n * n * p)
        d2 = ((S - nu * np.eye(p)) ** 2).sum() / p
        est = shrink_scatter(X, center)
        assert abs(est.eta - min(max(b2 / d2, 0.0), 1.0)) <= 1e-12
        assert abs(est.nu_sigma - nu) <= 1e-12 * abs(nu)

    def test_construction_is_positive_definite_or_surfaced_error(self):
        # the shrunk matrix has no positive-definiteness guarantee when the
        # raw comedian is indefinite and the intensity lands below
        # |lambda_min| / (nu + |lambda_min|); construction must then fail
        # loudly rather than hand back an unusable matrix
        succeeded = 0
        refused = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            X = small_sample(rng)
            try:
                est = shrink_scatter(X, ccm_median(X).center)
            except ValueError as e:
                assert "positive definite" in str(e)
                refused += 1
                continue
            assert isinstance(est.matrix, PDMatrix)
            assert np.linalg.eigvalsh(est.matrix.entries)[0] > 0.0
            succeeded += 1
        assert succeeded + refused == 1000
        # refusals are rare but real for tiny heavy-tailed samples
        assert refused < 20

    def test_known_indefinite_counterexample_is_refused(self):
        # concrete 7x5 sample whose shrunk matrix stays indefinite: the raw
        # comedian has lambda_min ~ -0.365 and the intensity 0.255 falls
        # short of the 0.365 needed to lift it
        X = np.array([
            [2.260375596310, 1.925504802770, -1.555899350311, 7.704742329478, 5.397203268368],
            [-0.018449564912, 2.730758495881, -1.760377139246, 7.369527825720, 5.538004448045],
            [0.036862086658, 2.580781497164, -1.881488443611, 6.857774634165, 5.421417222599],
            [2.087341465538, 1.590065932043, -1.934959998677, 7.777462740988, 6.795624528928],
            [1.771571630852, 1.021226232329, -1.807327488411, 7.595359047885, 7.610778645918],
            [1.246378227831, 0.905288701774, -1.114438363751, 7.678381545143, 6.130630550689],
            [0.431918838658, 1.005764092326, -3.500150985762, 8.833624203628, 6.032712679644],
        ])
        center = ccm_median(X).center
        S = adjusted_comedian(X, center)
        assert np.linalg.eigvalsh(S)[0] < 0.0
        with pytest.raises(ValueError, match="not positive definite"):
            shrink_scatter(X, center)

    def test_indefinite_comedian_repaired_when_intensity_positive(self):
        # three points chosen so the raw comedian has negative determinant
        X = np.array([[0.1, -0.1], [1.0, 1.0], [-1.0, -1.0]])
        center = ccm_median(X).center
        S = adjusted_comedian(X, center)
        assert np.linalg.det(S) < 0.0
        est = shrink_scatter(X, center)
        assert est.eta > 0.0
        # characteristic-polynomial oracle for 2x2 symmetric matrices:
        # positive definite iff det > 0 and trace > 0
        m = est.matrix.entries
        assert m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] > 0.0
        assert m[0, 0] + m[1, 1] > 0.0

    @pytest.mark.parametrize("name", DECOMPOSITION_SAMPLES)
    def test_decomposition_derived_from_the_comedian_reproduces_entries(self, name):
        X = DECOMPOSITION_SAMPLES[name]
        est = shrink_scatter(X, ccm_median(X).center)
        assert 0.0 < est.eta <= 1.0 and (est.eta == 1.0) == (name == "eta_one")
        m = est.matrix
        lam, V = m.eigenvalues, m.eigenvectors
        resid = np.abs(V @ np.diag(lam) @ V.T - m.entries).max()
        assert resid <= 1e-12 * np.abs(m.entries).max()
        assert np.all(np.diff(lam) >= 0.0)
        assert np.abs(V.T @ V - np.eye(m.dim)).max() <= 1e-12

    def test_nonfinite_comedian_refused(self):
        # near 1e150 the comedian's entries stay finite, near 1e300, but the
        # variance proxy's sums overflow to inf - inf, so the intensity is NaN
        X = np.random.default_rng(0).standard_normal((50, 3)) * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^matrix contains NaN or infinite entries$"):
                shrink_scatter(X, ccm_median(X).center)

    def test_infinite_comedian_refused_before_its_decomposition(self):
        # products of entries near 1e160 overflow, so the comedian holds inf,
        # on which eigh would raise LinAlgError
        X = np.random.default_rng(0).standard_normal((50, 3)) * 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^matrix contains NaN or infinite entries$"):
                shrink_scatter(X, ccm_median(X).center)

    def test_constant_data_rejected(self):
        X = np.tile([2.0, 5.0, -1.0], (10, 1))
        with pytest.raises(ValueError, match="scatter degenerate"):
            shrink_scatter(X, X[0])

    def test_grid_search_optimality_oracle(self):
        # with a known population matrix, the quadratic risk surrogate
        # (1-eta)^2 * E||S - Sigma||^2 + eta^2 * ||nu I - Sigma||^2 over a
        # 10^4-point grid must bottom out at N/(N + ||nu I - Sigma||^2)
        sigma = np.diag([2.0, 1.0, 0.5])
        root = np.sqrt(np.diag(sigma))
        p = 3
        nu = np.trace(sigma) / p
        rng = np.random.default_rng(2024)
        deviations = []
        for _ in range(400):
            X = rng.standard_normal((80, p)) * root
            S = adjusted_comedian(X, ccm_median(X).center)
            deviations.append(((S - sigma) ** 2).sum() / p)
        n_mc = float(np.mean(deviations))
        d_true = float(((nu * np.eye(p) - sigma) ** 2).sum() / p)
        grid = np.linspace(0.0, 1.0, 10_001)
        objective = (1.0 - grid) ** 2 * n_mc + grid**2 * d_true
        best = grid[int(np.argmin(objective))]
        want = n_mc / (n_mc + d_true)
        assert abs(best - want) <= 1e-4


class TestScatterForVariant:
    def test_table_is_complete(self):
        assert set(VARIANTS) == {"v1", "v2", "v3", "v4", "v5", "v6"}

    def test_v1_centers_comedian_at_columnwise_median(self):
        rng = np.random.default_rng(55)
        X = rng.standard_normal((30, 3))
        loc, scat = scatter_for_variant(X, "v1")
        want = shrink_scatter(X, ccm_median(X).center)
        assert np.array_equal(loc.center, ccm_median(X).center)
        assert np.array_equal(scat.matrix.entries, want.matrix.entries)

    def test_v6_centers_comedian_at_shrunk_multivariate_median(self):
        rng = np.random.default_rng(56)
        X = rng.standard_normal((30, 3)) + np.array([0.0, 2.0, 4.0])
        loc, scat = scatter_for_variant(X, "v6")
        mm = shrink_mm(X)
        want = shrink_scatter(X, mm.center)
        assert np.allclose(loc.center, mm.center, atol=1e-14)
        assert np.array_equal(scat.matrix.entries, want.matrix.entries)

    # The comedian centering of each variant, as in the README table.
    @pytest.mark.parametrize(
        "variant, centering",
        [
            ("v1", ccm_median),
            ("v2", ccm_median),
            ("v3", shrink_ccm),
            ("v4", l1_median),
            ("v5", l1_median),
            ("v6", shrink_mm),
        ],
    )
    def test_scatter_is_shrunk_at_the_tabled_center(self, variant, centering):
        rng = np.random.default_rng(60)
        X = rng.standard_normal((30, 3)) + np.array([0.0, 2.0, 4.0])
        _, scat = scatter_for_variant(X, variant)
        want = shrink_scatter(X, centering(X).center)
        assert np.array_equal(scat.matrix.entries, want.matrix.entries)
        assert scat.eta == want.eta

    def test_v1_and_v2_share_scatter_content(self):
        rng = np.random.default_rng(57)
        X = rng.standard_normal((25, 4))
        _, s1 = scatter_for_variant(X, "v1")
        _, s2 = scatter_for_variant(X, "v2")
        assert np.array_equal(s1.matrix.entries, s2.matrix.entries)
        assert s1.eta == s2.eta

    def test_v4_and_v5_share_scatter_content(self):
        rng = np.random.default_rng(58)
        X = rng.standard_normal((25, 4))
        _, s4 = scatter_for_variant(X, "v4")
        _, s5 = scatter_for_variant(X, "v5")
        assert np.array_equal(s4.matrix.entries, s5.matrix.entries)

    def test_locations_follow_the_pairing(self):
        rng = np.random.default_rng(59)
        X = rng.standard_normal((30, 3)) + np.array([1.0, 3.0, 5.0])
        assert scatter_for_variant(X, "v1")[0].method == "ccm"
        assert scatter_for_variant(X, "v2")[0].method == "shrink_ccm"
        assert scatter_for_variant(X, "v3")[0].method == "shrink_ccm"
        assert scatter_for_variant(X, "v4")[0].method == "mm"
        assert scatter_for_variant(X, "v5")[0].method == "shrink_mm"
        assert scatter_for_variant(X, "v6")[0].method == "shrink_mm"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            scatter_for_variant(np.ones((5, 2)), "v7")

    @pytest.mark.parametrize("variant, calls",
                             [("v1", 1), ("v2", 1), ("v3", 1), ("v4", 1), ("v5", 2), ("v6", 2)])
    def test_one_eigh_per_scatter(self, monkeypatch, variant, calls):
        # the scatter's decomposition is the comedian's; v5 and v6 also decompose
        # the sandwich matrix of their location intensity
        seen = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        detect(np.random.default_rng(3).standard_normal((60, 4)), variant)
        assert seen == [(4, 4)] * calls
