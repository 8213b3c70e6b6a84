"""Directional depth and the depth-based box summary."""

import tracemalloc

import numpy as np
import pytest

from rmdshrink import depth
from rmdshrink.depth import BoxplotSummary, boxplot_summary, l1_depth
from rmdshrink.location import l1_median


def depth_oracle(X, point):
    dirs = []
    for x in X:
        d = x - point
        r = np.linalg.norm(d)
        if r <= 1e-12:
            continue
        dirs.append(d / r)
    if not dirs:
        return 1.0
    return 1.0 - np.linalg.norm(np.sum(dirs, axis=0) / len(X))


class TestL1Depth:
    def test_far_point_has_vanishing_depth(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 2))
        assert l1_depth(X, np.array([1000.0, 1000.0])) < 0.01

    def test_symmetric_cross_center_has_full_depth(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert l1_depth(X, np.zeros(2)) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 3))
        point = rng.standard_normal(3)
        assert np.isclose(l1_depth(X, point), depth_oracle(X, point),
                          rtol=1e-12)

    def test_depth_at_a_sample_point_is_valid(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((15, 2))
        for i in (0, 7, 14):
            d = l1_depth(X, X[i])
            assert 0.0 <= d <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_refused(self, bad):
        X = np.random.default_rng(2).standard_normal((10, 3))
        with pytest.raises(ValueError, match="point contains NaN or infinite entries"):
            l1_depth(X, [bad, 0.0, 0.0])

    def test_deep_point_beats_shallow_point(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 2))
        center_depth = l1_depth(X, np.zeros(2))
        edge_depth = l1_depth(X, np.array([3.0, 3.0]))
        assert center_depth > edge_depth


def oracle_depths(X):
    return np.array([depth_oracle(X, x) for x in X])


class TestDepthKernel:
    # (n, block floats): one block, an exact multiple of the block (4 rows),
    # not a multiple (5, 5, 3 rows), and one row per block.
    @pytest.mark.parametrize("n, block_floats", [
        (7, 2**14), (12, 12 * 4), (13, 13 * 5), (9, 1),
    ])
    def test_blocks_match_the_loop_oracle(self, monkeypatch, n, block_floats):
        monkeypatch.setattr(depth, "_BLOCK_FLOATS", block_floats)
        X = np.random.default_rng(n).standard_normal((n, 3))
        assert np.allclose(depth._depths(X, X), oracle_depths(X), rtol=0, atol=1e-12)

    def test_coincident_rows_are_skipped(self, monkeypatch):
        monkeypatch.setattr(depth, "_BLOCK_FLOATS", 20)
        X = np.random.default_rng(3).standard_normal((10, 2))
        X[5:8] = X[0]
        X[8] = X[0] + 1e-14  # within the norm floor, so skipped too
        assert np.allclose(depth._depths(X, X), oracle_depths(X), rtol=0, atol=1e-12)

    def test_all_rows_equal_have_full_depth(self):
        X = np.tile([1.5, -2.0, 0.25], (6, 1))
        assert np.array_equal(depth._depths(X, X), np.ones(6))

    def test_one_column_two_rows(self):
        X = np.array([[0.0], [3.0]])
        assert np.allclose(depth._depths(X, X), [0.5, 0.5], rtol=0, atol=1e-12)
        assert np.allclose(depth._depths(X, X), oracle_depths(X), rtol=0, atol=1e-12)

    def test_large_offset_keeps_precision(self):
        X = np.random.default_rng(4).standard_normal((300, 100)) + 1e6
        assert np.allclose(depth._depths(X, X), oracle_depths(X), rtol=0, atol=1e-12)

    def test_depth_order_is_the_oracle_stable_order(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((300, 4)) / np.sqrt(rng.chisquare(3.0, 300) / 3.0)[:, None]
        out = boxplot_summary(X, np.zeros(300, dtype=bool))
        assert np.array_equal(out.depth_order, np.argsort(-oracle_depths(X), kind="stable"))

    def test_traced_peak_is_bounded(self):
        X = np.random.default_rng(5).standard_normal((2000, 5))
        flags = np.zeros(2000, dtype=bool)
        tracemalloc.start()
        try:
            boxplot_summary(X, flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestBoxplotSummary:
    def test_identical_rows_collapse_box_and_fences(self):
        X = np.tile([2.0, -1.0], (5, 1))
        out = boxplot_summary(X, np.zeros(5, dtype=bool))
        assert np.array_equal(out.q1, out.q3)
        assert np.array_equal(out.fences_lo, out.fences_hi)
        assert out.n_flagged == 0
        assert out.n_outside == 0

    def test_counts_partition_flagged_rows(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3))
        X[:5] += 50.0
        flags = np.zeros(40, dtype=bool)
        flags[:5] = True
        flags[10:13] = True
        out = boxplot_summary(X, flags)
        assert out.n_inside + out.n_outside == out.n_flagged == 8
        # the five far rows exceed the fences, the three central ones do not
        assert out.n_outside == 5
        assert out.n_inside == 3

    def test_depth_order_is_a_descending_permutation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 2))
        out = boxplot_summary(X, np.zeros(25, dtype=bool))
        assert sorted(out.depth_order.tolist()) == list(range(25))
        depths = [l1_depth(X, X[i]) for i in range(25)]
        ordered = [depths[i] for i in out.depth_order]
        assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:]))

    def test_box_spans_deepest_half(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((21, 3))
        out = boxplot_summary(X, np.zeros(21, dtype=bool))
        deepest = X[out.depth_order[:11]]
        assert np.array_equal(out.q1, deepest.min(axis=0))
        assert np.array_equal(out.q3, deepest.max(axis=0))
        assert np.allclose(out.fences_lo, out.q1 - 1.5 * (out.q3 - out.q1))
        assert np.allclose(out.fences_hi, out.q3 + 1.5 * (out.q3 - out.q1))

    def test_median_point_is_the_l1_median(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 2))
        out = boxplot_summary(X, np.zeros(15, dtype=bool))
        assert np.array_equal(out.median_point, l1_median(X).center)
        # The spatial median is the deepest point of the L1 depth.
        assert l1_depth(X, out.median_point) == pytest.approx(1.0, abs=1e-6)

    def test_flags_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            boxplot_summary(np.ones((4, 2)), np.zeros(3, dtype=bool))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            boxplot_summary(np.ones((1, 2)), np.zeros(1, dtype=bool))

    def test_returns_summary_type(self):
        X = np.random.default_rng(9).standard_normal((8, 2))
        assert isinstance(boxplot_summary(X, np.zeros(8, dtype=bool)),
                          BoxplotSummary)
