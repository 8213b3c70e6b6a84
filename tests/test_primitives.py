"""Order-statistic and matrix primitive behavior, checked against
independent in-test oracles (closed forms, bisection, explicit inverses).
"""

import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from conftest import helper_threads
from rmdshrink import primitives
from rmdshrink.primitives import (
    COMEDIAN_ADJUST,
    PDMatrix,
    adjusted_comedian,
    as_data_matrix,
    chi2_quantile,
    comedian,
    quad_form,
    quad_form_rows,
)


def random_pd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + 0.1 * np.eye(p)


# How the comedian's tiles are filled, as (workers, block floats): the caller
# alone; the caller and one helper at the real tile size; and the caller and
# one helper with one column per tile, so that every shape with p >= 3 is
# cut into enough tiles to start the helper.
TILINGS = {"serial": (1, None), "two-workers": (2, None), "one-column-tiles": (2, 2)}


def tiling(name):
    """Run the comedian under a tiling of TILINGS; yields the list of helper threads it starts."""
    return helper_threads(primitives, *TILINGS[name])


# (n, p): one block (n*p*p <= 2**18), several blocks, one row per block at
# the start (n*p > 2**18, split into columns with two workers), p = 1, n = 1,
# odd and even n.
COMEDIAN_SHAPES = [
    (100, 5), (101, 6), (100, 10), (500, 30), (2000, 100), (7000, 40),
    (9, 1), (1, 7), (1, 1), (2, 3),
]


def tied_sample(n, p):
    """A normal sample with ties and a constant column, its centre and its broadcast comedian."""
    rng = np.random.default_rng(n * 1000 + p)
    X = rng.standard_normal((n, p))
    # ties and a constant column put signed zeros among the products
    X[: n // 2, p // 2] = np.round(X[: n // 2, p // 2])
    if p > 2:
        X[:, -1] = 1.5
    center = np.median(X, axis=0)
    Y = X - center
    # the median over rows of the full n x p x p product, a few columns at a
    # time so the reference itself stays small
    want = np.empty((p, p))
    for t in range(0, p, 10):
        want[:, t:t + 10] = np.median(Y[:, :, None] * Y[:, None, t:t + 10], axis=0)
    return X, center, want


def drawn_tied_sample(data, n, p):
    """An n x p sample and centre drawn from a few values, and its broadcast comedian."""
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
    X = np.array(data.draw(st.lists(values, min_size=n * p, max_size=n * p))).reshape(n, p)
    center = np.array(data.draw(st.lists(values, min_size=p, max_size=p)))
    Y = X - center
    return X, center, np.median(Y[:, :, None] * Y[:, None, :], axis=0)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def wide_sample(seed=5, n=2000, p=100):
    X = np.random.default_rng(seed).standard_normal((n, p))
    return X, np.median(X, axis=0)


def comedian_into(conn, X, center):
    """In a forked child: send its comedian."""
    conn.send(comedian(X, center))
    conn.close()


class TestComedian:
    def test_diagonal_matches_squared_mad_at_columnwise_median(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((41, 4))
        center = np.median(X, axis=0)
        C = comedian(X, center)
        for j in range(4):
            mad = np.median(np.abs(X[:, j] - np.median(X[:, j])))
            assert math.isclose(C[j, j], mad ** 2, rel_tol=1e-12)

    def test_constant_column_zeroes_its_row_and_column(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 3))
        X[:, 1] = 7.0
        center = np.median(X, axis=0)
        C = comedian(X, center)
        assert np.all(C[1, :] == 0.0)
        assert np.all(C[:, 1] == 0.0)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((25, 5))
        C = comedian(X, np.median(X, axis=0))
        assert np.array_equal(C, C.T)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 3))
        center = np.median(X, axis=0)
        shift = np.array([5.0, -3.25, 0.5])
        C0 = comedian(X, center)
        C1 = comedian(X + shift, center + shift)
        assert np.allclose(C0, C1, atol=1e-12)

    def test_diagonal_rescaling_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        center = np.median(X, axis=0)
        a = np.array([2.0, -0.5, 3.0])
        C0 = comedian(X, center)
        C1 = comedian(X * a, center * a)
        assert np.allclose(C1, np.outer(a, a) * C0, rtol=1e-12, atol=1e-14)

    def test_adjusted_applies_consistency_factor_exactly(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 3))
        center = np.median(X, axis=0)
        assert np.array_equal(adjusted_comedian(X, center),
                              COMEDIAN_ADJUST * comedian(X, center))

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_adjusted_diagonal_consistent_for_standard_normal(self, seed):
        # 2.198 = 1/med(chi2_1) rescales the squared MAD to unit variance
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((100_000, 2))
        C = adjusted_comedian(X, np.median(X, axis=0))
        assert abs(C[0, 0] - 1.0) < 0.05
        assert abs(C[1, 1] - 1.0) < 0.05

    @pytest.mark.parametrize("n, p", COMEDIAN_SHAPES)
    def test_matches_broadcast_median_bit_for_bit(self, n, p):
        X, center, want = tied_sample(n, p)
        assert_same_bits(comedian(X, center), want)

    @pytest.mark.parametrize("mode", TILINGS)
    @pytest.mark.parametrize("n, p", COMEDIAN_SHAPES)
    def test_every_tiling_matches_broadcast_median_bit_for_bit(self, n, p, mode):
        X, center, want = tied_sample(n, p)
        with tiling(mode) as helpers:
            assert_same_bits(comedian(X, center), want)
        threaded = {"serial": False, "two-workers": (n, p) in {(2000, 100), (7000, 40)},
                    "one-column-tiles": p >= 3}[mode]
        assert bool(helpers) == threaded

    # n = 2k - odd, so 1..39 odd and 2..40 even. Entries and centre come from
    # a few values, so the middle pair often ties and holds zeros of either
    # sign. Each drawn sample runs under every tiling of TILINGS.
    @pytest.mark.parametrize("odd", [0, 1])
    @given(k=st.integers(min_value=1, max_value=20), p=st.integers(min_value=1, max_value=6),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_median_on_ties_and_signed_zeros(self, odd, k, p, data):
        X, center, want = drawn_tied_sample(data, 2 * k - odd, p)
        for mode in TILINGS:
            with tiling(mode) as helpers:
                assert_same_bits(comedian(X, center), want)
            assert bool(helpers) == (mode == "one-column-tiles" and p >= 3)

    def test_traced_peak_is_bounded_in_n_times_p(self):
        # the n x p x p product alone is 152.6 MiB at p100/n2000; Y' and the
        # workers' buffers, 2**18 floats together, take 3.6 MiB
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2000, 100))
        center = np.median(X, axis=0)
        tracemalloc.start()
        try:
            comedian(X, center)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    # more workers than the module ever runs: the budget, numpy's ufunc
    # buffer in each worker and the helper threads the call starts included,
    # still holds
    @pytest.mark.parametrize("workers", [2, 8])
    def test_traced_peak_with_forced_workers_is_bounded(self, monkeypatch, workers):
        monkeypatch.setattr(primitives, "_WORKERS", workers)
        X, center = wide_sample()
        tracemalloc.start()
        try:
            comedian(X, center)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    # simulate_grid's cells and boxplot_table's table
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("n, p", [(100, 5), (100, 6), (100, 10), (500, 30), (2000, 5)])
    def test_small_shapes_start_no_thread(self, n, p, workers):
        X, center = wide_sample(n=n, p=p)
        with helper_threads(primitives, workers) as helpers:
            comedian(X, center)
        assert not helpers, f"{len(helpers)} helper threads started at n={n}, p={p}"

    def test_no_thread_outlives_a_threaded_call(self):
        X, center = wide_sample()
        before = threading.active_count()
        with helper_threads(primitives, 2) as helpers:
            comedian(X, center)
        assert helpers
        assert not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before

    def test_helper_exception_reaches_the_caller(self):
        X, center = wide_sample()
        before = threading.active_count()
        with pytest.raises(OSError) as raised:
            with helper_threads(primitives, 2, fail=OSError("no room for the helper's tile")) as helpers:
                comedian(X, center)
        assert raised.type is OSError
        assert str(raised.value) == "no room for the helper's tile"
        assert helpers
        assert not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_forked_child_after_threads_returns_the_parents_matrix(self, monkeypatch):
        monkeypatch.setattr(primitives, "_WORKERS", 2)
        X, center = wide_sample()
        want = comedian(X, center)  # starts the helper thread in this process
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=comedian_into, args=(send, X, center))
        child.start()
        send.close()
        try:
            assert recv.poll(30), "the forked child did not finish within 30 s"
            got = recv.recv()
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
                child.join(30)
        assert_same_bits(got, want)

    def test_each_tile_is_taken_once_from_a_racy_iterator(self, monkeypatch):
        # An iterator whose next() lets another thread in between reading and
        # advancing its position, as a shared iterator may without a GIL.
        class RacyTiles:
            def __init__(self, tiles):
                self.tiles, self.i, self.taken = tiles, 0, []

            def __iter__(self):
                return self

            def __next__(self):
                i = self.i
                time.sleep(1e-4)
                if i == len(self.tiles):
                    raise StopIteration
                self.i = i + 1
                self.taken.append(self.tiles[i])
                return self.tiles[i]

        make_tiles = primitives._tiles
        racy = []

        def racy_tiles(*args):
            racy.append(RacyTiles(make_tiles(*args)))
            return racy[-1]

        monkeypatch.setattr(primitives, "_tiles", racy_tiles)
        X, center = wide_sample(n=2000, p=40)
        with tiling("serial"):
            want = comedian(X, center)
        with tiling("two-workers") as helpers:
            got = comedian(X, center)
        assert helpers
        taken = racy[-1].taken
        assert sorted(taken) == sorted(set(taken)) == sorted(racy[-1].tiles)
        assert_same_bits(got, want)

    def test_concurrent_callers_each_get_their_serial_result(self, monkeypatch):
        # three callers with two helpers each: nine threads on however many
        # cores, each caller on its own input, switching often
        inputs = [wide_sample(seed, n, p) for seed, n, p in
                  [(1, 2000, 30), (2, 1501, 40), (3, 1000, 50)]]
        with tiling("serial"):
            wants = [comedian(X, center) for X, center in inputs]
        monkeypatch.setattr(primitives, "_WORKERS", 3)
        results = [[] for _ in inputs]

        def call(k):
            for _ in range(3):
                results[k].append(comedian(*inputs[k]))

        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for want, got in zip(wants, results):
            assert len(got) == 3
            assert all(np.array_equal(g, want) for g in got)


def recording_work():
    """A ``work`` for primitives._run, and the lists of the tasks it takes and the threads it runs in."""
    taken, threads = [], []

    def work(take):
        threads.append(threading.current_thread())
        while (task := take()) is not None:
            taken.append(task)

    return work, taken, threads


class TestRun:
    """primitives._run on numbered tasks, where a task handed out twice shows."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_task_is_taken_once(self, workers):
        caller = threading.current_thread()
        work, taken, threads = recording_work()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            primitives._run(work, range(1000), 1000, workers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(1000))
        helpers = [t for t in threads if t is not caller]
        assert len(threads) == workers and threads.count(caller) == 1
        assert helpers and not any(t.is_alive() for t in helpers)

    def test_callers_exception_wins_and_no_helper_outlives_the_call(self):
        caller = threading.current_thread()
        before = threading.active_count()
        helper_running = threading.Event()
        helpers, finished = [], []

        def work(take):
            if threading.current_thread() is caller:
                if not helper_running.wait(10):
                    pytest.fail("no helper ran within 10 s")
                raise KeyError("the caller's task")
            helpers.append(threading.current_thread())
            helper_running.set()
            time.sleep(0.05)  # still running when the caller raises
            finished.append(threading.current_thread())
            raise ValueError("the helper's task")

        with pytest.raises(KeyError, match="the caller's task"):
            primitives._run(work, range(8), 8, 2)
        assert finished == helpers and len(helpers) == 1
        assert not helpers[0].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, load", [(1, 1000), (2, 7), (3, 11)])
    def test_below_the_threshold_no_thread_starts(self, monkeypatch, workers, load):
        start = threading.Thread.start
        started = []

        def recorded_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        work, taken, threads = recording_work()
        primitives._run(work, range(load), load, workers)
        assert not started
        assert threads == [threading.current_thread()]
        assert taken == list(range(load))


def bisect_chi2(dof, prob):
    lo, hi = 0.0, 1.0
    while gammainc(dof / 2.0, hi / 2.0) < prob:
        hi *= 2.0
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if gammainc(dof / 2.0, mid / 2.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2Quantile:
    def test_dof2_closed_form(self):
        want = -2.0 * math.log(1.0 - 0.975)
        assert abs(chi2_quantile(2, 0.975) - want) <= 1e-10 * want

    @pytest.mark.parametrize("dof", [1, 2, 5, 30])
    @pytest.mark.parametrize("prob", [0.5, 0.9, 0.975, 0.999])
    def test_matches_bisection_oracle(self, dof, prob):
        want = bisect_chi2(dof, prob)
        assert math.isclose(chi2_quantile(dof, prob), want, rel_tol=1e-9)

    def test_reference_values(self):
        assert abs(chi2_quantile(1, 0.975) - 5.023886) < 5e-6
        assert abs(chi2_quantile(30, 0.975) - 46.979242) < 5e-6

    def test_strictly_increasing_in_prob(self):
        qs = [chi2_quantile(7, p) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_prob_outside_open_interval(self, prob):
        with pytest.raises(ValueError):
            chi2_quantile(5, prob)

    def test_rejects_nonpositive_dof(self):
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.5)

    @pytest.mark.parametrize("dof", [True, np.True_, math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_bool_and_non_finite_dof(self, dof):
        with pytest.raises(ValueError, match="dof must be a positive integer"):
            chi2_quantile(dof, 0.5)


class TestPDMatrix:
    def test_identity_roundtrip(self):
        m = PDMatrix.from_symmetric(np.eye(3))
        assert np.allclose(m.entries, np.eye(3))
        assert m.dim == 3

    @pytest.mark.parametrize("m", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.zeros((2, 2)),
        -np.eye(2),
    ], ids=["indefinite", "zero", "negative_definite"])
    def test_rejects_indefinite(self, m):
        with pytest.raises(ValueError, match="^matrix is not positive definite$"):
            PDMatrix.from_symmetric(m)

    def test_rejects_near_singular_by_eigenvalue_ratio(self):
        # eigenvalues about 5e-15 and 2: the ratio is far below 1e-12
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(ValueError, match="^matrix is not positive definite$"):
            PDMatrix.from_symmetric(m)

    def test_eigenvalue_ratio_boundary(self):
        # a rotated diag(1, small): the rule reads the spectrum, not the diagonal
        t = 0.6
        Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        with pytest.raises(ValueError, match="^matrix is not positive definite$"):
            PDMatrix.from_symmetric(Q @ np.diag([1.0, 5e-13]) @ Q.T)
        pd = PDMatrix.from_symmetric(Q @ np.diag([1.0, 2e-12]) @ Q.T)
        assert math.isclose(pd.eigenvalues[0], 2e-12, rel_tol=1e-3)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            PDMatrix.from_symmetric(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e26])
    def test_symmetry_tolerance_is_relative(self, scale):
        # the asymmetry equals the largest entry, at any magnitude
        m = scale * np.array([[1e-13, 1e-13], [0.0, 1e-13]])
        with pytest.raises(ValueError, match="not symmetric"):
            PDMatrix.from_symmetric(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            PDMatrix.from_symmetric(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        m = np.eye(2)
        m[0, 1] = np.nan
        m[1, 0] = np.nan
        with pytest.raises(ValueError):
            PDMatrix.from_symmetric(m)

    @pytest.mark.parametrize("field", ["entries", "eigenvalues", "eigenvectors"])
    def test_arrays_are_read_only(self, field):
        m = PDMatrix.from_symmetric(np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, field)[0] = 4.0

    @pytest.mark.parametrize("lam", [[0.0, 1.0], [-1.0, 1.0], [1e-12, 1.0], [5e-13, 1.0],
                                     [-2.0, -1.0], [np.nan, 1.0], [1.0, np.nan]])
    def test_direct_build_obeys_the_eigenvalue_rule(self, lam):
        # the rule lives in the type, so a build that skips from_symmetric obeys it too
        lam = np.array(lam)
        with pytest.raises(ValueError, match="^matrix is not positive definite$"):
            PDMatrix(np.diag(lam), lam, np.eye(2))

    def test_direct_build_arrays_are_read_only(self):
        lam = np.array([1.0, 2.0])
        m = PDMatrix(np.diag(lam), lam, np.eye(2))
        for arr in (m.entries, m.eigenvalues, m.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 4.0

    def test_input_is_copied(self):
        a = np.eye(2)
        m = PDMatrix.from_symmetric(a)
        a[0, 0] = 4.0
        assert a.flags.writeable
        assert np.array_equal(m.entries, np.eye(2))
        assert quad_form(m, [1.0, 0.0]) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_factorization_residual_small(self, seed):
        rng = np.random.default_rng(seed)
        m = random_pd(rng, 5)
        pd = PDMatrix.from_symmetric(m)
        V = pd.eigenvectors
        resid = np.abs(pd.entries - V @ np.diag(pd.eigenvalues) @ V.T).max()
        assert resid <= 1e-10 * np.abs(pd.entries).max()
        assert np.all(np.diff(pd.eigenvalues) >= 0.0)


class TestQuadForm:
    def test_identity_is_squared_norm(self):
        m = PDMatrix.from_symmetric(np.eye(2))
        assert math.isclose(quad_form(m, np.array([3.0, 4.0])), 25.0,
                            rel_tol=1e-12)

    def test_zero_vector_is_zero(self):
        m = PDMatrix.from_symmetric(random_pd(np.random.default_rng(1), 4))
        assert quad_form(m, np.zeros(4)) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_explicit_inverse(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 8))
        m = random_pd(rng, p)
        y = rng.standard_normal(p)
        pd = PDMatrix.from_symmetric(m)
        want = y @ np.linalg.inv(m) @ y
        assert math.isclose(quad_form(pd, y), want, rel_tol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_positive_for_nonzero_vectors(self, seed):
        rng = np.random.default_rng(seed + 50)
        m = PDMatrix.from_symmetric(random_pd(rng, 3))
        y = rng.standard_normal(3)
        assert quad_form(m, y) > 0.0

    def test_rowwise_matches_per_row_evaluation(self):
        # quad_form is quad_form_rows on one row, so the reference is LAPACK's
        # general solve on the entries, not the eigen-decomposition
        rng = np.random.default_rng(17)
        m = PDMatrix.from_symmetric(random_pd(rng, 4))
        R = rng.standard_normal((12, 4))
        want = np.einsum("ij,ji->i", R, np.linalg.solve(m.entries, R.T))
        assert np.allclose(quad_form_rows(m, R), want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_rejected(self, bad):
        m = PDMatrix.from_symmetric(random_pd(np.random.default_rng(3), 3))
        R = np.ones((4, 3))
        R[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            quad_form_rows(m, R)
        with pytest.raises(ValueError, match="NaN or infinite"):
            quad_form(m, R[2])


class TestDataMatrixValidation:
    def test_rejects_nan(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValueError):
            as_data_matrix(X)

    def test_rejects_inf(self):
        X = np.ones((3, 2))
        X[0, 1] = np.inf
        with pytest.raises(ValueError):
            as_data_matrix(X)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones((0, 3)))
