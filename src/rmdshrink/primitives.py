"""Order-statistic and matrix primitives the estimators are built from."""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

# Variance adjustment for median-of-products scale estimates under
# normality: 1 / Phi^{-1}(3/4)^2, rounded to four significant figures.
COMEDIAN_ADJUST = 2.198

# Positive definite means: smallest eigenvalue > _EIGEN_RTOL * largest.
_EIGEN_RTOL = 1e-12

# Floats that the workers of one call hold at once, over all of them: the
# comedian's products, or the depth kernel's blocks. Larger blocks fall out
# of cache.
_BLOCK_FLOATS = 2**18


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an n x p float matrix (rows are observations)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("data must be a nonempty 2-D array of shape (n, p)")
    if not np.isfinite(arr).all():
        raise ValueError("data contains NaN or infinite entries")
    return arr


def _as_vector(v, p: int, name: str) -> np.ndarray:
    """Validate and return a finite float vector of length p; ``name`` labels errors."""
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != p:
        raise ValueError(f"{name} length does not match number of columns")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


# Threads that run the comedian and the depth kernel, the calling thread
# included: one per core this process may run on, and at most two, the count
# the speed and memory were measured at.
try:
    _WORKERS = min(2, len(os.sched_getaffinity(0)))
except AttributeError:  # no CPU affinity on this OS
    _WORKERS = min(2, os.cpu_count() or 1)


def _tiles(n: int, p: int, cap: int) -> list[tuple[int, int, int, int]]:
    """Tiles (a, b, t0, t1) covering the upper triangle: rows [a, b) x columns [t0, t1).

    A tile's n products per entry fit in ``cap`` floats: several whole rows
    of the triangle, or, when one row does not fit, part of one row.
    """
    tiles = []
    a = 0
    while a < p:
        if n * (p - a) <= cap:
            b = min(p, a + cap // (n * (p - a)))
            tiles.append((a, b, a, p))
        else:
            b = a + 1
            width = cap // n
            tiles.extend((a, b, t, min(p, t + width)) for t in range(a, p, width))
        a = b
    return tiles


def _run(work, tasks, load: float, workers: int) -> None:
    """Run ``work(take)`` in the caller and, for a large enough ``load``, in helper threads.

    ``take()`` returns the next of ``tasks``, or None once all are taken; it
    hands each task out once, whichever worker asks. ``load`` is the work in
    full tasks. From four of them per worker on, ``workers`` - 1 helper
    threads run ``work`` too; they are joined before this returns, and an
    exception raised in one is raised here.
    """
    tasks = iter(tasks)
    lock = threading.Lock()

    def take():
        # `tasks` is shared with the other workers: taking one under the lock
        # hands each task out once, with or without a GIL.
        with lock:
            return next(tasks, None)

    # Starting and joining a thread costs about 0.1-0.2 ms, and below four
    # tasks per worker helpers saved nothing on 2 vCPUs: the comedian at
    # p30/n500 took 0.9-1.0 ms either way, and at p5/n2000 0.14 ms alone
    # against 0.5 ms with a helper.
    if workers < 2 or load < 4 * workers:
        work(take)
        return
    # Leaving the pool joins the helpers, also when the caller's work raises.
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work, take) for _ in range(workers - 1)]
        work(take)
    for helper in helpers:
        helper.result()


def _fill(S: np.ndarray, Yt: np.ndarray, take, size: int) -> None:
    """Fill S's entries for the tiles from ``take()``, and their mirrors, in one buffer."""
    n = Yt.shape[1]
    # Each entry is one in-place selection at h = n // 2; for even n the lower
    # middle is the max of the lower half. np.median selects at h - 1, h and
    # -1 (a NaN check) on a copy, and a two-kth partition at (h - 1, h) is
    # not much faster: at p100/n2000 on one Xeon core the comedian took about
    # 210 ms through np.median, 200 ms with two kth and 50 ms with one kth and
    # a max. The `0.0 +` is np.mean's zero-started sum, so the result, signed
    # zeros included, is still the median bit for bit, whoever fills a tile.
    h = n // 2
    buf = np.empty(size)
    while (tile := take()) is not None:
        a, b, t0, t1 = tile
        P = buf[: (b - a) * (t1 - t0) * n].reshape(b - a, t1 - t0, n)
        np.multiply(Yt[a:b, None, :], Yt[None, t0:t1, :], out=P)
        P.partition(h, axis=-1)
        if n % 2:
            S[a:b, t0:t1] = 0.0 + P[..., h]
        else:
            S[a:b, t0:t1] = (0.0 + P[..., :h].max(axis=-1) + P[..., h]) / 2
        S[t0:t1, a:b] = S[a:b, t0:t1].T


def comedian(data, center) -> np.ndarray:
    """Entrywise median of cross products of centered columns.

    Entry (j, t) is the median over rows of
    (x[i, j] - center[j]) * (x[i, t] - center[t]). With the component-wise
    median as center, the diagonal reduces to squared MADs.
    """
    X = as_data_matrix(data)
    c = _as_vector(center, X.shape[1], "center")
    n, p = X.shape
    # The upper triangle is cut into tiles whose products fit one worker's
    # buffer; each worker reuses its own buffer for every tile it takes. The
    # broadcast multiply also holds numpy's ufunc buffer, np.getbufsize()
    # floats, in each running worker, so that is charged to the worker's
    # share: all of them together hold about _BLOCK_FLOATS floats and memory
    # stays O(n*p + p*p). A tile's entries are written, then mirrored: the
    # mirrors of different tiles are disjoint, so no two workers write one
    # entry. Each entry is the median of the same sequence as the full product.
    Yt = np.empty((p, n))
    np.subtract(X.T, c[:, None], out=Yt)
    S = np.empty((p, p))
    workers = _WORKERS
    cap = max(n, _BLOCK_FLOATS // workers - np.getbufsize())
    size = min(n * p * p, cap)
    _run(lambda take: _fill(S, Yt, take, size), _tiles(n, p, cap), n * p * p / cap, workers)
    return S


def adjusted_comedian(data, center) -> np.ndarray:
    """Comedian scaled so diagonals estimate variances under normality."""
    return COMEDIAN_ADJUST * comedian(data, center)


def chi2_quantile(dof: int, prob: float) -> float:
    """Chi-squared quantile through the inverse regularized incomplete gamma."""
    # Not a bool, and in the float range: int() raises on nan and inf, and
    # dof / 2.0 overflows on an int past the range.
    bad = isinstance(dof, (bool, np.bool_)) or not 1 <= dof <= sys.float_info.max
    if bad or int(dof) != dof:
        raise ValueError("dof must be a positive integer")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return float(2.0 * gammaincinv(dof / 2.0, prob))


@dataclass(frozen=True)
class PDMatrix:
    """Symmetric positive-definite matrix with its eigen-decomposition, eigenvalues ascending.

    Every instance refuses lambda_min <= _EIGEN_RTOL * lambda_max and makes its three
    arrays read-only. ``from_symmetric`` also copies, so its arrays are not shared.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if not self.eigenvalues[0] > _EIGEN_RTOL * self.eigenvalues[-1]:
            raise ValueError("matrix is not positive definite")
        for arr in (self.entries, self.eigenvalues, self.eigenvectors):
            arr.flags.writeable = False

    @classmethod
    def from_symmetric(cls, entries) -> "PDMatrix":
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("expected a nonempty square matrix")
        if not np.isfinite(m).all():
            raise ValueError("matrix contains NaN or infinite entries")
        if not np.array_equal(m, m.T):
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * float(np.abs(m).max())):
                raise ValueError("matrix is not symmetric")
            m = 0.5 * (m + m.T)
        return cls(m, *np.linalg.eigh(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def quad_form(m: PDMatrix, y) -> float:
    """Evaluate y' M^{-1} y as sum_j (v_j' y)^2 / lambda_j over the cached eigen-decomposition."""
    return float(quad_form_rows(m, np.asarray(y, dtype=float).reshape(1, -1))[0])


def quad_form_rows(m: PDMatrix, rows) -> np.ndarray:
    """quad_form applied to every row of a matrix at once, by one product R V."""
    R = np.asarray(rows, dtype=float)
    if R.ndim != 2 or R.shape[1] != m.dim:
        raise ValueError("row width does not match matrix dimension")
    if not np.isfinite(R).all():
        raise ValueError("rows contain NaN or infinite entries")
    Z = R @ m.eigenvectors
    Z *= Z
    return Z @ (1.0 / m.eigenvalues)
