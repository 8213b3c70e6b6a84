"""L1 data depth and the depth-based multivariate boxplot summary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primitives
from .location import _NORM_FLOOR, l1_median
from .primitives import _as_vector, _run, as_data_matrix


# Floats in one block of pairwise distances: 32 point rows at n = 2000. The
# block's row count is fixed, whatever the number of workers, because the
# product W @ Xc can change in the last bit with the number of rows in W.
# At 2000 x 5 on 2 vCPUs (BLAS at 1 thread, median of 15 calls) one worker
# took 53-63 / 48 / 47 ms at 2**14 / 2**15 / 2**16 floats, and two workers
# 48-49 / 35-37 / 29-33 ms; at 2**17 a worker's two blocks fill the budget.
_BLOCK_FLOATS = 2**16


def _fill(depths, Xc, XcT, Pc, rows: int, take) -> None:
    """Write the depths of the blocks of ``rows`` points whose first rows come from ``take()``."""
    n, p = Xc.shape
    W = np.empty((rows, n))
    tmp = np.empty((rows, n))
    while (start := take()) is not None:
        Q = Pc[start : start + rows]
        D, T = W[: Q.shape[0]], tmp[: Q.shape[0]]
        np.subtract(Q[:, :1], XcT[0], out=D)
        D *= D
        for k in range(1, p):
            np.subtract(Q[:, k, None], XcT[k], out=T)
            T *= T
            D += T
        np.sqrt(D, out=D)
        # a row that coincides with the point gets weight 1 / inf = 0
        np.copyto(D, np.inf, where=D <= _NORM_FLOOR)
        np.divide(1.0, D, out=D)
        total = Q * D.sum(axis=1)[:, None] - D @ Xc
        depths[start : start + rows] = 1.0 - np.linalg.norm(total, axis=1) / n


def _depths(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """L1 depth of each row of ``points`` within the rows of ``X``.

    With W the inverse distances from a block of points Q to the rows of
    X (0 where a row coincides with the point), the summed unit directions
    are Q * W.sum(1) - W @ X. Both are centred at the column median of X
    first, which leaves the depth unchanged and keeps that difference small.
    They are then scaled by the one power of two that brings their largest
    |entry| into [0.5, 1). That is exact, so the depths do not change, but
    no square overflows or underflows, and the coincidence floor
    _NORM_FLOOR is relative to that largest |entry|, within a factor of two.
    """
    n = X.shape[0]
    center = np.median(X, axis=0)
    Xc = X - center
    Pc = points - center
    exponent = -int(np.frexp(max(np.abs(Xc).max(), np.abs(Pc).max()))[1])
    np.ldexp(Xc, exponent, out=Xc)
    np.ldexp(Pc, exponent, out=Pc)
    XcT = np.ascontiguousarray(Xc.T)
    depths = np.empty(Pc.shape[0])
    rows = max(1, _BLOCK_FLOATS // n)
    # A worker holds two blocks, so no more workers run than fit the shared
    # budget (two at n = 2000), and at least one.
    workers = min(primitives._WORKERS, max(1, primitives._BLOCK_FLOATS // (2 * rows * n)))
    _run(lambda take: _fill(depths, Xc, XcT, Pc, rows, take),
         range(0, Pc.shape[0], rows), Pc.shape[0] / rows, workers)
    return depths


def l1_depth(data, point) -> float:
    """Depth of a point: 1 minus the norm of the mean unit direction to it.

    Observations coinciding with the point are skipped; the average still
    divides by the full sample size, so the value stays in [0, 1]. A point
    with a NaN or infinite entry is refused.
    """
    X = as_data_matrix(data)
    v = _as_vector(point, X.shape[1], "point")
    return float(_depths(X, v[None, :])[0])


@dataclass(frozen=True)
class BoxplotSummary:
    """Depth-ordered box, fences, and counts of flagged rows against them."""

    depth_order: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    fences_lo: np.ndarray
    fences_hi: np.ndarray
    median_point: np.ndarray
    n_inside: int
    n_outside: int
    n_flagged: int


def boxplot_summary(data, flags) -> BoxplotSummary:
    """Box and fences from the deepest half, plus flagged-row counts.

    Rows are ordered by descending depth; the box spans the component-wise
    min and max of the deepest half, and the fences extend it by 1.5 box
    widths. The median point is the spatial median, the point of greatest
    L1 depth. Flagged rows are split into those inside the fences in every
    coordinate and those outside in at least one.
    """
    X = as_data_matrix(data)
    fl = np.asarray(flags, dtype=bool).ravel()
    n = X.shape[0]
    if fl.shape[0] != n:
        raise ValueError("flags length does not match data")
    if n < 2:
        raise ValueError("need at least two observations")
    depths = _depths(X, X)
    order = np.argsort(-depths, kind="stable")
    deepest = order[: math.ceil(n / 2)]
    q1 = X[deepest].min(axis=0)
    q3 = X[deepest].max(axis=0)
    spread = q3 - q1
    fences_lo = q1 - 1.5 * spread
    fences_hi = q3 + 1.5 * spread
    within = np.all((X >= fences_lo) & (X <= fences_hi), axis=1)
    n_inside = int((fl & within).sum())
    n_flagged = int(fl.sum())
    return BoxplotSummary(
        depth_order=order,
        q1=q1,
        q3=q3,
        fences_lo=fences_lo,
        fences_hi=fences_hi,
        median_point=l1_median(X).center,
        n_inside=n_inside,
        n_outside=n_flagged - n_inside,
        n_flagged=n_flagged,
    )
