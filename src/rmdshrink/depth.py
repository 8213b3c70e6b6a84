"""L1 data depth and the depth-based multivariate boxplot summary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .location import _NORM_FLOOR, l1_median
from .primitives import _as_vector, as_data_matrix


# Floats in one block of pairwise distances: about 8 rows at n = 2000.
_BLOCK_FLOATS = 2**14


def _depths(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """L1 depth of each row of ``points`` within the rows of ``X``.

    With W the inverse distances from a block of points Q to the rows of
    X (0 where a row coincides with the point), the summed unit directions
    are Q * W.sum(1) - W @ X. Both are centred at the column median of X
    first, which leaves the depth unchanged and keeps that difference small.
    """
    n, p = X.shape
    center = np.median(X, axis=0)
    Xc = X - center
    Pc = points - center
    depths = np.empty(Pc.shape[0])
    block = max(1, _BLOCK_FLOATS // n)
    for start in range(0, Pc.shape[0], block):
        Q = Pc[start : start + block]
        W = np.zeros((Q.shape[0], n))
        for k in range(p):
            diff = Q[:, k, None] - Xc[:, k]
            W += diff * diff
        np.sqrt(W, out=W)
        W = np.divide(1.0, W, out=np.zeros_like(W), where=W > _NORM_FLOOR)
        total = Q * W.sum(axis=1)[:, None] - W @ Xc
        depths[start : start + block] = 1.0 - np.linalg.norm(total, axis=1) / n
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
