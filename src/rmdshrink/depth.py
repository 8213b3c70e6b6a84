"""L1 data depth and the depth-based multivariate boxplot summary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .location import l1_median
from .primitives import as_data_matrix

_NORM_FLOOR = 1e-12


def l1_depth(data, point) -> float:
    """Depth of a point: 1 minus the norm of the mean unit direction to it.

    Observations coinciding with the point are skipped; the average still
    divides by the full sample size, so the value stays in [0, 1].
    """
    X = as_data_matrix(data)
    v = np.asarray(point, dtype=float).ravel()
    if v.shape[0] != X.shape[1]:
        raise ValueError("point length does not match number of columns")
    diffs = X - v
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > _NORM_FLOOR
    if not keep.any():
        return 1.0
    mean_direction = (diffs[keep] / norms[keep, None]).sum(axis=0) / X.shape[0]
    return float(1.0 - np.linalg.norm(mean_direction))


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
    depths = np.array([l1_depth(X, X[i]) for i in range(n)])
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
