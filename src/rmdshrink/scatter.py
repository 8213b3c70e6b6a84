"""Shrinkage scatter estimation toward a scaled identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .location import (
    LocationEstimate,
    _shrink_ccm_at,
    _shrink_mm_at,
    ccm_median,
    l1_median,
    shrink_ccm,
    shrink_mm,
)
from .primitives import PDMatrix, adjusted_comedian, as_data_matrix

_DISPERSION_FLOOR = 1e-12

# Variant id -> (reported location method, comedian centering method).
# The scatter is always the shrunk adjusted comedian; the centering vector
# is produced by the named location estimator.
VARIANTS: dict[str, tuple[str, str]] = {
    "v1": ("ccm", "ccm"),
    "v2": ("shrink_ccm", "ccm"),
    "v3": ("shrink_ccm", "shrink_ccm"),
    "v4": ("mm", "mm"),
    "v5": ("shrink_mm", "mm"),
    "v6": ("shrink_mm", "shrink_mm"),
}

_LOCATION_FNS = {
    "ccm": ccm_median,
    "mm": l1_median,
    "shrink_ccm": shrink_ccm,
    "shrink_mm": shrink_mm,
}

# Raw median -> shrink of that median, given the rows and the median.
_SHRINK_AT = {"ccm": _shrink_ccm_at, "mm": _shrink_mm_at}


@dataclass(frozen=True)
class ScatterEstimate:
    """Positive-definite scatter matrix plus its shrinkage metadata."""

    matrix: PDMatrix
    eta: float
    nu_sigma: float


def shrink_scatter(data, center) -> ScatterEstimate:
    """Shrink the adjusted comedian at the given center toward nu * I.

    nu is trace/p, so the combination preserves the trace. The intensity is
    a plug-in ratio: a variance proxy b2 for the comedian against its
    squared distance d2 from the spherical target, truncated at 1. All
    matrix norms here are trace(AA')/p.
    """
    X = as_data_matrix(data)
    c = np.asarray(center, dtype=float).ravel()
    n, p = X.shape
    if n < 2:
        raise ValueError("need at least two observations")
    S = adjusted_comedian(X, c)
    trace_S = float(np.trace(S))
    if trace_S <= _DISPERSION_FLOOR:
        raise ValueError("scatter degenerate: no dispersion")
    nu = trace_S / p
    deviation = S - nu * np.eye(p)
    d2 = float((deviation * deviation).sum()) / p
    Y = X - c
    q = np.einsum("ij,ij->i", Y, Y)
    cross = np.einsum("ij,jk,ik->i", Y, S, Y)
    frob2_S = float((S * S).sum())
    b2 = float((q * q - 2.0 * cross).sum() + n * frob2_S) / (n * n * p)
    if d2 <= _DISPERSION_FLOOR:
        eta = 1.0
    else:
        eta = min(max(min(b2, d2) / d2, 0.0), 1.0)
    combined = (1.0 - eta) * S + eta * nu * np.eye(p)
    return ScatterEstimate(matrix=PDMatrix.from_symmetric(combined), eta=eta, nu_sigma=nu)


def scatter_for_variant(data, variant: str) -> tuple[LocationEstimate, ScatterEstimate]:
    """Location and scatter pair for one of the six detector variants."""
    X = as_data_matrix(data)
    try:
        loc_method, center_method = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None

    base = _LOCATION_FNS[center_method](X)
    # The reported center is the centering estimate itself, or the shrink of
    # the raw median the comedian is centered at, so each median is computed once.
    loc = base if loc_method == center_method else _SHRINK_AT[center_method](X, base.center)
    return loc, shrink_scatter(X, base.center)
