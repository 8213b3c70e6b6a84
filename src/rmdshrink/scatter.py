"""Shrinkage scatter estimation toward a scaled identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .location import LocationEstimate, _intensity, ccm_median, l1_median, shrink_ccm, shrink_mm
from .primitives import PDMatrix, adjusted_comedian, as_data_matrix

_DISPERSION_FLOOR = 1e-12

# Variant id -> (reported location method, comedian centering method).
# The scatter is always the shrunk adjusted comedian. The one location call
# is the reported method; the comedian is centered at its center when the two
# methods agree, else at the raw median it was shrunk from (v2, v5).
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
    target = nu * np.eye(p)
    deviation = S - target
    d2 = float((deviation * deviation).sum()) / p
    Y = X - c
    q = np.einsum("ij,ij->i", Y, Y)
    # sum_i y_i' S y_i = sum(S o Y'Y), one BLAS product instead of n quadratic forms
    cross = float((S * (Y.T @ Y)).sum())
    frob2_S = float((S * S).sum())
    b2 = (float((q * q).sum()) - 2.0 * cross + n * frob2_S) / (n * n * p)
    eta = _intensity(b2, d2)
    combined = (1.0 - eta) * S + eta * target
    if not np.isfinite(combined).all():
        raise ValueError("matrix contains NaN or infinite entries")
    # combined keeps S's eigenvectors; each eigenvalue lam maps to (1 - eta) lam + eta nu.
    lam, V = np.linalg.eigh(S)
    return ScatterEstimate(PDMatrix(combined, (1.0 - eta) * lam + eta * nu, V), eta, nu)


def scatter_for_variant(data, variant: str) -> tuple[LocationEstimate, ScatterEstimate]:
    """Location and scatter pair for one of the six detector variants."""
    X = as_data_matrix(data)
    try:
        loc_method, center_method = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None

    loc = _LOCATION_FNS[loc_method](X)
    return loc, shrink_scatter(X, loc.center if loc_method == center_method else loc.median)
