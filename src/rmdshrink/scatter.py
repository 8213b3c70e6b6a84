"""Shrinkage scatter estimation toward a scaled identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .location import (
    LocationEstimate, _shrink_toward_common, ccm_median, l1_median, shrink_ccm, shrink_mm
)
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

    Shrinking toward nu * I keeps the comedian's eigenvectors and pulls its
    eigenvalues toward their mean nu, so it is the location's rule applied to
    the spectrum, and the trace is kept. The intensity is a plug-in ratio: a
    variance proxy for the comedian against the squared distance of its
    eigenvalues from nu, truncated at 1.
    """
    X = as_data_matrix(data)
    c = np.asarray(center, dtype=float).ravel()
    n, p = X.shape
    if n < 2:
        raise ValueError("need at least two observations")
    S = adjusted_comedian(X, c)
    if float(np.trace(S)) <= _DISPERSION_FLOOR:
        raise ValueError("scatter degenerate: no dispersion")
    if not np.isfinite(S).all():
        raise ValueError("matrix contains NaN or infinite entries")
    lam, V = np.linalg.eigh(S)
    Y = X - c
    q = np.einsum("ij,ij->i", Y, Y)
    # sum_i y_i' S y_i = sum(S o Y'Y), one BLAS product instead of n quadratic forms
    cross = float((S * (Y.T @ Y)).sum())
    # mean_i |y_i y_i' - S|^2 / n, with |S|^2 = lam'lam
    proxy = (float((q * q).sum()) - 2.0 * cross + n * float(lam @ lam)) / (n * n)
    spectrum, eta, nu = _shrink_toward_common(lam, proxy)
    combined = (1.0 - eta) * S + eta * nu * np.eye(p)
    # S is finite here, but eta is NaN when the proxy's sums overflow to inf - inf.
    if not np.isfinite(combined).all():
        raise ValueError("matrix contains NaN or infinite entries")
    return ScatterEstimate(PDMatrix(combined, spectrum, V), eta, nu)


def scatter_for_variant(data, variant: str) -> tuple[LocationEstimate, ScatterEstimate]:
    """Location and scatter pair for one of the six detector variants."""
    X = as_data_matrix(data)
    try:
        loc_method, center_method = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None

    loc = _LOCATION_FNS[loc_method](X)
    return loc, shrink_scatter(X, loc.center if loc_method == center_method else loc.median)
