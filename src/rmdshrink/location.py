"""Robust multivariate location estimators and their shrinkage versions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import COMEDIAN_ADJUST, _as_vector, as_data_matrix

# Norm floor below which a centered observation carries no direction
# information: Weiszfeld, the sandwich averages and the L1 depth skip it.
_NORM_FLOOR = 1e-12

# Weiszfeld stops once a step moves the iterate by at most this much,
# relative to 1 + its norm, or after _WEISZFELD_MAX_ITER steps.
_WEISZFELD_TOL = 1e-10
_WEISZFELD_MAX_ITER = 500

# Denominator floor: the raw estimator already sits on its shrinkage
# target, so the intensity is immaterial and pinned at 1.
_TARGET_FLOOR = 1e-12


@dataclass(frozen=True)
class LocationEstimate:
    """A p-vector center plus its method tag and shrinkage metadata.

    ``median`` is the raw median the center was shrunk from, or the center
    itself when unshrunk.
    """

    center: np.ndarray
    median: np.ndarray
    method: str
    eta: float | None = None
    nu_mu: float | None = None


def ccm_median(data) -> LocationEstimate:
    """Component-wise median of the rows."""
    mu = np.median(as_data_matrix(data), axis=0)
    return LocationEstimate(center=mu, median=mu, method="ccm")


def _weiszfeld(X: np.ndarray) -> np.ndarray:
    # Euclidean geometric median with the standard handling of iterates
    # that land on data points.
    y = X.mean(axis=0)
    for _ in range(_WEISZFELD_MAX_ITER):
        diff = X - y
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        at_point = d < _NORM_FLOOR
        if at_point.all():
            return y
        d[at_point] = np.inf
        w = 1.0 / d
        t = (w @ X) / w.sum()
        if at_point.any():
            pull = np.linalg.norm(w @ diff)
            multiplicity = float(at_point.sum())
            if pull <= multiplicity:
                return y
            step = min(1.0, multiplicity / pull)
            t = (1.0 - step) * t + step * y
        if np.linalg.norm(t - y) <= _WEISZFELD_TOL * (1.0 + np.linalg.norm(y)):
            return t
        y = t
    return y


def l1_median(data, mode: str = "geometric") -> LocationEstimate:
    """Spatial (Euclidean L1) median of Vardi & Zhang, by Weiszfeld iteration.

    It minimizes the mean Euclidean distance to the rows. "geometric" is the
    only mode; the keyword stays for callers that pass it.
    """
    if mode != "geometric":
        raise ValueError(f"unknown mode {mode!r}")
    mu = _weiszfeld(as_data_matrix(data))
    return LocationEstimate(center=mu, median=mu, method="mm")


def sandwich_trace(data, center) -> float:
    """Variance proxy for the multivariate median from its asymptotics.

    Averages A(y) = (1/|y|)(I - y y'/|y|^2) and B(y) = y y'/|y|^2 over the
    centered observations, skipping near-zero norms, and returns
    trace((1/n) A^{-1} B A^{-1}) from one eigen-decomposition of A = V L V':
    with B = U'U/m over the m unit directions U, it is |U V L^{-1}|^2 / (m n).
    """
    X = as_data_matrix(data)
    n, p = X.shape
    c = _as_vector(center, p, "center")
    if n < p:
        raise ValueError("need at least as many observations as dimensions")
    Y = X - c
    norms = np.linalg.norm(Y, axis=1)
    keep = norms > _NORM_FLOOR
    m = int(keep.sum())
    if m == 0:
        raise ValueError("degenerate direction distribution")
    r = norms[keep]
    U = Y[keep]
    del Y
    U /= r[:, None]
    # A's eigenvalues lie in [0, s]; at p = 1 A is zero up to rounding.
    s = float(np.sum(1.0 / r)) / m
    lam, V = np.linalg.eigh(s * np.eye(p) - ((U / r[:, None]).T @ U) / m)
    if lam[0] <= 1e-12 * s:
        raise ValueError("degenerate direction distribution")
    W = U @ V
    W /= lam
    W *= W
    return float(np.sum(W)) / (m * n)


def _shrink_toward_common(mu: np.ndarray, numerator: float) -> tuple[np.ndarray, float, float]:
    """Pull mu's entries toward their mean nu; return the result, eta and nu.

    eta is numerator / |mu - nu|^2 clipped to [0, 1], or 1 on the target. The
    location shrinks a median's coordinates, and the scatter the comedian's eigenvalues.
    """
    nu = float(mu.mean())
    gap = mu - nu
    distance2 = float(gap @ gap)
    eta = 1.0 if distance2 <= _TARGET_FLOOR else min(max(numerator / distance2, 0.0), 1.0)
    return (1.0 - eta) * mu + eta * nu, eta, nu


def shrink_ccm(data) -> LocationEstimate:
    """Shrink the component-wise median toward an equal-coordinate vector.

    The intensity balances a variance proxy for the component-wise median
    (adjusted-comedian trace scaled by pi/2n) against the squared distance
    to the target nu * ones.
    """
    X = as_data_matrix(data)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    mu = np.median(X, axis=0)
    # The adjusted comedian's trace at mu from one n x p temporary, not the p x p matrix.
    Y = X - mu
    Y *= Y
    trace_S = float(np.sum(COMEDIAN_ADJUST * np.median(Y, axis=0, overwrite_input=True)))
    numerator = math.pi / (2.0 * n) * trace_S
    center, eta, nu = _shrink_toward_common(mu, numerator)
    return LocationEstimate(center=center, median=mu, method="shrink_ccm", eta=eta, nu_mu=nu)


def shrink_mm(data) -> LocationEstimate:
    """Shrink the spatial median toward an equal-coordinate vector."""
    X = as_data_matrix(data)
    mu = l1_median(X).center
    # At p = 1 the target is mu itself, so the intensity is pinned at 1 and
    # the sandwich, degenerate there, is not needed.
    numerator = sandwich_trace(X, mu) if X.shape[1] > 1 else 0.0
    center, eta, nu = _shrink_toward_common(mu, numerator)
    return LocationEstimate(center=center, median=mu, method="shrink_mm", eta=eta, nu_mu=nu)
