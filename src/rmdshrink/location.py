"""Robust multivariate location estimators and their shrinkage versions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import COMEDIAN_ADJUST, as_data_matrix

# Norm floor below which a centered observation carries no direction
# information and is skipped by the sandwich averages.
_NORM_FLOOR = 1e-12

# Denominator floor: the raw estimator already sits on its shrinkage
# target, so the intensity is immaterial and pinned at 1.
_TARGET_FLOOR = 1e-12


@dataclass(frozen=True)
class LocationEstimate:
    """A p-vector center plus its method tag and shrinkage metadata."""

    center: np.ndarray
    method: str
    eta: float | None = None
    nu_mu: float | None = None


def ccm_median(data) -> LocationEstimate:
    """Component-wise median of the rows."""
    X = as_data_matrix(data)
    return LocationEstimate(center=np.median(X, axis=0), method="ccm")


def _weiszfeld(X: np.ndarray, tol: float = 1e-10, max_iter: int = 500) -> np.ndarray:
    # Euclidean geometric median with the standard handling of iterates
    # that land on data points.
    y = X.mean(axis=0)
    for _ in range(max_iter):
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
        if np.linalg.norm(t - y) <= tol * (1.0 + np.linalg.norm(y)):
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
    return LocationEstimate(center=_weiszfeld(as_data_matrix(data)), method="mm")


def sandwich_trace(data, center) -> float:
    """Variance proxy for the multivariate median from its asymptotics.

    Averages A(y) = (1/|y|)(I - y y'/|y|^2) and B(y) = y y'/|y|^2 over the
    centered observations, skipping near-zero norms, and returns
    trace((1/n) A^{-1} B A^{-1}).
    """
    X = as_data_matrix(data)
    c = np.asarray(center, dtype=float).ravel()
    n, p = X.shape
    if c.shape[0] != p:
        raise ValueError("center length does not match number of columns")
    if n < p:
        raise ValueError("need at least as many observations as dimensions")
    Y = X - c
    norms = np.linalg.norm(Y, axis=1)
    keep = norms > _NORM_FLOOR
    m = int(keep.sum())
    if m == 0:
        raise ValueError("degenerate direction distribution")
    Yk = Y[keep]
    r = norms[keep]
    U = Yk / r[:, None]
    B = (U.T @ U) / m
    A = (np.sum(1.0 / r) * np.eye(p) - (Yk / r[:, None] ** 3).T @ Yk) / m
    if np.linalg.cond(A) > 1e12:
        raise ValueError("degenerate direction distribution")
    half = np.linalg.solve(A, B)
    inner = np.linalg.solve(A, half.T)
    return float(np.trace(inner)) / n


def _shrink_toward_common(mu: np.ndarray, numerator: float) -> tuple[np.ndarray, float, float]:
    nu = float(mu.mean())
    gap = mu - nu
    denom = float(gap @ gap)
    if denom <= _TARGET_FLOOR:
        eta = 1.0
    else:
        eta = min(max(numerator / denom, 0.0), 1.0)
    return (1.0 - eta) * mu + eta * nu, eta, nu


def _shrink_ccm_at(X: np.ndarray, mu: np.ndarray) -> LocationEstimate:
    # Shrink an already computed component-wise median mu of the rows of X.
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    # The trace of the adjusted comedian at mu, without building the p x p matrix.
    Y = X - mu
    trace_S = float(np.sum(COMEDIAN_ADJUST * np.median(Y * Y, axis=0)))
    numerator = math.pi / (2.0 * n) * trace_S
    center, eta, nu = _shrink_toward_common(mu, numerator)
    return LocationEstimate(center=center, method="shrink_ccm", eta=eta, nu_mu=nu)


def shrink_ccm(data) -> LocationEstimate:
    """Shrink the component-wise median toward an equal-coordinate vector.

    The intensity balances a variance proxy for the component-wise median
    (adjusted-comedian trace scaled by pi/2n) against the squared distance
    to the target nu * ones.
    """
    X = as_data_matrix(data)
    return _shrink_ccm_at(X, np.median(X, axis=0))


def _shrink_mm_at(X: np.ndarray, mu: np.ndarray) -> LocationEstimate:
    # Shrink an already computed spatial median mu of the rows of X.
    numerator = sandwich_trace(X, mu)
    center, eta, nu = _shrink_toward_common(mu, numerator)
    return LocationEstimate(center=center, method="shrink_mm", eta=eta, nu_mu=nu)


def shrink_mm(data) -> LocationEstimate:
    """Shrink the spatial median toward an equal-coordinate vector."""
    X = as_data_matrix(data)
    return _shrink_mm_at(X, l1_median(X).center)
