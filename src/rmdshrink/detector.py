"""Robust Mahalanobis distances, thresholding, and outlier flags."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .location import LocationEstimate
from .primitives import _as_vector, as_data_matrix, chi2_quantile, quad_form_rows
from .scatter import ScatterEstimate, scatter_for_variant

DEFAULT_QUANTILE = 0.975


@dataclass(frozen=True)
class DetectionReport:
    """Per-observation squared distances, the threshold, and the flags."""

    variant: str
    quantile: float
    threshold: float
    d2: np.ndarray
    flags: np.ndarray
    eta_location: float | None
    eta_scatter: float


def rmd_squared(data, loc: LocationEstimate, scat: ScatterEstimate) -> np.ndarray:
    """Squared robust Mahalanobis distance of every row."""
    X = as_data_matrix(data)
    center = _as_vector(loc.center, X.shape[1], "center")
    return quad_form_rows(scat.matrix, X - center)


def detect(data, variant: str = "v6", quantile: float = DEFAULT_QUANTILE) -> DetectionReport:
    """Flag rows whose squared distance exceeds the chi-squared quantile."""
    X = as_data_matrix(data)
    n, p = X.shape
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    if n <= p:
        raise ValueError(f"need more observations than dimensions, got n = {n}, p = {p}")
    loc, scat = scatter_for_variant(X, variant)
    d2 = rmd_squared(X, loc, scat)
    threshold = chi2_quantile(p, quantile)
    return DetectionReport(
        variant=variant,
        quantile=quantile,
        threshold=threshold,
        d2=d2,
        flags=d2 > threshold,
        eta_location=loc.eta,
        eta_scatter=scat.eta,
    )
