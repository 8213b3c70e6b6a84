"""Robust Mahalanobis outlier detection built on shrinkage estimators.

Six detector variants combine robust centers (component-wise median,
spatial L1 median, and shrunk versions of both) with a shrunk comedian
scatter matrix.
Squared distances are compared against a chi-squared quantile. A seeded
Monte Carlo harness reproduces contamination experiments, and a depth-based
multivariate boxplot summarizes detections on real tables.
"""

from .depth import BoxplotSummary, boxplot_summary, l1_depth
from .detector import DEFAULT_QUANTILE, DetectionReport, detect, rmd_squared
from .location import (
    LocationEstimate,
    ccm_median,
    l1_median,
    sandwich_trace,
    shrink_ccm,
    shrink_mm,
)
from .primitives import (
    COMEDIAN_ADJUST,
    PDMatrix,
    adjusted_comedian,
    as_data_matrix,
    chi2_quantile,
    comedian,
    quad_form,
    quad_form_rows,
)
from .scatter import VARIANTS, ScatterEstimate, scatter_for_variant, shrink_scatter
from .simulate import (
    FAMILIES,
    MetricsReport,
    ScenarioSpec,
    correlation_matrix,
    generate,
    metrics,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BoxplotSummary",
    "COMEDIAN_ADJUST",
    "DEFAULT_QUANTILE",
    "DetectionReport",
    "FAMILIES",
    "LocationEstimate",
    "MetricsReport",
    "PDMatrix",
    "ScatterEstimate",
    "ScenarioSpec",
    "VARIANTS",
    "adjusted_comedian",
    "as_data_matrix",
    "boxplot_summary",
    "ccm_median",
    "chi2_quantile",
    "comedian",
    "correlation_matrix",
    "detect",
    "generate",
    "l1_depth",
    "l1_median",
    "metrics",
    "quad_form",
    "quad_form_rows",
    "rmd_squared",
    "run_scenario",
    "sandwich_trace",
    "scatter_for_variant",
    "shrink_ccm",
    "shrink_mm",
    "shrink_scatter",
]
