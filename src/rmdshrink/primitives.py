"""Order-statistic and matrix primitives the estimators are built from."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

# Variance adjustment for median-of-products scale estimates under
# normality: 1 / Phi^{-1}(3/4)^2, rounded to four significant figures.
COMEDIAN_ADJUST = 2.198

# Positive definite means: smallest eigenvalue > _EIGEN_RTOL * largest.
_EIGEN_RTOL = 1e-12

# Floats per product block in `comedian`: larger blocks fall out of cache.
_BLOCK_FLOATS = 2**18


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an n x p float matrix (rows are observations)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("data must be a nonempty 2-D array of shape (n, p)")
    if not np.isfinite(arr).all():
        raise ValueError("data contains NaN or infinite entries")
    return arr


def _as_vector(v, p: int, name: str) -> np.ndarray:
    """Validate and return a finite float vector of length p; ``name`` labels errors."""
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != p:
        raise ValueError(f"{name} length does not match number of columns")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def comedian(data, center) -> np.ndarray:
    """Entrywise median of cross products of centered columns.

    Entry (j, t) is the median over rows of
    (x[i, j] - center[j]) * (x[i, t] - center[t]). With the component-wise
    median as center, the diagonal reduces to squared MADs.
    """
    X = as_data_matrix(data)
    c = _as_vector(center, X.shape[1], "center")
    n, p = X.shape
    # Rows [a, b) of the upper triangle come from one product block of about
    # _BLOCK_FLOATS entries, written into one buffer reused by every block,
    # then are mirrored, so memory stays O(n*p + p*p) and each entry is the
    # median of the same sequence as the full product.
    Yt = np.empty((p, n))
    np.subtract(X.T, c[:, None], out=Yt)
    # A block is one row of n*(p - a) floats or fits in _BLOCK_FLOATS.
    buf = np.empty(min(n * p * p, max(_BLOCK_FLOATS, n * p)))
    # Each entry is one in-place selection at h = n // 2; for even n the lower
    # middle is the max of the lower half. np.median selects at h - 1, h and
    # -1 (a NaN check) on a copy, and a two-kth partition at (h - 1, h) is
    # not much faster: at p100/n2000 on one Xeon core the comedian took about
    # 210 ms through np.median, 200 ms with two kth and 50 ms with one kth and
    # a max. The `0.0 +` is np.mean's zero-started sum, so the result, signed
    # zeros included, is still the median bit for bit.
    h = n // 2
    S = np.empty((p, p))
    a = 0
    while a < p:
        b = min(p, a + max(1, _BLOCK_FLOATS // (n * (p - a))))
        P = buf[: (b - a) * (p - a) * n].reshape(b - a, p - a, n)
        np.multiply(Yt[a:b, None, :], Yt[None, a:, :], out=P)
        P.partition(h, axis=-1)
        if n % 2:
            S[a:b, a:] = 0.0 + P[..., h]
        else:
            S[a:b, a:] = (0.0 + P[..., :h].max(axis=-1) + P[..., h]) / 2
        S[a:, a:b] = S[a:b, a:].T
        a = b
    return S


def adjusted_comedian(data, center) -> np.ndarray:
    """Comedian scaled so diagonals estimate variances under normality."""
    return COMEDIAN_ADJUST * comedian(data, center)


def chi2_quantile(dof: int, prob: float) -> float:
    """Chi-squared quantile through the inverse regularized incomplete gamma."""
    # Not a bool, and in the float range: int() raises on nan and inf, and
    # dof / 2.0 overflows on an int past the range.
    bad = isinstance(dof, (bool, np.bool_)) or not 1 <= dof <= sys.float_info.max
    if bad or int(dof) != dof:
        raise ValueError("dof must be a positive integer")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return float(2.0 * gammaincinv(dof / 2.0, prob))


@dataclass(frozen=True)
class PDMatrix:
    """Symmetric positive-definite matrix with its eigen-decomposition, eigenvalues ascending.

    The three arrays are read-only and not shared with the caller, so the
    cached decomposition always matches ``entries``.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_symmetric(cls, entries) -> "PDMatrix":
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("expected a nonempty square matrix")
        if not np.isfinite(m).all():
            raise ValueError("matrix contains NaN or infinite entries")
        if not np.array_equal(m, m.T):
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * float(np.abs(m).max())):
                raise ValueError("matrix is not symmetric")
            m = 0.5 * (m + m.T)
        lam, V = np.linalg.eigh(m)
        if lam[0] <= _EIGEN_RTOL * lam[-1]:
            raise ValueError("matrix is not positive definite")
        for arr in (m, lam, V):
            arr.flags.writeable = False
        return cls(entries=m, eigenvalues=lam, eigenvectors=V)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def quad_form(m: PDMatrix, y) -> float:
    """Evaluate y' M^{-1} y as sum_j (v_j' y)^2 / lambda_j over the cached eigen-decomposition."""
    return float(quad_form_rows(m, np.asarray(y, dtype=float).reshape(1, -1))[0])


def quad_form_rows(m: PDMatrix, rows) -> np.ndarray:
    """quad_form applied to every row of a matrix at once, by one product R V."""
    R = np.asarray(rows, dtype=float)
    if R.ndim != 2 or R.shape[1] != m.dim:
        raise ValueError("row width does not match matrix dimension")
    if not np.isfinite(R).all():
        raise ValueError("rows contain NaN or infinite entries")
    Z = R @ m.eigenvectors
    Z *= Z
    return Z @ (1.0 / m.eigenvalues)
