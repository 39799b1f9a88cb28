"""Finite-difference operators and symmetric banded matrix utilities.

Symmetric banded matrices are stored LAPACK lower style: ab[d, j] = A[j+d, j]
for offsets d = 0..p, so ab has shape (p+1, n).  Quadratic forms are built as
Gram products O^T W O of banded stencils with positive diagonal weights,
which makes their symmetry and semidefiniteness structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import Grid1D

__all__ = [
    "DiffOps",
    "band_zeros",
    "band_combine",
    "band_to_dense",
    "band_matvec",
    "band_to_lu",
    "Stencil",
    "stencil_gram",
    "mass_band",
    "grad_stiffness_band",
    "d1_gram_band",
    "d2_gram_band",
    "composite_gram_band",
    "gradient_stencil",
    "d1_stencil",
    "d2_stencil",
]


# --- pointwise operators (zero ghost values beyond the boundary nodes) ------


def d1_apply(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order central first derivative; ghosts outside [-Lz, Lz] are 0."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = v[1] / (2.0 * h)
    out[-1] = -v[-2] / (2.0 * h)
    return out


def d2_apply(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order central second derivative with zero ghosts."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = (v[1] - 2.0 * v[0]) / (h * h)
    out[-1] = (v[-2] - 2.0 * v[-1]) / (h * h)
    return out


def d1_free_apply(v: np.ndarray, h: float) -> np.ndarray:
    """Central first derivative, one-sided second order at the two end rows.

    Used for fields that are not pinned to zero at the truncation boundary.
    """
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


@dataclass(frozen=True)
class DiffOps:
    """Derivative operators bound to one grid."""

    grid: Grid1D

    def d1(self, v: np.ndarray) -> np.ndarray:
        return d1_apply(v, self.grid.h)

    def d2(self, v: np.ndarray) -> np.ndarray:
        return d2_apply(v, self.grid.h)

    def d1_free(self, v: np.ndarray) -> np.ndarray:
        return d1_free_apply(v, self.grid.h)


# --- symmetric banded storage ------------------------------------------------


def band_zeros(p: int, n: int) -> np.ndarray:
    return np.zeros((p + 1, n))


def band_combine(terms: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Linear combination sum(c * ab) with automatic band alignment."""
    p = max(ab.shape[0] for _, ab in terms) - 1
    n = terms[0][1].shape[1]
    out = np.zeros((p + 1, n))
    for c, ab in terms:
        out[: ab.shape[0]] += c * ab
    return out


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    p1, n = ab.shape
    a = np.zeros((n, n))
    for d in range(p1):
        idx = np.arange(n - d)
        a[idx + d, idx] = ab[d, : n - d]
        a[idx, idx + d] = ab[d, : n - d]
    return a


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    p1, n = ab.shape
    y = ab[0] * x
    for d in range(1, p1):
        y[d:] += ab[d, : n - d] * x[: n - d]
        y[: n - d] += ab[d, : n - d] * x[d:]
    return y


def band_to_lu(ab: np.ndarray) -> tuple[tuple[int, int], np.ndarray]:
    """Expand symmetric storage to the (l, u) layout of scipy.solve_banded."""
    p1, n = ab.shape
    p = p1 - 1
    full = np.zeros((2 * p + 1, n))
    full[p] = ab[0]
    for d in range(1, p1):
        full[p + d, : n - d] = ab[d, : n - d]   # subdiagonal d
        full[p - d, d:] = ab[d, : n - d]        # superdiagonal d
    return (p, p), full


# --- banded stencils and Gram products ---------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Banded linear map from n grid values to m row values.

    Row k has entries coeffs[o][k] at column k + offsets[o]; entries whose
    column falls outside 0..n-1 act on implicit zero boundary values.
    """

    offsets: tuple[int, ...]
    coeffs: tuple[np.ndarray, ...]
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.coeffs[0])

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_rows, dtype=np.result_type(v, float))
        for o, c in zip(self.offsets, self.coeffs):
            k_lo = max(0, -o)
            k_hi = min(self.n_rows, self.n_cols - o)
            if k_hi > k_lo:
                out[k_lo:k_hi] += c[k_lo:k_hi] * v[k_lo + o : k_hi + o]
        return out


def stencil_gram(st: Stencil, weights: np.ndarray) -> np.ndarray:
    """Symmetric band O^T diag(w) O for a banded stencil O."""
    n = st.n_cols
    m = st.n_rows
    p = max(st.offsets) - min(st.offsets)
    out = band_zeros(p, n)
    for o1, c1 in zip(st.offsets, st.coeffs):
        for o2, c2 in zip(st.offsets, st.coeffs):
            d = o2 - o1
            if d < 0:
                continue
            # rows k contributing to entry (k+o1, k+o2); keep both cols valid
            k_lo = max(0, -o1, -o2)
            k_hi = min(m, n - o1, n - o2)
            if k_hi > k_lo:
                rows = slice(k_lo, k_hi)
                out[d, k_lo + o1 : k_hi + o1] += (
                    weights[rows] * c1[rows] * c2[rows]
                )
    return out


def gradient_stencil(grid: Grid1D) -> Stencil:
    """Two-point gradient onto the n+1 midpoints (zero boundary values)."""
    n = grid.n
    h = grid.h
    c0 = np.full(n + 1, 1.0 / h)   # column k
    cm = np.full(n + 1, -1.0 / h)  # column k-1
    return Stencil(offsets=(-1, 0), coeffs=(cm, c0), n_cols=n)


def d1_stencil(grid: Grid1D) -> Stencil:
    n = grid.n
    h = grid.h
    c = np.full(n, 1.0 / (2.0 * h))
    return Stencil(offsets=(-1, 1), coeffs=(-c, c), n_cols=n)


def d2_stencil(grid: Grid1D) -> Stencil:
    n = grid.n
    h2 = grid.h * grid.h
    return Stencil(
        offsets=(-1, 0, 1),
        coeffs=(np.full(n, 1.0 / h2), np.full(n, -2.0 / h2), np.full(n, 1.0 / h2)),
        n_cols=n,
    )


def composite_stencil(grid: Grid1D, xi2: float) -> Stencil:
    """|xi|^2 I + D2 as one stencil (sum-of-squares core of the viscous form)."""
    n = grid.n
    h2 = grid.h * grid.h
    return Stencil(
        offsets=(-1, 0, 1),
        coeffs=(
            np.full(n, 1.0 / h2),
            np.full(n, xi2 - 2.0 / h2),
            np.full(n, 1.0 / h2),
        ),
        n_cols=n,
    )


def mass_band(grid: Grid1D, q: np.ndarray | float = 1.0) -> np.ndarray:
    """Trapezoid-weighted mass form int q psi^2 as a diagonal band."""
    out = band_zeros(0, grid.n)
    out[0] = grid.h * (q if np.ndim(q) else float(q))
    return out


def grad_stiffness_band(grid: Grid1D, q_mid: np.ndarray | float = 1.0) -> np.ndarray:
    """int q |psi'|^2 from the midpoint gradient; positive definite."""
    w = grid.h * (q_mid if np.ndim(q_mid) else np.full(grid.n + 1, float(q_mid)))
    return stencil_gram(gradient_stencil(grid), w)


def d1_gram_band(grid: Grid1D) -> np.ndarray:
    """int |psi'|^2 from the central difference D1 (positive semidefinite)."""
    w = np.full(grid.n, grid.h)
    return stencil_gram(d1_stencil(grid), w)


def d2_gram_band(grid: Grid1D) -> np.ndarray:
    """int |psi''|^2 from D2 with clamped (zero ghost) boundary."""
    w = np.full(grid.n, grid.h)
    return stencil_gram(d2_stencil(grid), w)


def composite_gram_band(grid: Grid1D, xi2: float) -> np.ndarray:
    """int ||xi|^2 psi + psi''|^2, assembled from the composite operator."""
    w = np.full(grid.n, grid.h)
    return stencil_gram(composite_stencil(grid, xi2), w)
