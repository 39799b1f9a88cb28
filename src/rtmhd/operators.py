"""Finite-difference stencils and symmetric banded matrix utilities.

Every difference operator is one ``Stencil`` with three views of the same
coefficients: ``apply`` (pointwise), ``gram`` (the band O^T W O) and
``sparse`` (CSR).  Stencils add, scale and multiply as the matrices they
stand for.  A block operator (``Blocks``) maps block places to stencils; it
composes and combines blockwise, ``block_apply`` applies it pointwise and
``block_sparse`` assembles it as one CSR.
Symmetric banded matrices are stored LAPACK lower style:
ab[d, j] = A[j+d, j] for offsets d = 0..p, so ab has shape (p+1, n).
Quadratic forms are Gram products with positive diagonal weights, which
makes their symmetry and semidefiniteness structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .profiles import Grid1D

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "band_zeros",
    "band_combine",
    "band_to_dense",
    "band_matvec",
    "band_to_lu",
    "Stencil",
    "diagonal_stencil",
    "Blocks",
    "block_compose",
    "block_combine",
    "block_apply",
    "block_sparse",
    "mass_band",
    "grad_stiffness_band",
    "gradient_stencil",
    "d1_stencil",
    "d1_free_stencil",
    "d2_stencil",
]


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


def band_to_lu(ab: np.ndarray) -> np.ndarray:
    """Expand symmetric storage to the general band layout of LAPACK dgbsv.

    With kl = ku = p, out[2p + i - j, j] = A[i, j]; the top p rows are the
    workspace dgbsv fills in while it pivots.  Fortran order, so dgbsv
    factors it in place.
    """
    p1, n = ab.shape
    p = p1 - 1
    out = np.zeros((3 * p + 1, n), order="F")
    out[2 * p] = ab[0]
    for d in range(1, p1):
        out[2 * p + d, : n - d] = ab[d, : n - d]   # subdiagonal d
        out[2 * p - d, d:] = ab[d, : n - d]        # superdiagonal d
    return out


# --- banded stencils ----------------------------------------------------------


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
        # with the largest coefficient divided out, neighbouring values are
        # combined before 1/h^k scales them (roundoff |dv|/h^k, not |v|/h^k)
        out = np.zeros(self.n_rows, dtype=np.result_type(v, *self.coeffs, float))
        scale = max(np.abs(c).max() for c in self.coeffs)
        if scale == 0.0:
            return out
        for o, c in zip(self.offsets, self.coeffs):
            k_lo = max(0, -o)
            k_hi = min(self.n_rows, self.n_cols - o)
            if k_hi > k_lo:
                out[k_lo:k_hi] += (c[k_lo:k_hi] / scale) * v[k_lo + o : k_hi + o]
        return scale * out

    def gram(self, weights: np.ndarray) -> np.ndarray:
        """Symmetric band O^T diag(w) O."""
        n = self.n_cols
        m = self.n_rows
        p = max(self.offsets) - min(self.offsets)
        out = band_zeros(p, n)
        for o1, c1 in zip(self.offsets, self.coeffs):
            for o2, c2 in zip(self.offsets, self.coeffs):
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

    def __add__(self, other: "Stencil") -> "Stencil":
        terms = dict(zip(self.offsets, self.coeffs))
        for o, c in zip(other.offsets, other.coeffs):
            terms[o] = terms[o] + c if o in terms else c
        return Stencil(tuple(terms), tuple(terms.values()), self.n_cols)

    def __rmul__(self, a: complex) -> "Stencil":
        return Stencil(self.offsets, tuple(a * c for c in self.coeffs), self.n_cols)

    def __matmul__(self, other: "Stencil") -> "Stencil":
        """The product of the two matrices: self's entries on boundary values
        meet no row of ``other`` and drop out, as in ``sparse()``."""
        terms: dict[int, np.ndarray] = {}
        for o1, c1 in zip(self.offsets, self.coeffs):
            k_lo, k_hi = max(0, -o1), min(self.n_rows, other.n_rows - o1)
            for o2, c2 in zip(other.offsets, other.coeffs):
                c = np.zeros(self.n_rows, dtype=np.result_type(c1, c2))
                c[k_lo:k_hi] = c1[k_lo:k_hi] * c2[k_lo + o1 : k_hi + o1]
                o = o1 + o2
                terms[o] = terms[o] + c if o in terms else c
        return Stencil(tuple(terms), tuple(terms.values()), other.n_cols)

    def sparse(self) -> sp.csr_matrix:
        """The m x n matrix; entries on boundary values and zeros are dropped."""
        return block_sparse({(0, 0): self}, (1, 1))


def diagonal_stencil(values: np.ndarray) -> Stencil:
    """The diagonal matrix diag(values)."""
    return Stencil((0,), (values,), len(values))


Blocks = dict[tuple[int, int], Stencil]  # (block row, block column) -> m x n


def block_compose(a: Blocks, b: Blocks) -> Blocks:
    """Product of two block operators."""
    out: Blocks = {}
    for (i, m), x in a.items():
        for (m2, j), y in b.items():
            if m == m2:
                out[i, j] = out[i, j] + x @ y if (i, j) in out else x @ y
    return out


def block_combine(*terms: tuple[complex, Blocks]) -> Blocks:
    """Linear combination of block operators."""
    out: Blocks = {}
    for w, blocks in terms:
        for ij, st in blocks.items():
            out[ij] = out[ij] + w * st if ij in out else w * st
    return out


def block_apply(blocks: Blocks, v: np.ndarray) -> np.ndarray:
    """A square block operator applied pointwise to the profiles v[j]."""
    out = np.zeros(v.shape, dtype=complex)
    for (i, j), st in blocks.items():
        out[i] += st.apply(v[j])
    return out


def block_sparse(blocks: Blocks, shape: tuple[int, int]) -> sp.csr_matrix:
    """Block matrix of m x n stencils in one CSR assembly.

    ``blocks`` maps (block row, block column) to a stencil; ``shape`` counts
    blocks, and absent blocks are zero.  Entries on boundary values and zeros
    are dropped.  ``scipy.sparse`` is imported here, on first use.
    """
    import scipy.sparse as sp

    first = next(iter(blocks.values()))
    m, n = first.n_rows, first.n_cols
    rows, cols, vals = [], [], []
    for (i, j), st in blocks.items():
        for o, c in zip(st.offsets, st.coeffs):
            k = np.arange(max(0, -o), min(m, n - o))
            rows.append(i * m + k)
            cols.append(j * n + k + o)
            vals.append(c[k])
    out = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(shape[0] * m, shape[1] * n),
    )
    out.eliminate_zeros()
    return out


def _uniform(n_rows: int, n_cols: int, coeffs: dict[int, float]) -> Stencil:
    """Stencil with the same coefficient at each offset on every row."""
    return Stencil(
        offsets=tuple(coeffs),
        coeffs=tuple(np.full(n_rows, c) for c in coeffs.values()),
        n_cols=n_cols,
    )


def gradient_stencil(grid: Grid1D) -> Stencil:
    """Two-point gradient onto the n+1 midpoints (zero boundary values)."""
    c = 1.0 / grid.h
    return _uniform(grid.n + 1, grid.n, {-1: -c, 0: c})


def d1_stencil(grid: Grid1D) -> Stencil:
    """Second-order central first derivative (zero boundary values)."""
    c = 1.0 / (2.0 * grid.h)
    return _uniform(grid.n, grid.n, {-1: -c, 1: c})


def d1_free_stencil(grid: Grid1D) -> Stencil:
    """Central first derivative, one-sided second order at the two end rows.

    Used for fields that are not pinned to zero at the truncation boundary.
    """
    rows = np.zeros((5, grid.n))  # offsets -2..2, in units of 1/(2h)
    rows[1], rows[3] = -1.0, 1.0
    rows[2:, 0] = (-3.0, 4.0, -1.0)
    rows[:3, -1] = (1.0, -4.0, 3.0)
    c = 1.0 / (2.0 * grid.h)
    return Stencil((-2, -1, 0, 1, 2), tuple(c * rows), grid.n)


def d2_stencil(grid: Grid1D) -> Stencil:
    """Second-order central second derivative (zero boundary values)."""
    c = 1.0 / (grid.h * grid.h)
    return _uniform(grid.n, grid.n, {-1: c, 0: -2.0 * c, 1: c})


def mass_band(grid: Grid1D, q: np.ndarray | float = 1.0) -> np.ndarray:
    """Trapezoid-weighted mass form int q psi^2 as a diagonal band."""
    out = band_zeros(0, grid.n)
    out[0] = grid.h * (q if np.ndim(q) else float(q))
    return out


def grad_stiffness_band(grid: Grid1D, q_mid: np.ndarray | float = 1.0) -> np.ndarray:
    """int q |psi'|^2 from the midpoint gradient; positive definite."""
    w = grid.h * (q_mid if np.ndim(q_mid) else np.full(grid.n + 1, float(q_mid)))
    return gradient_stencil(grid).gram(w)
