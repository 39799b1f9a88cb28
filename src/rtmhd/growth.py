"""Growth rate of one frequency as the top root of a quadratic eigenproblem.

The rate s* is the fixed point s = sqrt(-alpha(s)) of the modified
variational problem, alpha(s) the smallest eigenvalue of (|xi|^2 E0 + s E1,
J).  alpha is nondecreasing in s, so g(s) = s^2 + alpha(s) has at most one
positive root, and g(s) > 0 exactly when T(s) = |xi|^2 E0 + s E1 + s^2 J is
positive definite: s* is the largest root of T, which ``eig.top_root``
finds and certifies with banded Cholesky tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import EigenPair, top_root
from .forms import FormSet
from .operators import band_combine, band_matvec

__all__ = ["GrowthResult", "growth_rate"]


@dataclass
class GrowthResult:
    """Certified rate at one frequency, with the forms it was solved on.

    s_star = psi.value, the root of T; lam = sqrt(-alpha_at_s), alpha_at_s =
    psi^T (|xi|^2 E0 + s_star E1) psi for the J-normalized psi.vec, so lam =
    s_star to rounding.  The rate lies within bracket_width of s_star;
    T(s_frontier) is positive definite, so no rate of the frequency reaches
    s_frontier."""

    forms: FormSet
    lam: float
    s_star: float
    alpha_at_s: float
    psi: EigenPair
    bracket_width: float
    s_frontier: float


def growth_rate(
    forms: FormSet,
    tol: float = 1e-8,
    s_lo: float | None = None,
    s_hi: float | None = None,
) -> GrowthResult | None:
    """The largest positive root of T, certified by ``eig.top_root`` on
    (|xi|^2 E0, E1, J) with metric J inside [s_lo, s_hi], to tol/2 *
    max(1, rate), or to within 2 noise of a tol-wide Cholesky bracket where
    the noise exceeds that: bracket_width.

    None if T(s_lo) is positive definite (no rate above s_lo) or the rate is
    at most tol; the default [1e-8, 1] * sqrt(g sup drho/rho) provably holds
    any root, and T(s_hi) not positive definite raises BracketFailure.
    """
    if s_hi is None:
        s_hi = float(np.sqrt(forms.params.g * forms.profile.sup_ratio))
    s_lo = 1e-8 * s_hi if s_lo is None else s_lo
    c0 = band_combine([(forms.xi.norm2, forms.e0)])
    pair = top_root((c0, forms.e1, forms.j), forms.j, s_lo, s_hi, tol=tol)
    if pair is None:
        return None
    p, psi = pair.value, pair.vec
    c, b, a = (float(psi @ band_matvec(m, psi)) for m in (c0, forms.e1, forms.j))
    alpha = (c + p * b) / a
    lam = float(np.sqrt(max(-alpha, 0.0)))
    if lam <= tol:
        return None
    lo, hi = pair.bracket
    return GrowthResult(
        forms, lam, s_star=p, alpha_at_s=alpha, psi=pair,
        bracket_width=max(hi - p, p - lo), s_frontier=hi,
    )
