"""Growth rate of one frequency as the top root of a quadratic eigenproblem.

alpha(s), the smallest eigenvalue of (|xi|^2 E0 + s E1, J), is nondecreasing
in s, so g(s) = s^2 + alpha(s) has at most one positive root s* =
sqrt(-alpha(s*)), the growth rate.  g(s) > 0 exactly when T(s) = |xi|^2 E0 +
s E1 + s^2 J is positive definite, so one banded Cholesky of T(s) tells on
which side of s* a trial s lies.  By the minimax principle of overdamped
pencils (Duffin; Voss, Numer. Linear Algebra Appl. 16 (2009); Tisseur &
Meerbergen, SIAM Review 43 (2001)), s* = max over psi of the Rayleigh
functional p(psi), the positive root of psi^T T(s) psi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import EigenPair, _inverse_steps, _solve_shifted, definite
from .eig import min_generalized_eig
from .errors import BracketFailure
from .forms import FormSet
from .operators import band_combine, band_matvec

__all__ = ["GrowthResult", "alpha", "growth_rate"]

_START_RATIO = 1.2  # hi / lo of the Cholesky bracket the iteration starts in
_RFI_STEPS = 6
_FLOOR = 4.0  # the iteration's residual floor, in units of eps |T(p)| |psi|


@dataclass
class GrowthResult:
    """Certified rate at one frequency, with the forms it was solved on.

    s_star = p(psi); lam = sqrt(-alpha_at_s), alpha_at_s = psi^T (|xi|^2 E0 +
    s_star E1) psi for J-normalized psi, so lam = s_star to rounding.  The
    rate lies within bracket_width of s_star; T(s_frontier) is positive
    definite, so no rate of the frequency reaches s_frontier."""

    forms: FormSet
    lam: float
    s_star: float
    alpha_at_s: float
    psi: EigenPair
    bracket_width: float
    s_frontier: float


def alpha(
    forms: FormSet, s: float, start: np.ndarray | None = None
) -> tuple[float, EigenPair]:
    """Smallest eigenvalue of (|xi|^2 E0 + s E1, J) and its J-normalized vector.

    start, typically the vector of a nearby s, warm-starts the eigen-solve.
    """
    if s < 0:
        raise ValueError("the viscosity parameter s must be >= 0")
    pair = min_generalized_eig(forms.energy(s), forms.j, start=start)
    return pair.value, pair


def _above(forms: FormSet, s: float) -> bool:
    """True iff T(s) is positive definite, i.e. s lies above the rate."""
    return definite(forms.energy(s), forms.j, -s * s)


def _bisect(forms: FormSet, lo: float, hi: float, done) -> tuple[float, float]:
    """Halve [lo, hi] (T(lo) not positive definite, T(hi) positive definite)
    at the geometric mean while hi > 2 lo > 0, until done(lo, hi)."""
    while not done(lo, hi):
        mid = math.sqrt(lo * hi) if 0.0 < 2.0 * lo < hi else 0.5 * (lo + hi)
        if _above(forms, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _rayleigh_functional(forms: FormSet, psi: np.ndarray, steps: int):
    """Up to `steps` steps psi <- T(p)^-1 T'(p) psi, J-normalized, with p = p(psi)
    the positive root of a p^2 + b p + c, (a, b, c) = psi^T (J, E1, |xi|^2 E0)
    psi (0 if c >= 0), until r = T(p) psi is at its floor.  Returns p, the pair
    of alpha(p) = (c + p b) / a (psi, largest entry positive, |r| / |J psi|, the
    solves, |r| |psi|) and the eigen noise |r| |psi| / psi^T T'(p) psi of p."""
    xi2, eps = forms.xi.norm2, np.finfo(float).eps
    for solves in range(steps + 1):
        j_psi, e1_psi = band_matvec(forms.j, psi), band_matvec(forms.e1, psi)
        e0_psi = xi2 * band_matvec(forms.e0, psi)
        a, b, c = (float(psi @ v) for v in (j_psi, e1_psi, e0_psi))
        p = -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c)) if c < 0.0 else 0.0
        r = float(np.linalg.norm(e0_psi + p * e1_psi + p * p * j_psi))
        norm = float(np.linalg.norm(psi))
        t = band_combine([(xi2, forms.e0), (p, forms.e1), (p * p, forms.j)])
        if solves == steps or r <= _FLOOR * eps * np.max(np.abs(t)) * norm:
            break
        try:
            psi = _solve_shifted(t, forms.j, 0.0, e1_psi + 2.0 * p * j_psi)
        except np.linalg.LinAlgError:  # T(p) is exactly singular: psi is exact
            break
        psi = psi / math.sqrt(float(psi @ band_matvec(forms.j, psi)))
    vec = psi if psi[np.argmax(np.abs(psi))] > 0 else -psi
    pair = EigenPair((c + p * b) / a, vec, r / np.linalg.norm(j_psi), solves, r * norm)
    return p, pair, r * norm / (b + 2.0 * p * a)


def growth_rate(
    forms: FormSet,
    tol: float = 1e-8,
    s_lo: float | None = None,
    s_hi: float | None = None,
) -> GrowthResult | None:
    """The largest positive root of T, certified to max(tol * max(1, rate),
    the eigen noise of psi).

    Cholesky tests bisect [s_lo, s_hi] to hi / lo <= 1.2; two inverse steps
    with T(lo) from the constant vector start Rayleigh-functional iteration
    (cubic) to its residual floor.  T(p + delta) positive definite and
    T(p - delta > lo) not, delta = max(tol/2 max(1, p), eigen noise), certify
    p; otherwise (a lower root) the Cholesky bracket is bisected to
    tol * max(1, lo) and psi is one warm alpha solve at its lower end.
    None if T(s_lo) is positive definite (no rate above s_lo); the default
    [1e-8, 1] * sqrt(g sup drho/rho) provably holds any root, and T(s_hi)
    not positive definite raises BracketFailure.
    """
    cap = float(np.sqrt(forms.params.g * forms.profile.sup_ratio))
    s_hi = cap if s_hi is None else s_hi
    s_lo = 1e-8 * s_hi if s_lo is None else s_lo
    if _above(forms, s_lo):
        return None
    if not _above(forms, s_hi):
        raise BracketFailure(
            f"T(s_hi) is not positive definite at s_hi = {s_hi:.6g}: a rate above "
            "the sup-ratio bound indicates an inconsistent discretization"
        )

    lo, hi = _bisect(forms, s_lo, s_hi, lambda lo, hi: hi <= _START_RATIO * lo)
    one = np.full(forms.grid.n, 1.0 / math.sqrt(forms.grid.n))
    start, _, inverse = _inverse_steps(
        forms.energy(lo), forms.j, -lo * lo, one, band_matvec(forms.j, one), 2
    )
    p, pair, noise = _rayleigh_functional(forms, start, _RFI_STEPS)
    pair.iterations += inverse
    delta = max(0.5 * tol * max(1.0, p), noise)
    below, above = p - delta, p + delta
    if lo < below and _above(forms, above) and not _above(forms, below):
        lo, hi = below, above
    else:
        lo, hi = _bisect(forms, lo, hi, lambda lo, hi: hi - lo <= tol * max(1.0, lo))
        _, warm = alpha(forms, lo, start=pair.vec)
        p, pair, _ = _rayleigh_functional(forms, warm.vec, 0)

    lam = float(np.sqrt(max(-pair.value, 0.0)))
    if lam <= tol:
        return None
    return GrowthResult(
        forms, lam, s_star=p, alpha_at_s=pair.value, psi=pair,
        bracket_width=max(hi - p, p - lo), s_frontier=hi,
    )
