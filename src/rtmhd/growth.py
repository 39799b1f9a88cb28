"""Growth rate of one frequency via the parameterized eigenvalue fixed point.

alpha(s) is the smallest eigenvalue of the pencil (|xi|^2 E0 + s E1, J); it is
nondecreasing in s, so g(s) = s^2 + alpha(s) is strictly increasing and has
at most one positive root.  The root s* satisfies s* = lambda(s*) =
sqrt(-alpha(s*)) and is the physical growth rate of the frequency.  It is
found by Newton's method on g: the J-normalized eigenvector psi of alpha(s)
gives g'(s) = 2 s + psi^T E1 psi for free (Hellmann-Feynman), and psi warm
starts the eigen-solve at the next iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import EigenPair, min_generalized_eig
from .errors import BracketFailure
from .forms import FormSet
from .operators import band_matvec

__all__ = ["GrowthResult", "alpha", "growth_rate"]

_MAX_STEPS = 100


@dataclass
class GrowthResult:
    """Fixed-point solution at one frequency, with the forms it was solved on."""

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


def growth_rate(
    forms: FormSet,
    tol: float = 1e-8,
    s_lo: float | None = None,
    s_hi: float | None = None,
) -> GrowthResult | None:
    """Solve s = sqrt(-alpha(s)) by Newton's method on g(s) = s^2 + alpha(s).

    The iteration keeps a sign bracket of g; a Newton iterate that leaves it
    is replaced by the bracket midpoint.  Once an iterate s_star has
    |s_star - lambda(s_star)| within tol/2 (or the eigenvalue noise floor),
    one evaluation tol/2 beyond it in the direction of the Newton step must
    show g changing sign; if it does not, bisection takes over until the
    bracket is within tol.  s_star, lambda = sqrt(-alpha(s_star)) and psi
    all come from the evaluation at s_star.

    Returns None when the frequency admits no growing mode (alpha >= 0 at the
    bottom of the bracket).  The default bracket is [1e-8, 1] * sqrt(g * r)
    with r = sup drho/rho, which provably contains any root.
    """
    g = forms.params.g
    rate_cap = float(np.sqrt(g * forms.profile.sup_ratio))
    if s_hi is None:
        s_hi = rate_cap
    if s_lo is None:
        s_lo = 1e-8 * s_hi

    a_lo, pair_lo = alpha(forms, s_lo)
    if a_lo >= 0.0:
        return None
    lam_lo = float(np.sqrt(-a_lo))
    if s_lo - lam_lo >= 0.0:
        # root below the bottom of the bracket: the growing rate is <= s_lo,
        # numerically indistinguishable from no growth at default tolerance
        return None

    # f is nondecreasing and f(lam_lo) >= 0, so the root lies in
    # [s_lo, lam_lo]: f(s_hi) < 0 is possible only when s_hi < lam_lo, and
    # only then does the check at s_hi need an evaluation
    if s_hi < lam_lo:
        a_hi, _ = alpha(forms, s_hi)
        f_hi = s_hi - float(np.sqrt(max(-a_hi, 0.0)))
        if f_hi < 0.0:
            raise BracketFailure(
                f"f(s_hi) = {f_hi:.6g} < 0 at s_hi = {s_hi:.6g} "
                f"(alpha = {a_hi:.6g}); rate exceeds the sup-ratio bound, "
                "which indicates an inconsistent discretization"
            )

    lo, hi = s_lo, min(s_hi, lam_lo)  # g(lo) < 0 <= g(hi) throughout
    s, a, pair = s_lo, a_lo, pair_lo
    frontier = s_lo
    star = None  # the last evaluation that passed the fixed-point test
    certifying = bisecting = False
    for _ in range(_MAX_STEPS):
        g_s = s * s + a
        if g_s < 0.0:
            lo = s
        else:
            hi = s
        lam = float(np.sqrt(max(-a, 0.0)))
        # the fixed-point defect cannot be certified below the eigenvalue
        # noise floor of one solve, |r| |psi| mapped through d(lam)/d(alpha)
        noise = 2.0 * pair.value_tol / max(lam, 1e-300)
        settled = a < 0.0 and abs(s - lam) <= max(0.5 * tol * max(1.0, lam), noise)
        if a < 0.0:
            frontier = max(frontier, s)
        if settled:
            star, width = (s, a, pair), tol * max(1.0, lam)
        if star is not None and star[0] in (lo, hi) and hi - lo <= width:
            break  # g changes sign within the tolerance of s_star
        # after a certificate that did not show the sign change, bisect: it
        # cannot stall in the eigenvalue noise
        bisecting = bisecting or certifying
        certifying = settled and not bisecting
        if certifying:
            nxt = s + math.copysign(0.5 * tol * max(1.0, s), -g_s)
        elif bisecting:
            nxt = 0.5 * (lo + hi)
        else:
            slope = 2.0 * s + float(pair.vec @ band_matvec(forms.e1, pair.vec))
            nxt = s - g_s / slope
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        s = nxt
        a, pair = alpha(forms, s, start=pair.vec)
    else:
        raise BracketFailure(
            f"fixed point did not settle in {_MAX_STEPS} steps: bracket "
            f"[{lo:.6g}, {hi:.6g}] (eigenvalue noise dominates near a marginal "
            "frequency; refine the grid or loosen tol)"
        )

    s_star, a_star, pair_star = star
    lam = float(np.sqrt(-a_star))
    if lam <= tol:
        return None
    return GrowthResult(
        forms=forms,
        lam=lam,
        s_star=s_star,
        alpha_at_s=a_star,
        psi=pair_star,
        bracket_width=hi - lo,
        s_frontier=frontier,
    )
