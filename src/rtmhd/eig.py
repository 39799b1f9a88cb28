"""Extreme eigenvalues of a symmetric banded pencil (A, B), B positive definite.

By Sylvester's law of inertia, A - sigma*B is positive definite exactly when
sigma lies below every pencil eigenvalue, and one banded Cholesky (LAPACK
dpbtrf, info != 0 means not positive definite) answers that: ``definite``.

The smallest eigenvalue is found by Rayleigh-quotient iteration, warm from
a given vector or cold after a definiteness bisection, and certified by one
such test just below the result or by a bisection bracket of relative width
TOL (``min_generalized_eig``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dgbsv, dgtsv, dpbtrf
from .errors import FactorizationBreakdown
from .operators import band_combine, band_matvec, band_to_lu

__all__ = [
    "EigenPair",
    "definite",
    "min_generalized_eig",
    "max_generalized_eig",
]

TOL = 1e-10  # relative accuracy of every eigenvalue
_RQI_STEPS = 6
_RESIDUAL_TOL = 1e-8
_COARSE_WIDTH = 1e-3  # relative bracket width where the cold route starts RQI
_COLD_INVERSE_STEPS = 2


def _band_scale(ab: np.ndarray) -> float:
    return float(np.max(np.abs(ab))) if ab.size else 1.0


def definite(a: np.ndarray, b: np.ndarray, sigma: float) -> bool:
    """True iff A - sigma*B is positive definite (its banded Cholesky exists).

    By Sylvester's law this says every pencil eigenvalue lies above sigma;
    a singular shift is not positive definite.
    """
    _, info = dpbtrf(band_combine([(1.0, a), (-sigma, b)]), lower=1)
    return info == 0


@dataclass
class EigenPair:
    """Eigenvalue, B-normalized eigenvector, residual, and iteration count.

    value_tol is the first-order bound |r| |psi| on the eigenvalue error
    implied by the residual; it is the certification floor for any decision
    that compares eigenvalues from separate solves.
    """

    value: float
    vec: np.ndarray
    residual: float
    iterations: int
    value_tol: float = 0.0


def _expand_bracket(
    a: np.ndarray, b: np.ndarray, lo: float, hi: float
) -> tuple[float, float, int]:
    """Grow [lo, hi] until A - lo*B is positive definite and A - hi*B is not."""
    iters = 0
    span = max(1.0, abs(lo), abs(hi))
    while not definite(a, b, lo):
        iters += 1
        lo -= span
        span *= 4.0
        if iters > 200:
            raise FactorizationBreakdown("could not bracket the smallest eigenvalue")
    span = max(1.0, abs(lo), abs(hi))
    while definite(a, b, hi):
        iters += 1
        hi += span
        span *= 4.0
        if iters > 200:
            raise FactorizationBreakdown("could not bracket the smallest eigenvalue")
    return lo, hi, iters


def _bisect(
    a: np.ndarray, b: np.ndarray, lo: float, hi: float, width: float
) -> tuple[float, float, int]:
    """Halve [lo, hi], keeping A - lo*B positive definite and A - hi*B not,
    until hi - lo <= width * max(1, |lo|, |hi|)."""
    iters = 0
    while hi - lo > width * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        iters += 1
        if definite(a, b, mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, iters


def _solve_shifted(
    a: np.ndarray, b: np.ndarray, sigma: float, rhs: np.ndarray
) -> np.ndarray:
    """(A - sigma*B)^-1 rhs by LAPACK's tridiagonal (dgtsv) or general band
    (dgbsv) solver, both with partial pivoting; LinAlgError if singular."""
    shifted = band_combine([(1.0, a), (-sigma, b)])
    if shifted.shape[0] == 2 and shifted.shape[1] > 1:  # dgtsv needs n > 1
        sub = shifted[1, :-1]
        _, _, _, x, info = dgtsv(
            sub, shifted[0], sub.copy(), rhs,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
        )
    else:
        p = shifted.shape[0] - 1
        _, _, x, info = dgbsv(p, p, band_to_lu(shifted), rhs, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"shifted pencil is singular (info {info})")
    return x


def _inverse_steps(
    a: np.ndarray, b: np.ndarray, shift: float, x: np.ndarray, bx: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Up to `steps` B-normalized inverse-iteration solves (A - shift*B) y = B x,
    carrying B y from the solve; stops at a singular shift or y^T B y <= 0.
    Returns the last vector, its B-product and the number of steps made."""
    for done in range(steps):
        try:
            y = _solve_shifted(a, b, shift, bx)
        except np.linalg.LinAlgError:
            return x, bx, done
        by = band_matvec(b, y)
        s = float(y @ by)
        if not np.isfinite(s) or s <= 0.0:
            return x, bx, done
        root = np.sqrt(s)
        x, bx = y / root, by / root
    return x, bx, steps


def _rqi(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[EigenPair, float]:
    """Rayleigh-quotient iteration (RQI) from x, at most _RQI_STEPS solves.

    Returns the pair (B-normalized vector, its Rayleigh quotient and
    residual |Ax - theta Bx| / |Bx|, iterations = the solves) and the
    residual floor.  The acceptable floor scales with the matvec roundoff
    eps*|A|*|x|/|Bx|, which dominates 1e-8 once the forms carry 1/h^3-sized
    fourth-order entries.
    """
    bx = band_matvec(b, x)
    shift = float(x @ band_matvec(a, x)) / float(x @ bx)
    iters = 0
    residual = np.inf
    value = shift
    floor = _RESIDUAL_TOL
    for _ in range(_RQI_STEPS):
        x, bx, done = _inverse_steps(a, b, shift, x, bx, 1)
        if not done:  # a failed step: move the shift down and retry
            shift -= max(TOL, abs(shift) * 1e-12)
            continue
        iters += 1
        ax = band_matvec(a, x)
        value = float(x @ ax) / float(x @ bx)
        norm_bx = float(np.linalg.norm(bx))
        residual = float(np.linalg.norm(ax - value * bx)) / norm_bx
        floor = max(
            _RESIDUAL_TOL,
            256.0
            * np.finfo(float).eps
            * _band_scale(band_combine([(1.0, a), (-value, b)]))
            * float(np.linalg.norm(x))
            / norm_bx,
        )
        if residual <= floor:
            break
        shift = value
    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    value_tol = residual * float(np.linalg.norm(bx)) * float(np.linalg.norm(x))
    return EigenPair(value, x, residual, iters, value_tol), floor


def min_generalized_eig(
    a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None
) -> EigenPair:
    """Smallest alpha with A psi = alpha B psi; psi normalized to psi^T B psi = 1.

    A Rayleigh quotient is never below the smallest eigenvalue alpha_min, so
    a result for which A - (value - delta) B is positive definite (one test,
    counted as an iteration) has value - alpha_min <= delta.  Warm,
    Rayleigh-quotient iteration (RQI) runs from the start vector, with
    delta = TOL*max(1, |value|) + 2*value_tol.  Otherwise, or if RQI misses
    its residual floor or the test, the cold route grows a bracket from
    |A| / min diag(B).  Each of at most two passes bisects it (to a relative
    width of 1e-3, then TOL), takes two inverse steps at its lower end (where
    A - lo*B is positive definite, so they move toward alpha_min) and runs
    RQI.  Pass one's delta = TOL*max(1, |value|) has no slack, which proves
    the accuracy of a bisection to TOL.  Pass two has that bisection, and
    its bracket is the proof: value <= hi + delta + 2*value_tol, or it
    raises FactorizationBreakdown.
    """
    iters = 0
    if start is not None:
        pair, floor = _rqi(a, b, start)
        iters = pair.iterations
        if pair.residual <= floor:
            iters += 1
            delta = TOL * max(1.0, abs(pair.value)) + 2.0 * pair.value_tol
            if definite(a, b, pair.value - delta):
                pair.iterations = iters
                return pair

    n = a.shape[1]
    ones = np.ones(n) / np.sqrt(n)
    b_ones = band_matvec(b, ones)
    guess = max(1.0, _band_scale(a) / max(np.min(b[0]), 1e-300))
    lo, hi, k = _expand_bracket(a, b, -guess, guess)
    iters += k
    for width in (_COARSE_WIDTH, TOL):
        lo, hi, k = _bisect(a, b, lo, hi, width)
        x, _, done = _inverse_steps(a, b, lo, ones, b_ones, _COLD_INVERSE_STEPS)
        pair, floor = _rqi(a, b, x)
        iters += k + done + pair.iterations
        if pair.residual > floor:
            continue
        delta = TOL * max(1.0, abs(pair.value))
        if width == TOL:
            certified = pair.value <= hi + delta + 2.0 * pair.value_tol
        else:
            iters += 1
            certified = definite(a, b, pair.value - delta)
        if certified:
            pair.iterations = iters
            return pair
    raise FactorizationBreakdown(f"cold solve uncertified, |r| = {pair.residual:.3g}")


def max_generalized_eig(
    a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None
) -> EigenPair:
    """Largest pencil eigenvalue, via the smallest eigenvalue of (-A, B).

    A start vector is used and certified as in ``min_generalized_eig``: the
    result is accepted only if A - (value + delta) B is negative definite,
    so a start that converges to a lower eigenvalue falls back to the cold
    route.
    """
    pair = min_generalized_eig(band_combine([(-1.0, a)]), b, start=start)
    pair.value = -pair.value
    return pair
