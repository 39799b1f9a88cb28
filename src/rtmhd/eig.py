"""Extreme eigenvalues of a symmetric banded pencil (A, B), B positive definite.

By Sylvester's law of inertia, A - sigma*B is positive definite exactly when
sigma lies below every pencil eigenvalue, and one banded Cholesky (LAPACK
dpbtrf, info != 0 means not positive definite) answers that: ``definite``.

Cold, the smallest eigenvalue is isolated by definiteness bisection and
polished by a few inverse-iteration steps.  Warm, Rayleigh-quotient
iteration runs from a given start vector, and a single definiteness test
just below the result certifies that no smaller eigenvalue was missed; a
result that fails the test falls back to the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, solve_banded
from scipy.linalg.lapack import dpbtrf

from .errors import FactorizationBreakdown
from .operators import band_combine, band_matvec, band_to_lu

__all__ = [
    "EigenPair",
    "definite",
    "inertia_count",
    "min_generalized_eig",
    "max_generalized_eig",
]

_INVERSE_STEPS = 5
_RQI_STEPS = 6
_RESIDUAL_TOL = 1e-8


def _band_scale(ab: np.ndarray) -> float:
    return float(np.max(np.abs(ab))) if ab.size else 1.0


def definite(a: np.ndarray, b: np.ndarray, sigma: float) -> bool:
    """True iff A - sigma*B is positive definite (its banded Cholesky exists).

    By Sylvester's law this says every pencil eigenvalue lies above sigma;
    a singular shift is not positive definite.
    """
    _, info = dpbtrf(band_combine([(1.0, a), (-sigma, b)]), lower=1)
    return info == 0


def inertia_count(a: np.ndarray, b: np.ndarray, sigma: float) -> int:
    """Number of pencil eigenvalues strictly below sigma.

    With B positive definite, Sylvester's law makes this the number of
    negative eigenvalues of A - sigma*B.
    """
    shifted = band_combine([(1.0, a), (-sigma, b)])
    w = eig_banded(shifted, lower=True, eigvals_only=True)
    return int(np.count_nonzero(w < 0.0))


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


def _solve_shifted(
    a: np.ndarray, b: np.ndarray, sigma: float, rhs: np.ndarray
) -> np.ndarray:
    shifted = band_combine([(1.0, a), (-sigma, b)])
    l_and_u, full = band_to_lu(shifted)
    return solve_banded(l_and_u, full, rhs)


def _inverse_iteration(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    shift: float,
    tol: float,
    steps: int,
    rounds: int,
) -> tuple[np.ndarray, float, float, float, int]:
    """Inverse iteration from x in rounds of `steps` solves.

    After each round the shift moves to the Rayleigh quotient, so steps=1 is
    Rayleigh-quotient iteration.  Returns the B-normalized vector, its
    Rayleigh quotient, residual, residual floor and the number of solves.
    The acceptable floor scales with the matvec roundoff eps*|A|*|x|/|Bx|,
    which dominates 1e-8 once the forms carry 1/h^3-sized fourth-order
    entries.
    """
    iters = 0
    residual = np.inf
    value = shift
    floor = _RESIDUAL_TOL
    for _ in range(rounds):
        try:
            for _ in range(steps):
                y = _solve_shifted(a, b, shift, band_matvec(b, x))
                iters += 1
                s = float(y @ band_matvec(b, y))
                if not np.isfinite(s) or s <= 0.0:
                    raise np.linalg.LinAlgError("inverse iteration lost positivity")
                x = y / np.sqrt(s)
        except (np.linalg.LinAlgError, ValueError):
            shift -= max(tol, abs(shift) * 1e-12)
            continue
        bx = band_matvec(b, x)
        value = float(x @ band_matvec(a, x)) / float(x @ bx)
        shifted = band_combine([(1.0, a), (-value, b)])
        norm_bx = float(np.linalg.norm(bx))
        residual = float(np.linalg.norm(band_matvec(shifted, x))) / norm_bx
        floor = max(
            _RESIDUAL_TOL,
            256.0
            * np.finfo(float).eps
            * _band_scale(shifted)
            * float(np.linalg.norm(x))
            / norm_bx,
        )
        if residual <= floor:
            break
        shift = value  # Rayleigh-shift retry
    return x, value, residual, floor, iters


def _pair(
    b: np.ndarray, x: np.ndarray, value: float, residual: float, iters: int
) -> EigenPair:
    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    value_tol = residual * float(np.linalg.norm(band_matvec(b, x))) * float(
        np.linalg.norm(x)
    )
    return EigenPair(
        value=value, vec=x, residual=residual, iterations=iters, value_tol=value_tol
    )


def min_generalized_eig(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-10,
    start: np.ndarray | None = None,
) -> EigenPair:
    """Smallest alpha with A psi = alpha B psi; psi normalized to psi^T B psi = 1.

    With a start vector, Rayleigh-quotient iteration runs from it first; its
    result is accepted only if A - (value - delta) B is positive definite,
    delta = tol*max(1, |value|) + 2*value_tol, which proves that no pencil
    eigenvalue lies more than delta below it.  Otherwise (and without a start
    vector) the smallest eigenvalue is bisected inside a bracket grown from
    |A| / min diag(B) until it is verified.
    """
    iters = 0
    if start is not None:
        x = start / np.sqrt(float(start @ band_matvec(b, start)))
        x, value, residual, floor, iters = _inverse_iteration(
            a, b, x, float(x @ band_matvec(a, x)), tol, steps=1, rounds=_RQI_STEPS
        )
        if residual <= floor:
            iters += 1  # the certifying factorization
            pair = _pair(b, x, value, residual, iters)
            delta = tol * max(1.0, abs(value)) + 2.0 * pair.value_tol
            if definite(a, b, value - delta):
                return pair

    n = a.shape[1]
    guess = max(1.0, _band_scale(a) / max(np.min(b[0]), 1e-300))
    lo, hi, k = _expand_bracket(a, b, -guess, guess)
    iters += k

    while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        iters += 1
        if definite(a, b, mid):
            lo = mid
        else:
            hi = mid

    # inverse iteration from the bracket midpoint; the shift is within tol of
    # the eigenvalue so a handful of steps reaches the residual floor
    x, value, residual, floor, k = _inverse_iteration(
        a, b, np.ones(n) / np.sqrt(n), 0.5 * (lo + hi), tol,
        steps=_INVERSE_STEPS, rounds=3,
    )
    iters += k
    if residual > floor:
        raise FactorizationBreakdown(
            f"inverse iteration stalled at residual {residual:.3g}"
        )
    return _pair(b, x, value, residual, iters)


def max_generalized_eig(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-10,
    start: np.ndarray | None = None,
) -> EigenPair:
    """Largest pencil eigenvalue, via the smallest eigenvalue of (-A, B).

    A start vector is used and certified as in ``min_generalized_eig``: the
    result is accepted only if A - (value + delta) B is negative definite,
    so a start that converges to a lower eigenvalue falls back to the cold
    bisection.
    """
    pair = min_generalized_eig(band_combine([(-1.0, a)]), b, tol=tol, start=start)
    pair.value = -pair.value
    return pair
