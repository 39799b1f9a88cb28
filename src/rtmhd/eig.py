"""The largest root of a symmetric banded family T(s) = C0 + s C1 (+ s^2 C2).

The growth rate is the top root of T(s) = |xi|^2 E0 + s E1 + s^2 J, and
M_c, S(xi) and |xi|_vc are each the largest eigenvalue of a pencil (A, B),
the root of T(s) = s B - A.  Each family is positive definite exactly above
its top root (Sylvester's law of inertia; for the quadratic, the minimax
principle of overdamped pencils: Duffin; Voss, Numer. Linear Algebra Appl.
16 (2009)), so one banded Cholesky (LAPACK dpbtrf, info != 0 means not
positive definite) tells on which side of the root a trial s lies.  The
root is the largest value of the Rayleigh functional p(psi), the largest
root of psi^T T(s) psi = 0, and psi <- T(p)^-1 T'(p) psi converges to it
cubically; for a pencil this is Rayleigh-quotient iteration (Tisseur &
Meerbergen, SIAM Review 43 (2001); Parlett, The Symmetric Eigenvalue
Problem (1998)).  ``top_root`` finds and certifies the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stats
from ._lapack import dgbsv, dgtsv, dpbtrf
from .errors import BracketFailure, FactorizationBreakdown
from .operators import band_combine, band_matvec, band_to_lu

__all__ = ["EigenPair", "TOL", "definite", "top_root"]

TOL = 1e-10  # default relative accuracy of a root
_START = 0.2  # the iteration starts once hi - lo <= _START * min(|lo|, |hi|)
_STEPS = 6  # Rayleigh-functional steps
_FLOOR = 4.0  # the residual floor, in units of eps |psi| sum |p|^k max|C_k|
_EPS = float(np.finfo(float).eps)


def definite(a: np.ndarray, b: np.ndarray, sigma: float) -> bool:
    """True iff A - sigma*B is positive definite (its banded Cholesky exists):
    every pencil eigenvalue lies above sigma.  A singular shift is not."""
    stats.counts["dpbtrf"] += 1
    _, info = dpbtrf(band_combine([(1.0, a), (-sigma, b)]), lower=1)
    return info == 0


@dataclass
class EigenPair:
    """A certified root of T and its vector.

    vec is metric-normalized with its largest-magnitude entry positive;
    residual is |T(value) vec|; noise = residual |vec| / vec^T T'(value) vec,
    the first-order error of value implied by the residual.  T(bracket[0])
    is not positive definite and T(bracket[1]) is, so the tol-wide bracket
    holds the root; it holds value too, or, after ``top_root``'s fallback
    bisection, lies within 2 noise of it.  iterations counts the Cholesky
    tests and banded solves.
    """

    value: float
    vec: np.ndarray
    residual: float
    iterations: int
    noise: float
    bracket: tuple[float, float]


def _solve(t: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """t^-1 rhs for a symmetric band t (overwritten), by LAPACK's tridiagonal
    (dgtsv) or general band (dgbsv) solver with partial pivoting;
    LinAlgError if t is singular."""
    if t.shape[0] == 2 and t.shape[1] > 1:  # dgtsv needs n > 1
        stats.counts["dgtsv"] += 1
        sub = t[1, :-1]
        _, _, _, x, info = dgtsv(
            sub, t[0], sub.copy(), rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
    else:
        stats.counts["dgbsv"] += 1
        p = t.shape[0] - 1
        _, _, x, info = dgbsv(p, p, band_to_lu(t), rhs, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular band (info {info})")
    return x


def top_root(
    terms: tuple[np.ndarray, ...],
    metric: np.ndarray,
    lo: float,
    hi: float | None = None,
    start: np.ndarray | None = None,
    tol: float = TOL,
) -> EigenPair | None:
    """The largest root of T(s) = sum of s^k terms[k] (two or three symmetric
    bands, T' positive definite above lo), with a vector normalized in the
    positive definite metric; None if T(lo) is positive definite or the
    root is lo itself.

    Rayleigh-functional iteration runs until r = T(p) psi is at its floor
    or the noise of p is at most tol/4 * scale, scale = max(1, |p|).  Two
    Cholesky tests a tol-wide bracket apart certify p: T(p + delta) positive
    definite and T(p - delta) not, p - delta > lo, delta = tol/2 * scale.
    A start vector is iterated and certified first.  Otherwise, or if that
    fails, Cholesky tests bisect [lo, hi] (if hi is None, hi = lo + max(1,
    |lo|), stepped up by four bracket widths until T(hi) is positive
    definite; a given T(hi) that is not raises BracketFailure), at the
    geometric mean while hi > 2 lo > 0, until hi - lo <= 0.2 min(|lo|, |hi|)
    or tol * max(1, |lo|, |hi|).  Two inverse steps T(hi) y = x from the
    constant vector start the iteration (at hi, above every root, the
    nearest root is the top one), and the certificate is tried.  Failing
    it, the bracket is bisected to the tol width and the iteration restarted
    at its upper end; that p is accepted within 2 noise of the bracket, or
    FactorizationBreakdown is raised.  The slack is the first-order error
    bound of p: where the noise exceeds tol * scale, the tests' own rounding
    can put p outside every tol-wide Cholesky bracket (the |xi|_vc pencil at
    n = 201 does), and p outside the slack is not the bracket's root.
    """
    rows = max(len(c) for c in terms)
    bands = [np.vstack([c, np.zeros((rows - len(c), c.shape[1]))]) for c in terms]
    sizes = [float(np.abs(c).max()) for c in terms]
    shared = [c is metric for c in terms]  # metric psi is then C_k psi
    quadratic = len(terms) == 3
    calls = 0

    def at(s: float) -> np.ndarray:
        t = bands[0] + s * bands[1]
        if quadratic:
            t += (s * s) * bands[2]
        return t

    def above(s: float) -> bool:
        nonlocal calls
        calls += 1
        stats.counts["dpbtrf"] += 1
        return dpbtrf(at(s), lower=1)[1] == 0

    def normalized(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m_y = band_matvec(metric, y)
        scale = math.sqrt(float(y @ m_y))
        return y / scale, m_y / scale

    def solve(s: float, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal calls
        calls += 1
        return normalized(_solve(at(s), rhs))

    def bisect(lo: float, hi: float, ratio: float) -> tuple[float, float]:
        while hi - lo > max(ratio * min(abs(lo), abs(hi)), tol * max(1.0, -lo, hi)):
            mid = math.sqrt(lo * hi) if 0.0 < 2.0 * lo < hi else 0.5 * (lo + hi)
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return lo, hi

    def iterate(psi: np.ndarray, m_psi: np.ndarray):
        """Rayleigh-functional steps from psi until r = T(p) psi is at its
        floor or the noise of p is at most tol/4 * max(1, |p|), half the
        certificate's delta: p, psi, |r| and the noise (inf if neither
        was reached)."""
        for step in range(_STEPS + 1):
            v = [m_psi if k else band_matvec(c, psi) for c, k in zip(terms, shared)]
            c, b = float(psi @ v[0]), float(psi @ v[1])
            a = float(psi @ v[2]) if quadratic else 0.0
            p = -2.0 * c / (b + math.sqrt(max(b * b - 4.0 * a * c, 0.0)))
            r = v[0] + p * v[1] + (p * p) * v[2] if quadratic else v[0] + p * v[1]
            r, norm = math.sqrt(float(r @ r)), math.sqrt(float(psi @ psi))
            noise = r * norm / (b + 2.0 * p * a)
            scale = sum(abs(p) ** k * size for k, size in enumerate(sizes))
            done = r <= _FLOOR * _EPS * scale * norm
            done = done or noise <= 0.25 * tol * max(1.0, abs(p))
            if done or step == _STEPS:
                break
            try:  # T'(p) psi = C1 psi + 2 p C2 psi
                psi, m_psi = solve(p, v[1] + (2.0 * p) * v[2] if quadratic else v[1])
            except np.linalg.LinAlgError:  # T(p) is exactly singular: p is a root
                done = True
                break
        return p, psi, r, noise if done else math.inf

    def restart(s: float):
        """The iteration from two inverse steps T(s) y = x, x constant."""
        x = normalized(np.ones(metric.shape[1]))
        for _ in range(2):
            try:
                x = solve(s, x[0])
            except np.linalg.LinAlgError:
                break
        return iterate(*x)

    def certify(p: float, noise: float, lo: float) -> tuple[float, float] | None:
        delta = 0.5 * tol * max(1.0, abs(p))
        if noise < math.inf and lo < p - delta and above(p + delta) and not above(p - delta):
            return p - delta, p + delta
        return None

    bracket = None
    if start is not None:
        p, psi, r, noise = iterate(*normalized(start))
        bracket = certify(p, noise, lo)
    if bracket is None:
        if above(lo):
            return None
        lowest = lo
        if hi is None:
            hi = lo + max(1.0, abs(lo))
            while not above(hi):
                lo, hi = hi, hi + 4.0 * (hi - lo)
                if not math.isfinite(hi):
                    raise FactorizationBreakdown("T(s) is positive definite at no s")
        elif not above(hi):
            raise BracketFailure(f"T(hi) is not positive definite at hi = {hi:.6g}")
        lo, hi = bisect(lo, hi, _START)
        p, psi, r, noise = restart(hi)
        bracket = certify(p, noise, lowest)
        if bracket is None:
            lo, hi = bisect(lo, hi, 0.0)
            p, psi, r, noise = restart(hi)
            if not (noise < math.inf and lo - 2.0 * noise <= p <= hi + 2.0 * noise):
                raise FactorizationBreakdown(
                    f"root {p:.17g} outside its Cholesky bracket [{lo:.17g}, {hi:.17g}]"
                )
            if p <= lowest:
                return None
            bracket = lo, hi
    psi = psi if psi[np.argmax(np.abs(psi))] > 0 else -psi
    return EigenPair(p, psi, r, calls, noise, bracket)
