"""Critical field strength, critical frequencies, and lattice sweeps.

The growing-mode domain of a field configuration is the set of frequencies
where the magnetic + buoyancy form E0 is indefinite.  Membership is decided
by one banded Cholesky test: the smallest eigenvalue of (E0, mass) lies
below -floor exactly when E0 + floor * mass is not positive definite.  The
same threshold can be located through dedicated critical quantities: the
critical field strength M_c (per truncation of the domain), the horizontal
critical-frequency function S(xi) (per slope xi2/xi1) and the vertical
critical-frequency constant |xi|_vc.  Each is the largest eigenvalue of one
banded pencil (A, B), the top root of T(s) = s B - A, found by one
``eig.top_root`` call from the lower end 0, so no positive root means no
threshold; both routes agree up to solver tolerance.  The M_c pencil is
condensed onto the nodes of the support of drho, so its size does not grow
with the truncation length.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .eig import EigenPair, definite, top_root
from .errors import EmptyDomain, InconsistentDecision, OutOfRange
from .forms import FormSet, _e0_bands, assemble_forms, form_key
from .growth import growth_rate
from .operators import band_combine, grad_stiffness_band, mass_band
from .profiles import (
    DensityProfile,
    Frequency,
    Grid1D,
    MagneticConfig,
    PhysicalParams,
)

__all__ = [
    "CriticalNumber",
    "DispersionEntry",
    "DispersionTable",
    "SupRate",
    "in_growing_domain",
    "critical_number_auto",
    "default_truncation_grids",
    "critical_freq_horizontal",
    "critical_freq_vertical",
    "threshold_rows",
    "lattice_sweep",
    "sup_rate",
    "default_sweep_radius",
    "write_table",
    "read_table",
]

_MEMBERSHIP_FLOOR = 1e-12
_DIVERGENCE_FACTOR = 1.5
_CONVERGENCE_RTOL = 1e-4


def in_growing_domain(forms: FormSet) -> bool:
    """True iff E0 is indefinite (negative beyond a noise floor).

    That is: E0 + floor * mass is not positive definite, so the smallest
    eigenvalue of (E0, mass) is at or below -floor.
    """
    floor = _MEMBERSHIP_FLOOR * forms.params.g * forms.profile.sup_ratio
    return not definite(forms.e0, forms.mass, -floor)


# --- critical field strength -------------------------------------------------


@dataclass(frozen=True)
class CriticalNumber:
    """Finite/infinite classification of the critical vertical field strength."""

    is_infinite: bool
    value: float | None
    trace: tuple[tuple[float, float], ...]  # (Lz, value) per truncation


def _critical_pair(
    profile: DensityProfile, grid: Grid1D, g: float, start: np.ndarray | None
) -> EigenPair:
    """Largest eigenpair of (g drho mass, gradient stiffness), condensed onto
    the nodes from the first to the last where g drho != 0.

    The mass form is zero outside that window.  There, the stiffness on each
    chain of m nodes between the window and a wall has the Schur complement
    of one gradient edge of weight 1/(m+1), and the chain is folded into that
    edge (static condensation).  The complement keeps every nonzero pencil
    eigenvalue, and for a shift sigma > 0 the definiteness of A - sigma B
    (the chain's block of it is negative definite; Haynsworth's inertia
    additivity), so the top eigenvalue and its certificate are the full
    pencil's.  drho is evaluated only on the nodes of ``profile.support``,
    so the cost does not grow with Lz.  The vector lives on the window; a
    start of another length is not used.
    """
    h = grid.h
    lo, hi = profile.support
    first = max(0, math.floor((lo + grid.half_length) / h) - 1)
    stop = min(grid.n, math.ceil((hi + grid.half_length) / h))
    # grid.points()[first:stop], bit for bit
    q = g * profile.drho(-grid.half_length + h * np.arange(first + 1, stop + 1))
    nonzero = np.flatnonzero(q)
    if nonzero.size == 0:
        raise OutOfRange("no grid node carries drho != 0")
    below, above = first + nonzero[0], grid.n - first - nonzero[-1] - 1
    q = q[nonzero[0] : nonzero[-1] + 1]
    a = (h * q)[np.newaxis]  # mass_band's entries
    # gradient edges as grad_stiffness_band weighs them; a folded chain of
    # m nodes is one edge of weight 1/(m+1)
    weight = np.ones(q.size + 1)
    weight[0], weight[-1] = 1.0 / (below + 1), 1.0 / (above + 1)
    c = 1.0 / h
    edge = h * weight * c * c
    b = np.zeros((2, q.size))
    b[0] = edge[:-1] + edge[1:]
    b[1, :-1] = -edge[1:-1]
    if start is not None and start.size != q.size:
        start = None
    pair = top_root((-a, b), b, 0.0, start=start)
    if pair is None:
        raise OutOfRange("profile admits no positive Rayleigh quotient")
    return pair


def _truncations(
    profile: DensityProfile, grids: list[Grid1D], g: float
) -> Iterator[tuple[float, float]]:
    """(Lz, value) per truncation, each solve continued from the one before.

    Each pencil lives on the nodes of the support (see ``_critical_pair``),
    which on a fixed-spacing doubling are the same nodes every time; only
    the two folded edges change.  So the previous eigenvector, unchanged,
    starts the next solve, and ``eig.top_root`` certifies the result: a
    start that lands on a lower eigenvalue costs a cold solve, not a wrong
    value.
    """
    pair = None
    for grid in grids:
        pair = _critical_pair(profile, grid, g, None if pair is None else pair.vec)
        yield grid.half_length, float(np.sqrt(pair.value))


def default_truncation_grids(
    profile: DensityProfile,
    lz0: float | None = None,
    n0: int = 129,
    count: int = 3,
) -> list[Grid1D]:
    """A doubling Lz sequence with n scaled proportionally (fixed spacing)."""
    if lz0 is None:
        lo, hi = profile.support
        lz0 = 4.0 * max(abs(lo), abs(hi), 1.0)
    grids = []
    for k in range(count):
        scale = 2**k
        grids.append(Grid1D(lz0 * scale, (n0 + 1) * scale - 1))
    return grids


def _classify_trace(
    trace: list[tuple[float, float]], total_jump: float, strict: bool
) -> CriticalNumber | None:
    """Apply the divergence/convergence rules; None means undecided so far.

    True divergence doubles the Rayleigh quotient (the squared trace value)
    per Lz doubling, so the 1.5x detection factor is applied to value^2.
    """
    v = [t[1] for t in trace]
    growth_last = (v[-1] / v[-2]) ** 2
    growth_prev = (v[-2] / v[-3]) ** 2
    diverging = growth_last >= _DIVERGENCE_FACTOR and growth_prev >= _DIVERGENCE_FACTOR
    rel_change = abs(v[-1] - v[-2]) / abs(v[-1])
    converged = rel_change < _CONVERGENCE_RTOL

    if diverging:
        if total_jump <= 0:
            raise InconsistentDecision(
                f"trace diverges ({growth_prev:.3f}x, {growth_last:.3f}x) but "
                f"total_jump = {total_jump:.6g} <= 0"
            )
        return CriticalNumber(is_infinite=True, value=None, trace=tuple(trace))
    if converged:
        if total_jump > 0:
            raise InconsistentDecision(
                f"trace settled at {v[-1]:.6g} but total_jump = "
                f"{total_jump:.6g} > 0 predicts divergence"
            )
        return CriticalNumber(is_infinite=False, value=v[-1], trace=tuple(trace))
    if strict:
        raise InconsistentDecision(
            f"trace is neither diverging nor settled (last relative change "
            f"{rel_change:.3g}); extend the Lz sequence"
        )
    return None


def critical_number_auto(
    profile: DensityProfile,
    lz0: float | None = None,
    n0: int = 129,
    *,
    g: float,
    max_doublings: int = 14,
) -> CriticalNumber:
    """Classify the critical field strength from a doubling-Lz truncation trace.

    The trace runs over ``default_truncation_grids`` with up to
    3 + max_doublings truncations and stops at the first (from the third on)
    that classifies.  Divergence (>= 1.5x growth per doubling over the last
    two doublings) means infinite; a settled trace (< 1e-4 relative change
    at the last doubling) means finite with the last value.  Either way the
    decision is cross-checked against the sign of the total density jump,
    and the last truncation raises if still undecided.  Each truncation
    solves a pencil on the support's nodes alone (``_critical_pair``), so
    its cost does not depend on Lz.  Each eigen-solve after the first starts
    from the previous eigenvector, unchanged, and is certified like a cold
    solve: a truncation after the first takes 3-5 iterations
    (``EigenPair.iterations``) in place of a cold solve's 13.
    """
    grids = default_truncation_grids(profile, lz0=lz0, n0=n0, count=3 + max_doublings)
    trace: list[tuple[float, float]] = []
    for point in _truncations(profile, grids, g):
        trace.append(point)
        if 3 <= len(trace) < len(grids):
            result = _classify_trace(trace, profile.total_jump, strict=False)
            if result is not None:
                return result
    result = _classify_trace(trace, profile.total_jump, strict=True)
    assert result is not None  # strict classification raises instead
    return result


# --- critical frequencies ----------------------------------------------------


def _horizontal_bands(
    profile: DensityProfile, grid: Grid1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The xi-independent bands of the S(xi) pencil: drho mass, stiffness, mass."""
    x = grid.points()
    return mass_band(grid, profile.drho(x)), grad_stiffness_band(grid), mass_band(grid)


def _horizontal_pair(
    bands: tuple[np.ndarray, np.ndarray, np.ndarray],
    xi: Frequency,
    M: float,
    g: float,
    start: np.ndarray | None = None,
) -> EigenPair | None:
    """Largest eigenpair of (g|xi|^2/(M xi1)^2 drho mass - stiffness, mass),
    None if its eigenvalue is not positive."""
    drho_mass, stiffness, mass = bands
    coeff = g * xi.norm2 / (M * xi.xi1) ** 2
    minus_a = band_combine([(-coeff, drho_mass), (1.0, stiffness)])
    return top_root((minus_a, mass), mass, 0.0, start=start)


def critical_freq_horizontal(
    profile: DensityProfile, grid: Grid1D, xi: Frequency, M: float, g: float
) -> float:
    """Threshold S(xi) for a horizontal field; instability requires |xi| < S."""
    if M * xi.xi1 == 0.0:
        raise OutOfRange("S(xi) requires M * xi1 != 0")
    pair = _horizontal_pair(_horizontal_bands(profile, grid), xi, M, g)
    if pair is None:
        raise OutOfRange(
            f"field ratio |M xi1|/|xi| = {abs(M * xi.xi1) / xi.norm:.6g} is at or "
            "above the critical field strength; no threshold exists"
        )
    return float(np.sqrt(pair.value))


def threshold_rows(
    profile: DensityProfile,
    grid: Grid1D,
    M: float,
    radius: float,
    L: float,
    g: float,
) -> list[tuple[Frequency, float | None]]:
    """S(xi) on the lattice points with xi1 > 0, xi2 >= 0 and |xi| <= radius.

    The rows are the sweep's lattice points with i >= 1 and j >= 0, in the
    sweep's order; a row without a threshold carries None.  The pencil
    depends on xi only through the slope xi2/xi1, so it is solved once per
    lattice direction (i, j)/gcd(i, j), at that reduced point, and rows of
    one slope share the value.  The directions are solved in slope order,
    each solve starting from the eigenvector of the last one with a
    threshold and certified like a cold solve.
    """
    points = [(i, j) for i, j in _lattice(radius, L) if i >= 1 and j >= 0]
    bands = _horizontal_bands(profile, grid)

    def direction(i: int, j: int) -> tuple[int, int]:
        k = math.gcd(i, j)
        return i // k, j // k

    s_of: dict[tuple[int, int], float | None] = {}
    start = None
    for i, j in sorted({direction(i, j) for i, j in points}, key=lambda p: p[1] / p[0]):
        xi = Frequency.lattice(i, j, L)
        s_of[(i, j)] = None
        if M * xi.xi1 != 0.0:
            pair = _horizontal_pair(bands, xi, M, g, start)
            if pair is not None:
                start = pair.vec
                s_of[(i, j)] = float(np.sqrt(pair.value))
    return [(Frequency.lattice(i, j, L), s_of[direction(i, j)]) for i, j in points]


def critical_freq_vertical(
    profile: DensityProfile, grid: Grid1D, M: float, g: float
) -> float:
    """Threshold |xi|_vc for a vertical field; instability requires |xi| > it.

    With t = |xi|^2 and K the gradient stiffness, t times the vertical E0 is
    A - t B with A = M^2 D2^T D2 (positive definite) and
    B = g drho mass - M^2 K.  So E0 is positive definite exactly when
    t < 1/mu, mu the largest eigenvalue of (B, A), and |xi|_vc = 1/sqrt(mu):
    one eigen-solve on the bands that ``assemble_forms`` builds E0 from.  A
    positive total density jump makes the threshold zero; no positive mu
    means the field is at or above critical.
    """
    if profile.total_jump > 0:
        return 0.0
    if M == 0.0:
        raise OutOfRange("the vertical threshold needs M != 0")
    bands = _e0_bands(profile, grid, g, True)
    m2 = M * M
    a = band_combine([(m2, bands.d2_gram)])
    minus_b = band_combine([(1.0, bands.buoyancy), (m2, bands.k_grad)])
    pair = top_root((minus_b, a), a, 0.0)
    if pair is None:
        raise OutOfRange(
            f"E0 is positive definite at every |xi|: M = {M:.6g} is at or above "
            "the critical field strength"
        )
    return float(1.0 / np.sqrt(pair.value))


# --- lattice sweep -----------------------------------------------------------


@dataclass(frozen=True)
class DispersionEntry:
    xi1: float
    xi2: float
    member: bool
    lam: float | None


@dataclass(frozen=True)
class DispersionTable:
    entries: tuple[DispersionEntry, ...]
    lattice_radius: float
    params: PhysicalParams


@dataclass(frozen=True)
class SupRate:
    lam_max: float
    xi_pair: tuple[Frequency, Frequency]
    lam_star: float
    on_boundary: bool


def default_sweep_radius(profile: DensityProfile) -> float:
    """Four fundamental wavelengths of the derivative support width."""
    lo, hi = profile.support
    return 4.0 * 2.0 * math.pi / (hi - lo)


def _lattice(radius: float, L: float) -> list[tuple[int, int]]:
    """Index pairs (i, j) of the lattice points with 0 < |xi| <= radius, sorted."""
    kmax = int(math.floor(radius * L + 1e-12))
    span = range(-kmax, kmax + 1)
    return [
        (i, j)
        for i in span
        for j in span
        if (i, j) != (0, 0) and math.hypot(i, j) <= radius * L + 1e-12
    ]


def lattice_sweep(
    profile: DensityProfile,
    grid: Grid1D,
    mag: MagneticConfig,
    params: PhysicalParams,
    radius: float,
) -> DispersionTable:
    """Membership and growth rate on all lattice points with 0 < |xi| <= radius.

    The forms read xi only through ``forms.form_key``, so the forms of each
    distinct key are assembled once, and membership and rate are decided on
    them once; every point with that key takes the result.  Membership is
    ``in_growing_domain``; a member whose rate is not resolved (``growth_rate``
    returns None) stays a member, with lam None.  The lattice is
    walked backwards, so each key is solved at a point with xi1, xi2 >= 0.
    A point whose solve fails raises; no point is left out of the table.
    """
    if radius <= 0:
        raise ValueError("sweep radius must be positive")
    solved: dict[tuple[float, float], tuple[bool, float | None]] = {}
    entries = []
    for i, j in reversed(_lattice(radius, params.L)):
        xi = Frequency.lattice(i, j, params.L)
        key = form_key(xi, mag)
        if key not in solved:
            forms = assemble_forms(profile, grid, xi, mag, params)
            member = in_growing_domain(forms)
            res = growth_rate(forms) if member else None
            solved[key] = (member, None if res is None else res.lam)
        entries.append(DispersionEntry(xi.xi1, xi.xi2, *solved[key]))
    return DispersionTable(
        entries=tuple(reversed(entries)), lattice_radius=radius, params=params
    )


def sup_rate(table: DispersionTable) -> SupRate:
    """Largest swept rate and the +-xi pair attaining it (deterministic ties)."""
    members = [e for e in table.entries if e.member and e.lam is not None]
    if not members:
        raise EmptyDomain(
            f"no growing frequency inside radius {table.lattice_radius:.6g}"
        )
    lam_max = max(e.lam for e in members)
    # ties broken by smallest |xi| then lexicographic (xi1, xi2)
    best = min(
        (e for e in members if e.lam >= lam_max),
        key=lambda e: (math.hypot(e.xi1, e.xi2), e.xi1, e.xi2),
    )
    xi1 = Frequency(best.xi1, best.xi2)
    spacing = 1.0 / table.params.L
    on_boundary = xi1.norm > table.lattice_radius - spacing
    return SupRate(
        lam_max=lam_max,
        xi_pair=(xi1, -xi1),
        lam_star=best.lam,
        on_boundary=on_boundary,
    )


# --- the dispersion.csv file ----------------------------------------------------

_TABLE_HEADER = ("xi1", "xi2", "member", "lambda")


def write_table(path: str, table: DispersionTable) -> None:
    """dispersion.csv: per lattice point xi1, xi2, member 0/1 and the rate,
    empty where there is none."""
    rows = ((e.xi1, e.xi2, int(e.member), e.lam) for e in table.entries)
    write_csv(path, _TABLE_HEADER, rows)


def read_table(
    path: str, radius: float, params: PhysicalParams, profile: DensityProfile
) -> DispersionTable:
    """The table ``write_table`` wrote for the sweep of this radius and L on
    this profile, bitwise.  Raises ValueError unless the header is the
    writer's, every member flag is 0 or 1, the rows are the sweep's lattice
    points, each once and in order, so no point of the sweep goes missing,
    and every rate is one ``growth_rate`` returns: a member's, positive and
    at most sqrt(g sup drho/rho) (1 + 1e-6)."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[:1] != [",".join(_TABLE_HEADER)]:
        raise ValueError(f"{path} does not start with the header {_TABLE_HEADER}")
    points = _lattice(radius, params.L)
    if len(lines) - 1 != len(points):
        raise ValueError(f"{path} has {len(lines) - 1} rows for {len(points)} points")
    cap = math.sqrt(params.g * profile.sup_ratio) * (1.0 + 1e-6)
    entries = []
    for (i, j), line in zip(points, lines[1:]):
        xi = Frequency.lattice(i, j, params.L)
        x1, x2, member, lam = line.split(",")
        if (float(x1), float(x2)) != (xi.xi1, xi.xi2) or member not in ("0", "1"):
            raise ValueError(f"{path}: row {line!r} is not ({i}, {j}) with a 0/1 flag")
        rate = float(lam) if lam else None
        # the comparison is False for NaN, and an infinite rate exceeds the cap
        if rate is not None and not (member == "1" and 0.0 < rate <= cap):
            raise ValueError(f"{path}: row {line!r} has a rate no sweep writes")
        entries.append(DispersionEntry(xi.xi1, xi.xi2, member == "1", rate))
    return DispersionTable(tuple(entries), radius, params)
