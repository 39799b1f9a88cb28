"""Cross-validation by direct time integration of the linearized equations.

The linearized system block-diagonalizes over horizontal frequencies, so one
frequency evolves as a 1D complex system in x3.  A Crank-Nicolson step treats
every term implicitly at the half step: the density and induction updates are
affine in the new velocity, so they are eliminated analytically and the step
becomes one solve for (u, q) with the incompressibility row kept as an exact
constraint (pressure as multiplier).

That solve is reduced exactly.  The horizontal velocity is rotated into chi
along xi and omega across it.  The divergence row i|xi| chi + D1 u3 = 0 gives
chi = i D1 u3 / |xi|, and the momentum row along xi, in which the pressure
enters as i|xi| q, fixes q; the vertical row less D1 of it is free of q.
One sparse system in (u3, omega) remains, 2n rows, factored once per
stepper, and the pressure is never formed.

The stepper works on the stacked column z = [rho; u3; omega; chi; N_chi;
N_omega; N3] (7n rows, one column per solution), the only state this module
steps.  chi is carried so that the velocity is one contiguous row range:
``norms`` reduces the rho, u and N row ranges in one pass, and ``unpack``,
which reads a column back in the lab frame, is a pure rotation.  The whole
step is two sparse products around one factored solve: ``rhs`` (2n x 7n)
maps z to the right-hand side of the (u3, omega) system, and ``update``
(7n x 9n) maps [z; u3+; omega+] to the new z, chi+ = i D1 u3+ / |xi| being
one of its row blocks.  Both operators are assembled from stencil blocks.
The induction and Lorentz blocks are ``modes.magnetic_coupling`` in the
rotated frame, where the gradient is (i |xi|, 0, D) and the field is M e
rotated, (xi1, -xi2, 0) M / |xi| for e = e1; no other block sees the field.

``eigenmode_column`` builds the column of a normal mode at t = 0 and
``_seed_block`` the columns of the random seeds of the sharpness test.  A
run reads xi only through |xi|^2 and the rotated field b, and its step is
unchanged under b -> -b with N -> -N, so a stepped problem is (|xi|^2, b up
to sign, dt, T) (``_problem``).  ``march_norms`` builds one stepper per
distinct problem and marches the columns of all its runs as one block,
the N rows of a run of the opposite field negated, recording only the
norms, which are even in N.  The sharpness test draws each seed once, in
(rho, u3, omega), so frequencies that share a problem step identical data
and add one run; the eigenmode run of ``cross_check``, the one driver of
``rtmhd verify``, joins the sharpness run of its problem when there is one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import modes, stats
from .artifacts import write_csv
from .dispersion import DispersionTable, sup_rate
from .errors import (
    ConfigError,
    DegenerateSeries,
    RateMismatch,
    RtmhdError,
    SharpnessViolation,
    SolverSingular,
    ZeroFrequency,
)
from .growth import GrowthResult
from .operators import (
    Blocks,
    block_combine,
    block_compose,
    block_sparse,
    d1_stencil,
    d2_stencil,
    diagonal_stencil,
)
from .profiles import (
    DensityProfile,
    Frequency,
    Grid1D,
    MagneticConfig,
    PhysicalParams,
)

__all__ = [
    "RateEstimate",
    "LinearEvolver",
    "march_norms",
    "eigenmode_column",
    "measured_rate",
    "default_schedule",
    "CrossCheck",
    "cross_check",
    "sharpness_test",
    "write_series",
]

RATE_SLACK = 0.02  # admissible relative overshoot of a measured rate
RATE_RTOL = 0.02  # admissible relative error of a normal mode's measured rate
MIN_RATE_SAMPLES = 10  # fewest norm samples ``measured_rate`` fits
CN_RATE_BUDGET = RATE_RTOL / 10  # most CN rate error (lam dt)^2 / 12 of a default dt
HORIZON = 3.0  # a run at rate lambda goes to T = HORIZON / lambda by default
MAX_STEPS = 100_000  # most steps T / dt that ``cross_check`` takes on one run
# most e-folds lambda T of the eigenmode run: its squared norms grow by
# e^(2 lambda T) <= 1e260, which leaves 48 decades of the float range
MAX_EFOLDS = 300.0
MODE_TOL = 1e-2  # loose mode residual gate: the time integration is the check
SHARPNESS_ORBITS = 8  # strongest member sign orbits the sharpness check runs


def splu(a):
    """scipy's sparse LU of ``a``; ``scipy.sparse`` is imported on first use."""
    from scipy.sparse.linalg import splu

    return splu(a)


def _place(blocks: Blocks, row: int, col: int) -> Blocks:
    """The blocks shifted down by ``row`` and right by ``col`` block places."""
    return {(i + row, j + col): st for (i, j), st in blocks.items()}


def _rotate(unit: tuple[float, float], v):
    """Components (chi, omega, x3) of the lab-frame vector v, chi along
    ``unit``; the rotation by (e1, -e2) undoes the one by (e1, e2)."""
    e1, e2 = unit
    return (e1 * v[0] + e2 * v[1], -e2 * v[0] + e1 * v[1], v[2])


def _unit(xi: Frequency) -> tuple[float, tuple[float, float]]:
    """|xi| and the unit vector along xi."""
    if xi.is_zero():
        raise ZeroFrequency("the time-step reduction needs |xi| > 0")
    k = float(np.sqrt(xi.norm2))
    return k, (xi.xi1 / k, xi.xi2 / k)


def _frame(mag: MagneticConfig, xi: Frequency):
    """|xi|, the unit vector along xi, and the background field in the (chi,
    omega, x3) frame, in which the gradient is (i |xi|, 0, D)."""
    k, unit = _unit(xi)
    return k, unit, tuple(mag.magnitude * e for e in _rotate(unit, mag.direction()))


def _stepped(grid: Grid1D, k: float, rho, u3, omega, N) -> np.ndarray:
    """The stepped state [rho; u3; omega; chi; N] of one column, N in the
    rotated frame; chi = i D1 u3 / |xi| closes the divergence row."""
    chi = (1j / k) * d1_stencil(grid).apply(u3)
    return np.concatenate([rho, u3, omega, chi, N])


def eigenmode_column(mode: modes.NormalMode) -> np.ndarray:
    """The stepped state (7n,) of the growing mode at t = 0, in the frame of
    its xi; its velocity along xi is set from u3 by the divergence row."""
    f = modes.mode_fields(mode)
    k, unit = _unit(mode.forms.xi)
    _, omega, u3 = _rotate(unit, (f["u1"], f["u2"], f["u3"]))
    N = _rotate(unit, (f["N1"], f["N2"], f["N3"]))
    return _stepped(mode.forms.grid, k, f["rho"], u3, omega, np.concatenate(N))


class LinearEvolver:
    """Factored Crank-Nicolson stepper for one frequency and step size.

    With A the velocity operator at dt/2 weight (viscosity, the Lorentz force
    of the induced field and the buoyancy of the advected density), the step
    is (rho/dt - A) u+ + grad q = (rho/dt + A) u + F N - g rho e3, div u+ = 0,
    reduced to one system in (u3, omega) as above, chi = c D1 u3, c = i/|xi|.
    """

    def __init__(
        self,
        profile: DensityProfile,
        mag: MagneticConfig,
        params: PhysicalParams,
        grid: Grid1D,
        xi: Frequency,
        dt: float,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        k, self._unit, field = _frame(mag, xi)
        n = grid.n
        x = grid.points()
        rho = profile.rho(x)
        drho = profile.drho(x)
        c = 1j / k

        ident = diagonal_stencil(np.ones(n))
        d1 = d1_stencil(grid)
        lap = d2_stencil(grid) + (-xi.norm2) * ident
        # induction N_t = T u and Lorentz force F N on (chi, omega, x3)
        t_op, f_op = modes.magnetic_coupling(field, Frequency(k, 0.0), grid)

        a_op = block_combine(
            (0.5 * params.mu, {(i, i): lap for i in range(3)}),
            (0.25 * dt, block_compose(f_op, t_op)),
            (0.25 * dt, {(2, 2): diagonal_stencil(params.g * drho)}),
        )
        rho_dt = {(i, i): diagonal_stencil(rho / dt) for i in range(3)}
        # (u3, omega) -> (chi, omega, u3): chi = c D1 u3 zeroes i k chi + D1 u3
        span = {(0, 0): c * d1, (1, 1): ident, (2, 0): ident}
        # rows that cancel the pressure gradient (i k q, 0, D1 q)
        cancel = {(0, 0): c * d1, (0, 2): ident, (1, 1): ident}
        lhs = block_compose(block_combine((1.0, rho_dt), (-1.0, a_op)), span)
        system = block_sparse(block_compose(cancel, lhs), (2, 2)).tocsc()
        stats.counts["cn_factors"] += 1
        try:
            self._lu = splu(system)
        except RuntimeError as exc:
            raise SolverSingular(
                f"time-step system is singular at dt = {dt:g}: {exc}"
            ) from exc

        # momentum right-hand side on z = [rho; u3; omega; chi; N_chi;
        # N_omega; N3], chi read through u3 as in the implicit half
        explicit = block_compose(block_combine((1.0, rho_dt), (1.0, a_op)), span)
        rhs = block_combine(
            (-params.g, {(2, 0): ident}),
            (1.0, _place(explicit, 0, 1)),
            (1.0, _place(f_op, 0, 4)),
        )
        self._rhs = block_sparse(block_compose(cancel, rhs), (2, 7))
        # [z; u3+; omega+] -> z+: rho+ = rho - (dt/2) drho (u3 + u3+),
        # chi+ = c D1 u3+ and N+ = N + (dt/2) T (u + u+)
        t_u = block_compose(t_op, span)
        half_drho = diagonal_stencil(-0.5 * dt * drho)
        moves = {(0, 0): ident, (0, 1): half_drho, (0, 7): half_drho, (1, 7): ident}
        moves.update({(2, 8): ident, (3, 7): c * d1})
        moves.update({(i, i): ident for i in (4, 5, 6)})
        self._update = block_sparse(
            block_combine(
                (1.0, moves),
                (0.5 * dt, _place(t_u, 4, 1)),
                (0.5 * dt, _place(t_u, 4, 7)),
            ),
            (7, 9),
        )
        # row ranges of rho, u = (u3, omega, chi) and N in z
        self._ranges = np.array([0, n, 4 * n])
        self.grid = grid
        self.xi = xi
        self.dt = dt
        self._n = n

    def step(self, z: np.ndarray) -> np.ndarray:
        """z at the new time, for a stacked state z of shape (7n,) or (7n, k)."""
        stats.counts["cn_steps"] += 1
        sol = self._lu.solve(self._rhs @ z)
        return self._update @ np.concatenate([z, sol])

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, u, N) of a stepped state, u and N of shape (3, n)."""
        n = self._n
        e1, e2 = self._unit
        rows = (3, n, *z.shape[1:])
        # rows n..4n hold (u3, omega, chi), the reverse of (chi, omega, x3)
        u = _rotate((e1, -e2), z[n : 4 * n].reshape(rows)[::-1])
        N = _rotate((e1, -e2), z[4 * n :].reshape(rows))
        return z[:n], np.stack(u), np.stack(N)

    def norms(self, z: np.ndarray) -> np.ndarray:
        """Norms (rho, u, N) of each column of a stepped state, shape (3,) or
        (3, k)."""
        squares = z.real**2 + z.imag**2
        return np.sqrt(self.grid.h * np.add.reduceat(squares, self._ranges, axis=0))


def time_steps(dt: float, T: float) -> int:
    """Number of steps of size dt that march a state to time T."""
    return max(1, int(round(T / dt)))


def _budget_steps(efolds: float) -> int:
    """Fewest steps over lam T = efolds with (lam dt)^2 / 12 <= CN_RATE_BUDGET
    and a rate fit's samples; counted to MAX_STEPS + 1 (more are refused)."""
    fewest = min(efolds / math.sqrt(12 * CN_RATE_BUDGET), MAX_STEPS + 1)
    return max(MIN_RATE_SAMPLES - 1, math.ceil(fewest))


def default_schedule(lam: float, T: float) -> float:
    """Step of a run to time T at rate lam: the coarsest dt = T / steps, of
    at least MIN_RATE_SAMPLES - 1 steps, with (lam dt)^2 / 12 <= CN_RATE_BUDGET.

    Crank-Nicolson multiplies a mode of rate lam by (1 + lam dt/2) / (1 -
    lam dt/2) = exp(lam dt (1 + (lam dt)^2 / 12 + ...)), so the measured
    rate is off by the relative (lam dt)^2 / 12.  At T = 3/lam this is 20
    steps and (3/20)^2 / 12 = 1.9e-3, and ``_march`` samples every step.
    """
    return T / _budget_steps(lam * T)


def _march(stepper: LinearEvolver, z: np.ndarray, T: float):
    """Step z from t = 0 to T, yielding (t, z) at the last step and every
    n_steps // 20 steps, or every step (20 the steps of a default run)."""
    n_steps = time_steps(stepper.dt, T)
    every = max(1, n_steps // _budget_steps(HORIZON))
    t = 0.0
    for k in range(1, n_steps + 1):
        z = stepper.step(z)
        t += stepper.dt
        if k % every == 0 or k == n_steps:
            yield t, z


def _problem(mag: MagneticConfig, xi: Frequency, dt: float, T: float):
    """The key of the problem a run of step dt to time T steps, and the sign
    of its field.  The run reads of xi only |xi|^2 and the rotated field b,
    and its step is unchanged under b -> -b with N -> -N, so the key holds b
    up to sign: its first nonzero component made positive."""
    field = _frame(mag, xi)[2]
    sign = -1.0 if next((b for b in field if b != 0.0), 0.0) < 0.0 else 1.0
    return (xi.norm2, *(sign * b for b in field), dt, T), sign


def march_norms(
    profile: DensityProfile,
    mag: MagneticConfig,
    params: PhysicalParams,
    grid: Grid1D,
    runs: list[tuple[Frequency, float, float, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The norm series of each run (xi, dt, T, z), z a block (7n, k) of
    stepped states at xi, stepped from t = 0 to T.

    The runs of one stepped problem (equal ``_problem`` keys) share one
    stepper and one march, their columns side by side, the N rows of a run
    whose field is opposite to the first run's negated.  Returns, per run,
    the sample times, t = 0 and those where ``_march`` records, and the
    norms (rho, u, N) there, of shape (samples, 3, k).
    """
    problems: dict[tuple, list[tuple[int, float]]] = {}
    for i, (xi, dt, T, _) in enumerate(runs):
        key, sign = _problem(mag, xi, dt, T)
        problems.setdefault(key, []).append((i, sign))
    out: list = [None] * len(runs)
    for members in problems.values():
        first, sign = members[0]
        xi, dt, T, _ = runs[first]
        stepper = LinearEvolver(profile, mag, params, grid, xi, dt)
        blocks = [runs[i][3] for i, _ in members]
        z = np.concatenate(blocks, axis=1)
        flips = [np.full(b.shape[1], s * sign) for b, (_, s) in zip(blocks, members)]
        z[4 * grid.n :] *= np.concatenate(flips)
        times, norms = [0.0], [stepper.norms(z)]
        for t, zk in _march(stepper, z, T):
            times.append(t)
            norms.append(stepper.norms(zk))
        ends = np.cumsum([b.shape[1] for b in blocks])[:-1]
        for (i, _), part in zip(members, np.split(np.array(norms), ends, axis=2)):
            out[i] = (np.array(times), part)
    return out


@functools.lru_cache(maxsize=4)
def _smooth_basis(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The bump window supported inside 80% of the truncated domain and the
    rows sin(k phase), k = 1..6, built once per grid and read-only."""
    x = grid.points()
    s = x / (0.8 * grid.half_length)
    window = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    window[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    phase = np.pi * (x + grid.half_length) / (2.0 * grid.half_length)
    sines = np.array([np.sin(k * phase) for k in range(1, 7)])
    window.flags.writeable = sines.flags.writeable = False
    return window, sines


def _random_smooth_compact(grid: Grid1D, rng: np.random.Generator) -> np.ndarray:
    """Random C^inf profile supported inside 80% of the truncated domain: the
    window times six sines with standard complex normal weights."""
    window, sines = _smooth_basis(grid)
    out = np.zeros(grid.n, dtype=complex)
    for sine in sines:
        a, b = rng.standard_normal(2)
        out += (a + 1j * b) * sine
    return window * out


def _seed_profiles(grid: Grid1D, seed: int) -> tuple[np.ndarray, ...]:
    """The random (u3, beta, rho) profiles of one seed."""
    rng = np.random.default_rng(seed)
    return tuple(_random_smooth_compact(grid, rng) for _ in range(3))


def _seed_block(grid: Grid1D, xi: Frequency, profiles) -> np.ndarray:
    """Random smooth divergence-free data, one stepped column per seed's
    ``_seed_profiles`` (u3, beta, rho): the swirl is omega = -i |xi| beta,
    chi = i D1 u3 / |xi| closes the divergence row, and N starts at zero.
    Frequencies of equal |xi| share the same data."""
    k = float(np.sqrt(xi.norm2))
    zero = np.zeros(3 * grid.n, dtype=complex)
    return np.stack(
        [_stepped(grid, k, rho, u3, -1j * k * beta, zero) for u3, beta, rho in profiles],
        axis=1,
    )


@dataclass
class RateEstimate:
    """Least-squares exponential rate over the last half of a norm series."""

    times: np.ndarray
    norms: np.ndarray
    rate: float
    fit_residual: float


def measured_rate(samples: list[tuple[float, float]]) -> RateEstimate:
    """Fit log(norm) ~ a + rate * t on the last 50% of the samples."""
    if len(samples) < MIN_RATE_SAMPLES:
        raise ValueError(f"need at least {MIN_RATE_SAMPLES} samples to fit a rate")
    t = np.array([s[0] for s in samples])
    v = np.array([s[1] for s in samples])
    if not np.all(np.isfinite(v)):
        raise DegenerateSeries("norm series contains non-finite values")
    if np.any(v <= 0.0):
        raise DegenerateSeries("norm series contains non-positive values")
    half = len(t) // 2
    tt, vv = t[half:], np.log(v[half:])
    if not tt @ tt > 0.0:  # polyfit scales the times by their norm
        raise DegenerateSeries("sample times too small to fit a rate")
    coeffs = np.polyfit(tt, vv, 1)
    fit = np.polyval(coeffs, tt)
    rms = float(np.sqrt(np.mean((vv - fit) ** 2)))
    return RateEstimate(times=t, norms=v, rate=float(coeffs[0]), fit_residual=rms)


def _sharpness_runs(
    mag: MagneticConfig,
    grid: Grid1D,
    seeds: list[int],
    xi_rates: dict[Frequency, float],
    horizon: float,
):
    """The runs (xi, dt, T, z) of ``sharpness_test``, one per stepped problem,
    a column per seed, and its checks (xi, lambda, run index) in check order."""
    profiles = [_seed_profiles(grid, s) for s in seeds]
    runs, checks, index = [], [], {}
    for xi, lam in sorted(xi_rates.items(), key=lambda kv: (kv[0].xi1, kv[0].xi2)):
        T = horizon / lam
        dt = default_schedule(lam, T)
        key, _ = _problem(mag, xi, dt, T)  # N = 0 is its own negation
        if key not in index:
            index[key] = len(runs)
            runs.append((xi, dt, T, _seed_block(grid, xi, profiles)))
        checks.append((xi, lam, index[key]))
    return runs, checks


def _sharpness_verdict(
    lam_cap: float,
    seeds: list[int],
    checks: list[tuple[Frequency, float, int]],
    series: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    """``sharpness_test``'s verdict on the ``march_norms`` series of the runs
    of its checks."""
    worst = -np.inf
    for xi, lam, run in checks:
        times, norms = series[run]
        for i, seed in enumerate(seeds):
            est = measured_rate(list(zip(times, norms[:, 1, i])))
            if est.rate > lam * (1.0 + RATE_SLACK):
                raise SharpnessViolation(
                    f"seed {seed}, xi = ({xi.xi1:g}, {xi.xi2:g}): measured "
                    f"{est.rate:.6g} exceeds bound {lam:.6g} * (1 + {RATE_SLACK})"
                )
            worst = max(worst, est.rate)
    if worst > lam_cap * (1.0 + RATE_SLACK):
        raise SharpnessViolation(
            f"max measured rate {worst:.6g} exceeds the sweep bound {lam_cap:.6g}"
        )
    return float(worst)


def sharpness_test(
    profile: DensityProfile,
    mag: MagneticConfig,
    params: PhysicalParams,
    grid: Grid1D,
    lam_cap: float,
    seeds: list[int],
    xi_rates: dict[Frequency, float],
    horizon: float = HORIZON,
) -> float:
    """Evolve random data at each frequency; rates must respect their bounds.

    xi_rates maps each swept member frequency to its predicted rate.  Raises
    SharpnessViolation if any measured rate exceeds lambda(xi) * (1 + 2%),
    or the largest lam_cap * (1 + 2%).  Frequencies sharing a stepped problem
    are stepped once.  Returns the largest measured rate.

    Each problem runs to horizon / lambda on ``default_schedule``.  Its
    error bound presumes smooth seeds, as ``_seed_profiles`` draws them:
    Crank-Nicolson is not L-stable, so grid-scale content is not damped but
    flips sign each step, and content of order one moves the rates by up to
    about 0.034 lambda at n = 801.  Rough seeds would need an L-stable step
    such as TR-BDF2, not more steps.
    """
    runs, checks = _sharpness_runs(mag, grid, seeds, xi_rates, horizon)
    series = march_norms(profile, mag, params, grid, runs)
    return _sharpness_verdict(lam_cap, seeds, checks, series)


@dataclass(frozen=True)
class CrossCheck:
    """``cross_check``'s findings: the eigenmode run's report and norm series
    (samples, 3), the sharpness report unless a verdict failed, and the
    first verdict that failed, the rate's before the sharpness'."""

    rate: dict
    times: np.ndarray
    norms: np.ndarray
    sharpness: dict | None = None
    failure: RtmhdError | None = None


def cross_check(
    result: GrowthResult,
    table: DispersionTable,
    seeds: list[int],
    dt: float | None = None,
    T: float | None = None,
) -> CrossCheck:
    """Time-integrate the mode of ``result`` (RateMismatch unless it grows
    at its rate within RATE_RTOL), then ``sharpness_test`` the seeds at the
    SHARPNESS_ORBITS strongest member sign orbits of the sweep ``table``.
    The eigenmode's T and dt default as the sharpness runs'; ConfigError,
    before any factorization, if T / dt is not finite, above MAX_STEPS or
    gives too few samples, or if lambda T is above MAX_EFOLDS."""
    forms, xi, lam, seeds = result.forms, result.forms.xi, result.lam, list(seeds)
    T = HORIZON / lam if T is None else T
    dt = default_schedule(lam, T) if dt is None else dt
    if not T / dt <= MAX_STEPS:
        raise ConfigError(f"verify T = {T:g}, dt = {dt:g}: more than {MAX_STEPS} steps")
    steps = time_steps(dt, T)  # the march records every step below 40
    if steps + 1 < MIN_RATE_SAMPLES:
        need = MIN_RATE_SAMPLES - 1
        raise ConfigError(f"verify T = {T:g}, dt = {dt:g}: {steps} steps, need {need}")
    if not lam * T <= MAX_EFOLDS:
        raise ConfigError(
            f"verify T = {T:g}: the mode grows by lambda T = {lam * T:.4g} e-folds, "
            f"more than the {MAX_EFOLDS:g} its norms can hold"
        )
    init = eigenmode_column(modes.build_mode(result, mode_tol=MODE_TOL))[:, None]
    # the rate is even in each component: (|xi1|, |xi2|) for each sign orbit
    rated = (e for e in table.entries if e.member and e.lam is not None)
    orbits = {Frequency(abs(e.xi1), abs(e.xi2)): e.lam for e in rated}
    ranked = sorted(
        orbits.items(), key=lambda kv: (-kv[1], kv[0].norm, kv[0].xi1, kv[0].xi2)
    )[:SHARPNESS_ORBITS]
    runs, checks = _sharpness_runs(forms.mag, forms.grid, seeds, dict(ranked), HORIZON)
    (times, norms), *series = march_norms(
        forms.profile, forms.mag, forms.params, forms.grid, [(xi, dt, T, init), *runs]
    )
    est = measured_rate(list(zip(times, norms[:, 1, 0])))
    rel_err = abs(est.rate - lam) / lam
    rate = {
        "xi": [xi.xi1, xi.xi2],
        "lambda_pred": lam,
        "lambda_meas": est.rate,
        "rel_err": rel_err,
        "fit_residual": est.fit_residual,
        "dt": dt,
        "T": T,
        "steps": steps,
        # relative rate error of one Crank-Nicolson step
        "cn_rate_err": (lam * dt) ** 2 / 12.0,
    }
    lam_cap = sup_rate(table).lam_max
    try:
        if not rel_err <= RATE_RTOL:
            raise RateMismatch(
                f"xi = ({xi.xi1:g}, {xi.xi2:g}): measured rate {est.rate:.6g} misses "
                f"lambda = {lam:.6g} by {rel_err:.3e} > {RATE_RTOL} relative "
                f"(dt = {dt:g}, T = {T:g})"
            )
        worst = _sharpness_verdict(lam_cap, seeds, checks, series)
    except (RateMismatch, DegenerateSeries, SharpnessViolation) as exc:
        return CrossCheck(rate, times, norms[:, :, 0], failure=exc)
    sharpness = {
        "Lambda": lam_cap,
        "max_measured_rate": worst,
        "ratio": worst / lam_cap,
        "seeds": seeds,
        "frequencies": [[x.xi1, x.xi2] for x, _ in ranked],
    }
    return CrossCheck(rate, times, norms[:, :, 0], sharpness)


def write_series(path: str, times: np.ndarray, norms: np.ndarray) -> None:
    """A norm series as CSV: times (samples,), norms (samples, 3) in the
    order (rho, u, N)."""
    rows = np.column_stack([times, norms]).tolist()
    write_csv(path, ("t", "norm_rho", "norm_u", "norm_N"), rows)
