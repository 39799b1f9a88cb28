"""Cross-validation by direct time integration of the linearized equations.

The linearized system block-diagonalizes over horizontal frequencies, so one
frequency evolves as a 1D complex system in x3.  A Crank-Nicolson step treats
every term implicitly at the half step: the density and induction updates are
affine in the new velocity, so they are eliminated analytically and the step
reduces to one sparse solve for (u, q) with the incompressibility row kept as
an exact constraint (pressure as multiplier).

The stepper works on the stacked state z = [rho; u1; u2; u3; N1; N2; N3]
(7n rows, one column per solution).  The whole step is two sparse products
around one factored solve: ``rhs`` (4n x 7n) maps z to the right-hand side
of the (u, q) system, and ``update`` (7n x 11n) maps [z; u+; q] to the new z.
The sharpness test steps all random seeds of one frequency as the columns
of one block, so each frequency is factored once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DegenerateSeries, SharpnessViolation, SolverSingular
from .modes import NormalMode, mode_fields, relative_divergence
from .operators import d1_free_stencil, d1_stencil, d2_stencil
from .profiles import (
    DensityProfile,
    Frequency,
    Grid1D,
    MagneticConfig,
    Orientation,
    PhysicalParams,
)

__all__ = [
    "LinearState",
    "RateEstimate",
    "LinearEvolver",
    "evolve",
    "eigenmode_state",
    "random_divfree_state",
    "measured_rate",
    "sharpness_test",
    "series_to_csv",
]

RATE_SLACK = 0.02  # admissible relative overshoot of a measured rate
MIN_RATE_SAMPLES = 10  # fewest norm samples ``measured_rate`` fits


@dataclass
class LinearState:
    """Complex vertical profiles of all perturbation fields at frequency xi."""

    xi: Frequency
    grid: Grid1D
    t: float
    rho: np.ndarray
    u: np.ndarray  # shape (3, n)
    N: np.ndarray  # shape (3, n)
    q: np.ndarray

    def copy(self) -> "LinearState":
        return replace(
            self, rho=self.rho.copy(), u=self.u.copy(), N=self.N.copy(), q=self.q.copy()
        )

    def norm_u(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.u) ** 2)))

    def norm_rho(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.rho) ** 2)))

    def norm_N(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.N) ** 2)))

    def divergence_u(self) -> float:
        return relative_divergence(self.u, self.xi, self.grid)

    def divergence_N(self) -> float:
        return relative_divergence(self.N, self.xi, self.grid)


class LinearEvolver:
    """Factored Crank-Nicolson stepper for one frequency and step size.

    With A the velocity operator at dt/2 weight (viscosity, the Lorentz force
    of the induced field and the buoyancy of the advected density), the solve
    is (rho/dt - A) u+ + grad q = (rho/dt + A) u + F N - g rho e3, div u+ = 0.
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
        n = grid.n
        x = grid.points()
        rho = profile.rho(x)
        drho = profile.drho(x)
        M = mag.magnitude

        ident = sp.identity(n, format="csr", dtype=complex)
        zero = sp.csr_matrix((n, n), dtype=complex)
        d1 = d1_stencil(grid).sparse().astype(complex)
        d1f = d1_free_stencil(grid).sparse().astype(complex)
        lap = d2_stencil(grid).sparse() - xi.norm2 * sp.identity(n, format="csr")

        # induction operator T: N_t = T u, and Lorentz force F N
        if mag.orientation is Orientation.HORIZONTAL:
            t_op = sp.block_diag([1j * M * xi.xi1 * ident] * 3)
            f_op = sp.bmat(
                [
                    [None, None, zero],
                    [-1j * M * xi.xi2 * ident, 1j * M * xi.xi1 * ident, None],
                    [-M * d1f, None, 1j * M * xi.xi1 * ident],
                ]
            )
        else:
            t_op = sp.block_diag([M * d1] * 3)
            f_op = sp.bmat(
                [
                    [M * d1f, None, -1j * M * xi.xi1 * ident],
                    [None, M * d1f, -1j * M * xi.xi2 * ident],
                    [None, None, zero],
                ]
            )

        buoy = sp.block_diag([zero, zero, sp.diags(params.g * drho)])
        a_op = 0.5 * params.mu * sp.block_diag([lap] * 3) + 0.25 * dt * (
            f_op @ t_op + buoy
        )
        rho_dt = sp.diags(np.tile(rho / dt, 3))
        grad = sp.vstack([1j * xi.xi1 * ident, 1j * xi.xi2 * ident, d1])
        div = sp.hstack([1j * xi.xi1 * ident, 1j * xi.xi2 * ident, d1])
        system = sp.bmat([[rho_dt - a_op, grad], [div, None]], format="csc")
        system.eliminate_zeros()
        try:
            self._lu = splu(system)
        except RuntimeError as exc:
            raise SolverSingular(
                f"time-step system is singular at dt = {dt:g}: {exc}"
            ) from exc

        # rows u of the right-hand side; the divergence rows are zero
        g_col = sp.vstack([zero, zero, -params.g * ident])
        self._rhs = sp.bmat(
            [[g_col, rho_dt + a_op, f_op], [zero, None, None]], format="csr"
        )
        # [z; u+; q] -> z+: rho+ = rho - (dt/2) drho (u3 + u3+), u+ from the
        # solve, N+ = N + (dt/2) T (u + u+)
        d_u3 = sp.hstack([zero, zero, sp.diags(-0.5 * dt * drho)])
        ident3 = sp.identity(3 * n, dtype=complex)
        self._update = sp.bmat(
            [
                [ident, d_u3, None, d_u3, zero],
                [None, None, None, ident3, None],
                [None, 0.5 * dt * t_op, ident3, 0.5 * dt * t_op, None],
            ],
            format="csr",
        )
        for op in (self._rhs, self._update):
            op.eliminate_zeros()
        self.grid = grid
        self.xi = xi
        self.dt = dt
        self._n = n

    def step(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of the stacked state z, shape (7n,) or (7n, k).

        Returns z at the new time and the pressure q at the half step.
        """
        sol = self._lu.solve(self._rhs @ z)
        return self._update @ np.concatenate([z, sol]), sol[3 * self._n :]


def _pack(state: LinearState) -> np.ndarray:
    return np.concatenate([state.rho, state.u.ravel(), state.N.ravel()])


def _norm_u(z: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Velocity norm of each column of a stacked state."""
    n = grid.n
    return np.sqrt(grid.h * np.sum(np.abs(z[n : 4 * n]) ** 2, axis=0))


def time_steps(dt: float, T: float) -> int:
    """Number of steps of size dt that march a state to time T."""
    return max(1, int(round(T / dt)))


def _march(
    stepper: LinearEvolver, z: np.ndarray, t: float, T: float, record_every: int | None
):
    """Step z to time T, yielding (t, z, q) every ``record_every`` steps and
    at the last step; the default records about 60 times."""
    n_steps = time_steps(stepper.dt, T)
    if record_every is None:
        record_every = max(1, n_steps // 60)
    for k in range(1, n_steps + 1):
        z, q = stepper.step(z)
        t += stepper.dt
        if k % record_every == 0 or k == n_steps:
            yield t, z, q


def evolve(
    init: LinearState,
    profile: DensityProfile,
    mag: MagneticConfig,
    params: PhysicalParams,
    dt: float,
    T: float,
    record_every: int | None = None,
) -> list[LinearState]:
    """Integrate to time T, recording every ``record_every`` steps."""
    stepper = LinearEvolver(profile, mag, params, init.grid, init.xi, dt)
    n = init.grid.n
    out = [init.copy()]
    for t, z, q in _march(stepper, _pack(init), init.t, T, record_every):
        u, N = z[n : 4 * n].reshape(3, n), z[4 * n :].reshape(3, n)
        out.append(replace(init, t=t, rho=z[:n], u=u, N=N, q=q))
    return out


def eigenmode_state(
    mode: NormalMode, profile: DensityProfile, params: PhysicalParams
) -> LinearState:
    """Initial data matching the growing mode at t = 0."""
    f = mode_fields(mode, profile)
    u = np.stack([f["u1"], f["u2"], f["u3"]])
    N = np.stack([f["N1"], f["N2"], f["N3"]])
    return LinearState(mode.xi, mode.grid, 0.0, rho=f["rho"], u=u, N=N, q=f["q"])


def _random_smooth_compact(grid: Grid1D, rng: np.random.Generator) -> np.ndarray:
    """Random C^inf profile supported inside 80% of the truncated domain."""
    x = grid.points()
    s = x / (0.8 * grid.half_length)
    window = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    window[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    phase = np.pi * (x + grid.half_length) / (2.0 * grid.half_length)
    out = np.zeros(grid.n, dtype=complex)
    for k in range(1, 7):
        a, b = rng.standard_normal(2)
        out += (a + 1j * b) * np.sin(k * phase)
    return window * out


def random_divfree_state(
    profile: DensityProfile,
    grid: Grid1D,
    xi: Frequency,
    seed: int,
) -> LinearState:
    """Random smooth initial data with exact discrete incompressibility.

    u3 is drawn as a smooth compactly supported profile and the horizontal
    components are derived from the potential chi = D1 u3 / |xi|^2, so the
    discrete divergence vanishes identically; an extra swirl term keeps the
    horizontal components generic.  N starts at zero (trivially
    divergence-free), rho is an independent random profile.
    """
    rng = np.random.default_rng(seed)
    u3 = _random_smooth_compact(grid, rng)
    beta = _random_smooth_compact(grid, rng)
    chi = d1_stencil(grid).apply(u3) / xi.norm2
    u1 = 1j * xi.xi1 * chi + 1j * xi.xi2 * beta
    u2 = 1j * xi.xi2 * chi - 1j * xi.xi1 * beta
    rho = _random_smooth_compact(grid, rng)
    u = np.stack([u1, u2, u3])
    return LinearState(
        xi=xi,
        grid=grid,
        t=0.0,
        rho=rho,
        u=u,
        N=np.zeros_like(u),
        q=np.zeros(grid.n, dtype=complex),
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
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DegenerateSeries("norm series contains non-positive values")
    half = len(t) // 2
    tt, vv = t[half:], np.log(v[half:])
    coeffs = np.polyfit(tt, vv, 1)
    fit = np.polyval(coeffs, tt)
    rms = float(np.sqrt(np.mean((vv - fit) ** 2)))
    return RateEstimate(times=t, norms=v, rate=float(coeffs[0]), fit_residual=rms)


def run_rate(
    init: LinearState,
    profile: DensityProfile,
    mag: MagneticConfig,
    params: PhysicalParams,
    dt: float,
    T: float,
) -> tuple[RateEstimate, list[LinearState]]:
    states = evolve(init, profile, mag, params, dt, T)
    series = [(s.t, s.norm_u()) for s in states]
    return measured_rate(series), states


def sharpness_test(
    profile: DensityProfile,
    mag: MagneticConfig,
    params: PhysicalParams,
    grid: Grid1D,
    lam_cap: float,
    seeds: list[int],
    xi_rates: dict[Frequency, float],
    horizon: float = 3.0,
    steps_per_efold: int = 100,
) -> float:
    """Evolve random data at each frequency; rates must respect their bounds.

    xi_rates maps each swept member frequency to its predicted rate.  Raises
    SharpnessViolation if any measured rate exceeds lambda(xi) * (1 + 2%).
    Returns the largest measured rate.
    """
    worst = -np.inf
    for xi, lam in sorted(xi_rates.items(), key=lambda kv: (kv[0].xi1, kv[0].xi2)):
        # every seed is one column of the same stepped block
        dt = 1.0 / (steps_per_efold * lam)
        stepper = LinearEvolver(profile, mag, params, grid, xi, dt)
        z = np.stack(
            [_pack(random_divfree_state(profile, grid, xi, seed)) for seed in seeds],
            axis=1,
        )
        series = [(0.0, _norm_u(z, grid))]
        for t, zk, _ in _march(stepper, z, 0.0, horizon / lam, None):
            series.append((t, _norm_u(zk, grid)))
        for i, seed in enumerate(seeds):
            est = measured_rate([(t, norms[i]) for t, norms in series])
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


def series_to_csv(states: list[LinearState]) -> str:
    lines = ["t,norm_rho,norm_u,norm_N"]
    for s in states:
        lines.append(
            f"{s.t:.17g},{s.norm_rho():.17g},{s.norm_u():.17g},{s.norm_N():.17g}"
        )
    return "\n".join(lines) + "\n"
