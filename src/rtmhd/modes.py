"""Companion components of a growing mode, the magnetic coupling, and the one
map from a mode to its perturbation fields.

A mode keeps the ``FormSet`` its rate was solved on (``GrowthResult.forms``),
so every function here reads the profile, grid, xi, field and parameters
from the mode or result it is given, never from a second setup.

Given the vertical-velocity profile psi and rate lambda of one frequency, the
remaining components follow by one route for every field and every xi.
Across xi no pressure, buoyancy or divergence acts, and the swirl row
[lambda^2 rho + lambda mu (|xi|^2 - D^2) - (b . grad)^2] omega = 0 is
coercive, so the growing mode has no swirl, omega = 0.  Its velocity along xi
is then fixed by incompressibility,

  phi = -xi1 D1 psi / |xi|^2,  theta = -xi2 D1 psi / |xi|^2,

which closes the divergence identity xi1 phi + xi2 theta + D1 psi = 0
exactly, and pi follows from the momentum row along xi, in which the
pressure gradient enters as i |xi|^2 pi.  ``mode_residuals`` checks the same
pressure-free terms that this row is formed from.

``magnetic_coupling`` is the one definition of how the velocity and the
induced field N couple at zero resistivity: the induction N_t = T u and the
Lorentz force F N, as stencil blocks in any frame.  The residuals apply F T
to the mode velocity, ``mode_fields`` gives N = T u / lambda, and the
Crank-Nicolson step in ``verify`` builds T and F in its rotated frame.

``mode_fields`` maps a mode to the complex profiles of every perturbation
field at +xi.  The linear time integration starts from them, and the real
horizontally periodic solution is the sum of the +-xi pair: a cos/sin profile
pair in x' . xi per field.  ``relative_divergence`` is the one discrete
divergence check of a complex vector profile.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import read_json, write_csv, write_json
from .config import _is_number, read_setup, setup_dict
from .errors import ConfigError, ResidualTooLarge
from .forms import FormSet, assemble_forms
from .growth import GrowthResult
from .operators import (
    Blocks,
    block_apply,
    block_combine,
    d1_free_stencil,
    d1_stencil,
    d2_stencil,
    diagonal_stencil,
)
from .profiles import Frequency, Grid1D, build_profile

__all__ = [
    "NormalMode",
    "FieldSnapshot",
    "build_mode",
    "mode_residuals",
    "magnetic_coupling",
    "mode_fields",
    "relative_divergence",
    "assemble_real_solution",
    "snapshot_divergence",
    "export_mode",
    "load_mode",
    "export_snapshot",
]

DEFAULT_MODE_TOL = 1e-6

_FIELD_ORDER = ("rho", "u1", "u2", "u3", "N1", "N2", "N3", "q")


@dataclass(frozen=True)
class NormalMode:
    """One growing normal mode: profiles on the interior grid, and the forms
    its rate was solved on, which hold its profile, grid, xi, field and
    parameters."""

    forms: FormSet
    lam: float
    psi: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    pi: np.ndarray
    residuals: dict


@dataclass(frozen=True)
class FieldSnapshot:
    """Real fields at one time as cos/sin coefficient profiles in x' . xi."""

    t: float
    xi: Frequency
    grid: Grid1D
    L: float
    fields: dict  # name -> (cos profile, sin profile)
    norms: dict   # name -> L^2(Omega) norm

    def norm_group(self, names: tuple[str, ...]) -> float:
        return float(np.sqrt(sum(self.norms[k] ** 2 for k in names)))


def magnetic_coupling(
    b: tuple[float, float, float], xi: Frequency, grid: Grid1D
) -> tuple[Blocks, Blocks]:
    """Induction T and Lorentz force F of the background field b, linear in b,
    as 3 x 3 blocks in a frame where the gradient is (i xi1, i xi2, D).

    N_t = T u = (b . grad) u with D = D1.  F N = (curl N) x b = (b . grad) N
    - grad (b . N) with D = D1 free: row r sums b_k (d_k N_r - d_r N_k) over
    k != r.  Terms of a vanishing b_k or d_k are not formed.
    """
    g = (xi.xi1, xi.xi2)
    ident = diagonal_stencil(np.ones(grid.n))
    # the nonzero gradient components d_k, with D = D1 and with D = D1 free
    grad = {k: 1j * g[k] * ident for k in (0, 1) if g[k] != 0.0}
    d_t, d_f = {**grad, 2: d1_stencil(grid)}, {**grad, 2: d1_free_stencil(grid)}
    field = [k for k in range(3) if b[k] != 0.0]
    along = [k for k in field if k in d_t]  # the terms of b . grad
    t_op = block_combine(*((b[k], {(j, j): d_t[k] for j in range(3)}) for k in along))
    f_op = block_combine(
        *((b[k], {(r, r): d_f[k] for r in range(3) if r != k}) for k in along),
        *((-b[k], {(r, k): d_f[r] for r in d_f if r != k}) for k in field),
    )
    return t_op, f_op


def _l2(v: np.ndarray, h: float) -> float:
    return float(np.sqrt(h * np.sum(np.abs(v) ** 2)))


_STENCIL_TRIM = 3  # rows per side where composed stencils touch ghost values


def _pressure_free_terms(lam: float, forms: FormSet) -> tuple[list, list]:
    """The terms of the momentum rows but the pressure gradient, as maps of
    the velocity profile v = u / lambda = (-i phi, -i theta, psi), shape (3, n):

      lambda^2 rho v - g rho0' v3 e3 + lambda mu (|xi|^2 - D2) v - F T v
      = -lambda grad pi,

    T and F being M times those of the unit field, on the setup of
    ``forms``.  Returns the terms with variable coefficients (inertia,
    buoyancy) and those with constant coefficients (viscosity, Lorentz force)
    as two lists.
    """
    xi, mag, params, grid = forms.xi, forms.mag, forms.params, forms.grid
    x = grid.points()
    rho, drho = forms.profile.rho(x), forms.profile.drho(x)
    buoyant = np.outer((0.0, 0.0, -params.g), drho)
    d2 = d2_stencil(grid)
    t_op, f_op = magnetic_coupling(mag.direction(), xi, grid)
    return [lambda v: lam**2 * rho * v, lambda v: buoyant * v], [
        lambda v: lam * params.mu * (xi.norm2 * v - np.stack([d2.apply(c) for c in v])),
        lambda v: -mag.magnitude**2 * block_apply(f_op, block_apply(t_op, v)),
    ]


def _velocity(phi: np.ndarray, theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The velocity profile v = u / lambda of a mode, shape (3, n)."""
    return np.stack([-1j * phi, -1j * theta, psi.astype(complex)])


def mode_residuals(
    psi: np.ndarray,
    phi: np.ndarray,
    theta: np.ndarray,
    pi: np.ndarray,
    lam: float,
    forms: FormSet,
) -> dict:
    """Relative residuals of the four mode equations and the divergence, on
    the profile, grid, xi, field and parameters of ``forms``.

    Residuals are measured on stencil-interior rows: the outermost rows of
    the truncated grid realize the clamped boundary conditions rather than
    the differential equations, and composed difference stencils are only
    consistent where they do not reach past the boundary.
    """
    xi, h = forms.xi, forms.grid.h
    d1 = d1_stencil(forms.grid)
    v = _velocity(phi, theta, psi)
    variable, constant = _pressure_free_terms(lam, forms)
    grad_pi = np.stack([1j * xi.xi1 * pi, 1j * xi.xi2 * pi, d1.apply(pi)])
    terms = [f(v) for f in variable + constant] + [lam * grad_pi]
    div_terms = [xi.xi1 * phi, xi.xi2 * theta, d1.apply(psi)]
    cut = slice(_STENCIL_TRIM, len(psi) - _STENCIL_TRIM)

    def rel(t: list[np.ndarray]) -> float:
        scale = sum(_l2(term[cut], h) for term in t)
        if scale == 0.0:
            return 0.0
        return _l2(sum(t)[cut], h) / scale

    out = {f"eq{c + 1}": rel([t[c] for t in terms]) for c in range(3)}
    out["div"] = rel(div_terms)
    return out


def build_mode(growth: GrowthResult, mode_tol: float = DEFAULT_MODE_TOL) -> NormalMode:
    """Reconstruct (phi, theta, pi) from the minimizing psi and validate, on
    the forms the rate was solved on."""
    if growth.lam <= 0:
        raise ValueError("mode construction needs a positive growth rate")
    forms = growth.forms
    xi = forms.xi
    lam = growth.lam
    xi2 = xi.norm2
    psi = np.array(growth.psi.vec, dtype=float)
    d1 = d1_stencil(forms.grid)
    psi1 = d1.apply(psi)
    # no swirl: the velocity along xi closes the divergence identity
    phi = -xi.xi1 * psi1 / xi2
    theta = -xi.xi2 * psi1 / xi2
    # pi from the momentum row along xi, where grad pi enters as i |xi|^2 pi.
    # The horizontal velocity is i xi D1 psi / |xi|^2, and D1 comes last on the
    # constant-coefficient terms: D1 psi is not zero at the ends, and a
    # stencil applied to it would read zero ghost values
    along = np.array([xi.xi1, xi.xi2, 0.0])
    variable, constant = _pressure_free_terms(lam, forms)
    v = _velocity(phi, theta, psi)
    slots = np.eye(3)[:, :, None] * v[2]  # psi in each velocity component
    r1, r2, r3 = (along @ sum(f(s) for f in constant) for s in slots)
    row = sum(along @ f(v) for f in variable) + r3
    row += 1j * d1.apply(xi.xi1 * r1 + xi.xi2 * r2) / xi2
    pi = (1j * row / (lam * xi2)).real

    residuals = mode_residuals(psi, phi, theta, pi, lam, forms)
    worst = max(residuals.values())
    if worst > mode_tol:
        raise ResidualTooLarge(
            f"mode residuals {residuals} exceed tolerance {mode_tol:g}; "
            "increase the grid resolution"
        )
    return NormalMode(
        forms=forms, lam=lam, psi=psi, phi=phi, theta=theta, pi=pi, residuals=residuals
    )


# --- the fields of a mode and the real-valued growing solution ----------------


def mode_fields(mode: NormalMode) -> dict[str, np.ndarray]:
    """Complex profiles of every perturbation field at +xi and t = 0.

    The velocity is u = lambda v, v = (-i phi, -i theta, psi), the density
    is advected from the steady profile, rho = -rho0' psi, the pressure is
    lambda pi, and the induction equation lambda N = T u gives N = T v.
    """
    forms = mode.forms
    v = _velocity(mode.phi, mode.theta, mode.psi)
    t_op, _ = magnetic_coupling(forms.mag.direction(), forms.xi, forms.grid)
    return {
        "rho": -(forms.profile.drho(forms.grid.points()) * mode.psi).astype(complex),
        **dict(zip(("u1", "u2", "u3"), mode.lam * v)),
        "q": mode.lam * mode.pi.astype(complex),
        **dict(zip(("N1", "N2", "N3"), forms.mag.magnitude * block_apply(t_op, v))),
    }


def relative_divergence(v: np.ndarray, xi: Frequency, grid: Grid1D) -> float:
    """Relative discrete divergence |i xi1 v1 + i xi2 v2 + D1 v3| of the complex
    profiles v, shape (3, n), scaled by the sum of the three term norms."""
    parts = [1j * xi.xi1 * v[0], 1j * xi.xi2 * v[1], d1_stencil(grid).apply(v[2])]
    num = np.linalg.norm(parts[0] + parts[1] + parts[2])
    scale = sum(np.linalg.norm(p) for p in parts)
    if scale == 0.0:
        return 0.0
    return float(num / scale)


def assemble_real_solution(mode: NormalMode, t: float) -> FieldSnapshot:
    """Real fields at time t, the sum of the +-xi pair: (2 e^{lambda t} Re f,
    -2 e^{lambda t} Im f) for the ``mode_fields`` profile f of each field."""
    forms = mode.forms
    amp = 2.0 * float(np.exp(mode.lam * t))
    # + 0.0 clears the signed zeros that the complex products leave
    fields = {
        name: (amp * f.real + 0.0, -amp * f.imag + 0.0)
        for name, f in mode_fields(mode).items()
    }
    two_pi_l = 2.0 * np.pi * forms.params.L
    h = forms.grid.h
    norms = {
        name: two_pi_l
        * float(np.sqrt(0.5 * h * (np.sum(c**2) + np.sum(s**2))))
        for name, (c, s) in fields.items()
    }
    return FieldSnapshot(
        t=t, xi=forms.xi, grid=forms.grid, L=forms.params.L, fields=fields, norms=norms
    )


def snapshot_divergence(snap: FieldSnapshot, names: tuple[str, str, str]) -> float:
    """Relative discrete divergence of a vector field stored in a snapshot,
    through its complex profile f = (cos - i sin) / 2."""
    v = np.stack([0.5 * (c - 1j * s) for c, s in (snap.fields[k] for k in names)])
    return relative_divergence(v, snap.xi, snap.grid)


# --- file formats --------------------------------------------------------------


def export_mode(mode: NormalMode, stem: str) -> tuple[str, str]:
    """Write <stem>.json (full metadata + profiles) and <stem>.csv.

    The JSON file carries the mode's setup, everything needed to rebuild its
    forms and residuals; the CSV adds the boundary rows with their
    identically zero values.
    """
    if not stem:
        raise OSError("empty export path")
    forms = mode.forms
    xi, mag, params, grid = forms.xi, forms.mag, forms.params, forms.grid
    payload = {
        "kind": "normal_mode",
        "xi": [xi.xi1, xi.xi2],
        "lambda": mode.lam,
        **setup_dict(forms.profile.spec, params, mag, grid),
        "residuals": mode.residuals,
        "psi": mode.psi.tolist(),
        "phi": mode.phi.tolist(),
        "theta": mode.theta.tolist(),
        "pi": mode.pi.tolist(),
    }
    json_path = stem + ".json"
    csv_path = stem + ".csv"
    write_json(json_path, payload)
    lz = grid.half_length
    columns = (grid.points(), mode.psi, mode.phi, mode.theta, mode.pi)
    rows = [(-lz, 0, 0, 0, 0), *np.column_stack(columns).tolist(), (lz, 0, 0, 0, 0)]
    write_csv(csv_path, ("x3", "psi", "phi", "theta", "pi"), rows)
    return json_path, csv_path


def _finite_numbers(value, count: int, what: str) -> list[float]:
    """value, which must be a JSON list of count finite numbers, as floats."""
    try:
        ok = (
            isinstance(value, list)
            and len(value) == count
            and all(_is_number(v) and math.isfinite(v) for v in value)
        )
    except OverflowError:  # an integer too large for float
        ok = False
    if not ok:
        plural = "s" * (count > 1)
        raise ConfigError(f"mode {what} must be {count} finite number{plural}")
    return [float(v) for v in value]


def load_mode(json_path: str) -> NormalMode:
    """Rebuild a mode from an exported JSON file, its forms reassembled from
    the setup the file records.  ValueError unless the file holds a JSON
    object; ConfigError unless it is a mode export whose setup a run config
    accepts, with xi two finite numbers of nonzero |xi|^2, lambda a finite
    positive number, psi, phi, theta and pi grid.n finite numbers each and
    residuals an object of numbers."""
    payload = read_json(json_path)
    if payload.get("kind") != "normal_mode":
        raise ConfigError(f"{json_path} is not a normal-mode export")
    spec, params, mag, grid = read_setup(payload)
    xi = Frequency(*_finite_numbers(payload.get("xi"), 2, "xi"))
    if xi.is_zero() or not math.isfinite(xi.norm2):
        raise ConfigError(f"mode xi must have a finite nonzero |xi|^2, got {xi}")
    [lam] = _finite_numbers([payload.get("lambda")], 1, "lambda")
    if lam <= 0:
        raise ConfigError(f"mode lambda must be positive, got {lam!r}")
    fields = {
        f: np.array(_finite_numbers(payload.get(f), grid.n, f))
        for f in ("psi", "phi", "theta", "pi")
    }
    residuals = payload.get("residuals")
    if not isinstance(residuals, dict) or not all(map(_is_number, residuals.values())):
        raise ConfigError("mode residuals must be an object of numbers")
    profile = build_profile(spec, grid)
    return NormalMode(
        forms=assemble_forms(profile, grid, xi, mag, params),
        lam=lam,
        residuals=residuals,
        **fields,
    )


def export_snapshot(snap: FieldSnapshot, path: str) -> str:
    """CSV of a snapshot: one cos/sin column pair per field."""
    if not path:
        raise OSError("empty export path")
    header = ["x3"]
    for name in _FIELD_ORDER:
        header += [f"{name}_cos", f"{name}_sin"]
    columns = [snap.grid.points()]
    for name in _FIELD_ORDER:
        columns += snap.fields[name]
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    write_csv(path, header, np.column_stack(columns).tolist())
    return path
