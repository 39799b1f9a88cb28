"""Independent brute-force oracles used to pin expected values.

Everything here goes through dense LAPACK routines or generic quadrature so
that it shares no code path with the banded solvers under test.  There are
four exceptions.  ``inertia_count`` counts a pencil's eigenvalues below a
shift with LAPACK's banded symmetric eigensolver, a route beside the dense
count and the Cholesky test it checks.  ``cn_step_reference``, the
Crank-Nicolson step written out per velocity component, keeps a sparse LU
so that it solves the same system as the stacked stepper it checks.  Its
induction and Lorentz blocks, ``coupling_reference``, are written out per
field orientation.  ``bump_cdf_unblocked``, the bump quadrature evaluated
for all points at once, must match the blocked evaluation bitwise.  Last,
``run_rate`` marches one stepped column alone through ``march_norms``,
against which the ``verify`` command's march, with the column joined to the
sharpness runs, is checked.  And ``eager_profile_metrics`` recomputes the
profile metrics as ``build_profile`` once did on construction, which the
metrics read later must match bitwise.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import eig_banded, eigh, eigvalsh
from scipy.optimize import brentq, minimize_scalar
from scipy.sparse.linalg import splu

from rtmhd.errors import NonPositiveDensity, NoUnstableRegion
from rtmhd.operators import band_combine, band_to_dense
from rtmhd.verify import march_norms, measured_rate
from rtmhd.profiles import (
    BUMP_INTEGRAL,
    _GL_NODES,
    _GL_WEIGHTS,
    _N_PANELS,
    _PANEL_EDGES,
    _PANEL_PREFIX,
    Orientation,
    _bump_shape,
)


def dense_smallest(a_band: np.ndarray, b_band: np.ndarray) -> float:
    w = eigh(band_to_dense(a_band), band_to_dense(b_band), eigvals_only=True)
    return float(w[0])


def dense_largest(a_band: np.ndarray, b_band: np.ndarray) -> float:
    w = eigh(band_to_dense(a_band), band_to_dense(b_band), eigvals_only=True)
    return float(w[-1])


def dense_alpha(forms, s: float) -> tuple[float, np.ndarray]:
    """alpha(s), the smallest eigenvalue of (|xi|^2 E0 + s E1, J) on the
    banded forms by dense eigh, and its J-normalized vector."""
    a, j = band_to_dense(forms.energy(s)), band_to_dense(forms.j)
    w, v = eigh(a, j, subset_by_index=[0, 0])
    return float(w[0]), v[:, 0]


def dense_count_below(a_band: np.ndarray, b_band: np.ndarray, sigma: float) -> int:
    w = eigh(band_to_dense(a_band), band_to_dense(b_band), eigvals_only=True)
    return int(np.sum(w < sigma))


def inertia_count(a_band: np.ndarray, b_band: np.ndarray, sigma: float) -> int:
    """Number of pencil eigenvalues strictly below sigma, by banded LAPACK.

    With B positive definite, Sylvester's law makes this the number of
    negative eigenvalues of A - sigma*B, which ``eig_banded`` counts without
    forming the dense matrix.
    """
    shifted = band_combine([(1.0, a_band), (-sigma, b_band)])
    w = eig_banded(shifted, lower=True, eigvals_only=True)
    return int(np.count_nonzero(w < 0.0))


def adaptive_bump_integral(amp: float, half_width: float) -> float:
    """Integral of one derivative bump by adaptive quadrature."""
    val, _ = quad(
        lambda t: np.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0,
        -1.0,
        1.0,
        limit=200,
    )
    return amp * half_width * val


def bump_cdf_unblocked(t: np.ndarray) -> np.ndarray:
    """Integral of the bump shape from -1 up to t, all points in one pass.

    The same panels and Gauss-Legendre nodes as ``profiles._bump_cdf``, with
    (points x nodes) temporaries for the whole input.
    """
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    width = 2.0 / _N_PANELS
    idx = np.minimum(((t + 1.0) / width).astype(int), _N_PANELS - 1)
    lo = _PANEL_EDGES[idx]
    half = 0.5 * (t - lo)
    mid = 0.5 * (t + lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    partial = half * (_bump_shape(nodes) @ _GL_WEIGHTS)
    return _PANEL_PREFIX[idx] + partial


def profile_unblocked(spec, x) -> tuple[np.ndarray, np.ndarray]:
    """rho and drho of a profile spec at x through ``bump_cdf_unblocked``."""
    x = np.asarray(x, dtype=float)
    rho = np.full_like(x, spec.base_density)
    drho = np.zeros_like(x)
    for b in spec.bumps:
        t = (x - b.center) / b.half_width
        rho += b.amplitude * b.half_width * bump_cdf_unblocked(t)
        drho += b.amplitude * _bump_shape(t)
    return rho, drho


def brent_sup_ratio(profile, grid) -> tuple[float, float]:
    """sup of drho/rho and where it sits, by scipy's bounded Brent search.

    Samples the ratio on the grid and 10x that density across every bump
    support, then polishes the sample argmax between its two neighbours
    with ``minimize_scalar(method="bounded", xatol=1e-13)``.
    """
    bumps = profile.spec.bumps
    per_bump = max(101, 10 * grid.n // len(bumps))
    supports = [
        np.linspace(b.center - b.half_width, b.center + b.half_width, per_bump)
        for b in bumps
    ]
    samples = np.unique(np.concatenate([grid.points(), *supports]))
    r = profile.ratio(samples)
    k = int(np.argmax(r))
    res = minimize_scalar(
        lambda x: -profile.ratio(np.array([x]))[0],
        bounds=(samples[k - 1], samples[k + 1]),
        method="bounded",
        options={"xatol": 1e-13},
    )
    if -res.fun >= r[k]:
        return float(-res.fun), float(res.x)
    return float(r[k]), float(samples[k])


def eager_profile_metrics(spec, grid) -> dict[str, float]:
    """inf_rho, sup_rho and sup_ratio as ``build_profile`` once computed them
    on construction, raising where it raised (the bump supports must sit
    inside [-Lz/2, Lz/2]; that check is left to ``build_profile``).

    rho is sampled on the grid plus 10x its density across every bump
    support (deduplicated by ``np.unique``), through ``profile_unblocked``;
    a sampled rho <= 0 raises NonPositiveDensity.  The ratio's sample
    argmax is then zoomed: 65 even points across its bracket, shrunk to the
    two neighbours of their argmax, until it is at most 1e-13 wide or stops
    shrinking; the sup is the largest ratio evaluated.
    """
    if not any(b.amplitude > 0 for b in spec.bumps):
        raise NoUnstableRegion("profile needs a bump with positive amplitude")
    total_jump = BUMP_INTEGRAL * sum(b.amplitude * b.half_width for b in spec.bumps)
    per_bump = max(101, 10 * grid.n // len(spec.bumps))
    supports = [
        np.linspace(b.center - b.half_width, b.center + b.half_width, per_bump)
        for b in spec.bumps
    ]
    samples = np.concatenate([grid.points(), np.unique(np.concatenate(supports))])
    rho, drho = profile_unblocked(spec, samples)
    tails = np.array([spec.base_density, spec.base_density + total_jump])
    inf_rho = float(min(rho.min(), tails.min()))
    sup_rho = float(max(rho.max(), tails.max()))
    if inf_rho <= 0:
        raise NonPositiveDensity(f"min rho = {inf_rho:.6g} <= 0")

    r = drho / rho
    k = int(np.argmax(r))
    best = float(r[k])
    if best <= 0.0:
        return {"inf_rho": inf_rho, "sup_rho": sup_rho, "sup_ratio": max(best, 0.0)}
    lo, hi = samples[max(0, k - 1)], samples[min(len(samples) - 1, k + 1)]
    while hi - lo > 1e-13:
        x = np.linspace(lo, hi, 65)
        rho, drho = profile_unblocked(spec, x)
        r = drho / rho
        k = int(np.argmax(r))
        best = max(best, float(r[k]))
        lo_next, hi_next = x[max(0, k - 1)], x[min(64, k + 1)]
        if hi_next - lo_next >= hi - lo:
            break
        lo, hi = lo_next, hi_next
    return {"inf_rho": inf_rho, "sup_rho": sup_rho, "sup_ratio": best}


def cone_infimum_dense(a_band: np.ndarray, b_band: np.ndarray) -> float:
    """sup{t >= 0 : A - t B positive definite} by dense bisection.

    Equals the infimum of the quotient x^T A x / x^T B x over the cone
    x^T B x > 0 when A is positive definite and the cone is nonempty.
    """
    a = band_to_dense(a_band)
    b = band_to_dense(b_band)
    lo, hi = 0.0, 1.0
    while eigvalsh(a - hi * b).min() > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("cone infimum did not bracket")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eigvalsh(a - mid * b).min() > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_forms(profile, grid, xi, mag, params) -> dict[str, np.ndarray]:
    """E0, E1, J and the mass as dense matrices, written out from the paper.

    D1, D2 and the midpoint gradient G are built here with zero boundary
    values; every form is a weighted product of them with trapezoid weights.
    """
    n, h = grid.n, grid.h
    x, xm = grid.points(), grid.midpoints()
    off = np.ones(n - 1)
    d1 = (np.diag(off, 1) - np.diag(off, -1)) / (2.0 * h)
    d2 = (np.diag(off, 1) - 2.0 * np.eye(n) + np.diag(off, -1)) / h**2
    grad = (np.eye(n + 1, n) - np.eye(n + 1, n, -1)) / h  # onto the midpoints

    def mass(q):
        return h * np.diag(q * np.ones(n))

    def stiffness(q_mid):
        return grad.T @ (h * q_mid[:, None] * grad)

    xi2, m2 = xi.norm2, mag.magnitude**2
    buoyancy = mass(-params.g * profile.drho(x))
    k = stiffness(np.ones(n + 1))
    if mag.orientation is Orientation.HORIZONTAL:
        e0 = m2 * xi.xi1**2 * (mass(1.0) + k / xi2) + buoyancy
    else:
        e0 = m2 * k + (m2 / xi2) * h * d2.T @ d2 + buoyancy
    core = xi2 * np.eye(n) + d2
    e1 = params.mu * h * (4.0 * xi2 * d1.T @ d1 + core.T @ core)
    j = xi2 * mass(profile.rho(x)) + stiffness(profile.rho(xm))
    return {"e0": e0, "e1": e1, "j": j, "mass": mass(1.0)}


def dense_growth_root(forms: dict, xi2: float, s_lo: float) -> float | None:
    """The root of g(s) = s^2 + alpha(s), alpha(s) the smallest eigenvalue of
    (xi2 E0 + s E1, J) by dense eigh, on the dense ``forms``; None if
    T(s_lo) = xi2 E0 + s_lo E1 + s_lo^2 J is positive definite (g(s_lo) > 0).
    alpha is nondecreasing, so g >= 0 at s = sqrt(-alpha(0)), the top of the
    bracket."""

    def g(s):
        e = xi2 * forms["e0"] + s * forms["e1"]
        return s * s + eigh(e, forms["j"], eigvals_only=True, subset_by_index=[0, 0])[0]

    if g(s_lo) > 0.0:
        return None
    s_hi = np.sqrt(-eigh(xi2 * forms["e0"], forms["j"], eigvals_only=True)[0])
    return brentq(g, s_lo, s_hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def eoc(err_coarse: float, err_fine: float) -> float:
    """Observed order of convergence for one grid halving."""
    return float(np.log2(err_coarse / err_fine))


def _cn_d1(n: int, h: float, free: bool) -> sp.csr_matrix:
    """Centred first difference; ``free`` uses one-sided rows at both ends."""
    c = 1.0 / (2.0 * h)
    d = sp.diags([-c, c], offsets=[-1, 1], shape=(n, n), format="lil")
    if free:
        d[0, 0:3] = np.array([-3.0, 4.0, -1.0]) * c
        d[n - 1, n - 3 : n] = np.array([1.0, -4.0, 3.0]) * c
    return d.tocsr().astype(complex)


def coupling_reference(mag, grid, xi):
    """Induction operator and Lorentz force on the lab-frame components,
    written out per orientation: (t_op, f) with N_t = t_op[j] u_j and the
    force f[c][j] N_j, each block a sparse n x n matrix."""
    n, h, M = grid.n, grid.h, mag.magnitude
    ident = sp.identity(n, format="csr", dtype=complex)
    zero = sp.csr_matrix((n, n), dtype=complex)
    d1, d1f = _cn_d1(n, h, False), _cn_d1(n, h, True)
    if mag.orientation is Orientation.HORIZONTAL:
        t_op = [1j * M * xi.xi1 * ident] * 3
        f = [
            [zero, zero, zero],
            [-1j * M * xi.xi2 * ident, 1j * M * xi.xi1 * ident, zero],
            [-M * d1f, zero, 1j * M * xi.xi1 * ident],
        ]
    else:
        t_op = [M * d1] * 3
        f = [
            [M * d1f, zero, -1j * M * xi.xi1 * ident],
            [zero, M * d1f, -1j * M * xi.xi2 * ident],
            [zero, zero, zero],
        ]
    return t_op, f


def cn_step_reference(profile, mag, params, grid, xi, dt, rho_p, u, N):
    """One Crank-Nicolson step of the linearized system, one component at a time.

    The density and induction half steps are formed explicitly, the velocity
    and pressure come from the monolithic (u, q) solve, and the density and
    field are then advanced with the trapezoid rule.  Returns (rho, u, N, q).
    """
    n, h = grid.n, grid.h
    x = grid.points()
    rho, drho = profile.rho(x), profile.drho(x)
    mu, g = params.mu, params.g
    ident = sp.identity(n, format="csr", dtype=complex)
    zero = sp.csr_matrix((n, n), dtype=complex)
    d1 = _cn_d1(n, h, False)
    c2 = 1.0 / (h * h)
    lap = sp.diags([c2, -2.0 * c2 - xi.norm2, c2], offsets=[-1, 0, 1], shape=(n, n))
    lap = lap.tocsr().astype(complex)
    t_op, f = coupling_reference(mag, grid, xi)
    grad = [1j * xi.xi1 * ident, 1j * xi.xi2 * ident, d1]

    blocks = [[None] * 4 for _ in range(4)]
    for c in range(3):
        row = [zero, zero, zero]
        row[c] = sp.diags(rho / dt) - 0.5 * mu * lap
        for j in range(3):
            row[j] = row[j] - 0.25 * dt * (f[c][j] @ t_op[j])
        if c == 2:
            row[2] = row[2] - sp.diags(0.25 * dt * g * drho)
        blocks[c][:3] = row
        blocks[c][3] = grad[c]
        blocks[3][c] = grad[c]  # the divergence row
    lu = splu(sp.bmat(blocks, format="csc"))

    def induct(v):
        return np.stack([t_op[j] @ v[j] for j in range(3)])

    n_half = N + 0.25 * dt * induct(u)
    rho_half = rho_p - 0.25 * dt * drho * u[2]
    rhs = np.zeros(4 * n, dtype=complex)
    for c in range(3):
        r = (rho / dt) * u[c] + 0.5 * mu * (lap @ u[c])
        r += sum(f[c][j] @ n_half[j] for j in range(3))
        if c == 2:
            r -= g * rho_half
        rhs[c * n : (c + 1) * n] = r
    sol = lu.solve(rhs)
    u_new = sol[: 3 * n].reshape(3, n)
    rho_new = rho_p - 0.5 * dt * drho * (u[2] + u_new[2])
    n_new = N + 0.5 * dt * (induct(u) + induct(u_new))
    return rho_new, u_new, n_new, sol[3 * n :]


def run_rate(profile, mag, params, grid, xi, z, dt, T):
    """March the stepped column z (7n,) at xi alone to T and fit the rate of
    its velocity norms.  Returns (RateEstimate, times, norms), the norms
    (rho, u, N) of shape (samples, 3)."""
    [(times, norms)] = march_norms(profile, mag, params, grid, [(xi, dt, T, z[:, None])])
    return measured_rate(list(zip(times, norms[:, 1, 0]))), times, norms[:, :, 0]
