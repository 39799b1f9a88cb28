"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the timing lines.
"""

import time

import numpy as np
import pytest

import rtmhd
from rtmhd.dispersion import (
    critical_freq_horizontal,
    critical_freq_vertical,
    critical_number_auto,
    in_growing_domain,
    lattice_sweep,
    sup_rate,
    _truncations,
)
from rtmhd.eig import definite
from rtmhd.errors import OutOfRange
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.modes import assemble_real_solution, build_mode, snapshot_divergence
from rtmhd.verify import eigenmode_column

from .conftest import CANON_PARAMS, CANON_SPEC, JUMP_NEG_SPEC, smallest_pair
from .oracles import (
    dense_alpha,
    dense_count_below,
    dense_smallest,
    eoc,
    inertia_count,
    run_rate,
)

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL

# geometry for the mode-residual criterion (residuals < 1e-6 need wide,
# well-resolved modes; see tests/test_modes.py)
MODE_PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=0.9)
MODE_SPEC_A = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 3.98),))
MODE_SPEC_B = rtmhd.ProfileSpec(2.0, (rtmhd.Bump(0.8, 0.1, 3.8),))
K = 1.0 / MODE_PARAMS.L
MODE_CASES = [
    ("horizontal", MODE_SPEC_A, (K, 0.0), H, 0.3),
    ("horizontal axis xi1=0", MODE_SPEC_A, (0.0, K), H, 0.3),
    ("field-free", MODE_SPEC_B, (K, 0.0), H, 0.0),
    ("vertical", MODE_SPEC_A, (K, 0.0), V, 0.3),
    ("vertical axis xi1=0", MODE_SPEC_B, (0.0, K), V, 0.3),
    ("horizontal alt profile", MODE_SPEC_B, (K, 0.0), H, 0.3),
]


def _report(num, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def _mode_case(spec, xi, orient, M, n):
    grid = rtmhd.Grid1D(8.0, n)
    prof = rtmhd.build_profile(spec, grid)
    mag = rtmhd.MagneticConfig(orient, M)
    forms = assemble_forms(prof, grid, rtmhd.Frequency(*xi), mag, MODE_PARAMS)
    res = growth_rate(forms)
    mode = build_mode(res, mode_tol=1e-4)
    return mode, prof, res


@pytest.fixture(scope="module")
def fine_modes():
    """Horizontal and vertical n=2001 modes, shared by criteria 7 and 8."""
    hmode = _mode_case(*MODE_CASES[0][1:], n=2001)
    vmode = _mode_case(*MODE_CASES[3][1:], n=2001)
    return hmode, vmode


def test_criterion_1_eigensolver_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((p + 1, n))
        b = rng.standard_normal((p + 1, n)) * 0.3
        b[0] = np.abs(b[0]) + p + 1.5
        pair = smallest_pair(a, b)
        truth = dense_smallest(a, b)
        worst = max(worst, abs(pair.value - truth))
        assert abs(pair.value - truth) <= 1e-10
        sigma = float(rng.standard_normal())
        below = dense_count_below(a, b, sigma)
        assert inertia_count(a, b, sigma) == below
        assert definite(a, b, sigma) == (below == 0)
    _report(1, time.monotonic() - t0, 5.0, f"max |err| = {worst:.2e}")


def test_criterion_2_alpha_monotone():
    t0 = time.monotonic()
    grid = rtmhd.Grid1D(8.0, 301)
    specs = [
        CANON_SPEC,
        JUMP_NEG_SPEC,
        rtmhd.ProfileSpec(2.0, (rtmhd.Bump(0.4, -0.5, 1.5), rtmhd.Bump(0.2, 1.0, 0.8))),
    ]
    freqs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0), (1.0, 2.0)]
    violations = 0
    for spec in specs:
        prof = rtmhd.build_profile(spec, grid)
        cap = np.sqrt(CANON_PARAMS.g * prof.sup_ratio)
        mag = rtmhd.MagneticConfig(H, 0.2)
        for xi in freqs:
            fs = assemble_forms(prof, grid, rtmhd.Frequency(*xi), mag, CANON_PARAMS)
            values = [dense_alpha(fs, s)[0] for s in np.linspace(1e-4 * cap, cap, 20)]
            for lo, hi in zip(values, values[1:]):
                if hi < lo - 1e-9 * max(1.0, abs(lo)):
                    violations += 1
    assert violations == 0
    _report(2, time.monotonic() - t0, 30.0, "300 samples, 0 violations")


def test_criterion_3_fixed_point(canon_profile, canon_grid):
    t0 = time.monotonic()
    cap = np.sqrt(CANON_PARAMS.g * canon_profile.sup_ratio)
    for xi, M in (((1.0, 0.0), 0.0), ((1.0, 1.0), 0.3), ((0.0, 2.0), 1.0)):
        fs = assemble_forms(
            canon_profile, canon_grid, rtmhd.Frequency(*xi),
            rtmhd.MagneticConfig(H, M), CANON_PARAMS,
        )
        res = growth_rate(fs)
        assert abs(res.s_star - np.sqrt(-res.alpha_at_s)) <= 1e-8 * max(1.0, res.lam)
        again = growth_rate(fs, s_lo=2.9e-8 * cap, s_hi=1.27 * cap)
        assert abs(again.lam - res.lam) <= 1e-8 * max(1.0, res.lam)
    _report(3, time.monotonic() - t0, 10.0, "uniqueness probe consistent")


def test_criterion_4_upper_bound(canon_profile, canon_grid):
    t0 = time.monotonic()
    mag = rtmhd.MagneticConfig(H, 0.0)
    table = lattice_sweep(canon_profile, canon_grid, mag, CANON_PARAMS, radius=4.0)
    bound = np.sqrt(CANON_PARAMS.g * canon_profile.sup_ratio) * (1 + 1e-6)
    lams = [e.lam for e in table.entries if e.member]
    assert lams and max(lams) <= bound
    _report(4, time.monotonic() - t0, 60.0, f"max rate {max(lams):.6f} <= {bound:.6f}")


def test_criterion_5_critical_dichotomy(canon_profile, jumpneg_profile, canon_grid):
    t0 = time.monotonic()
    inf_case = critical_number_auto(canon_profile, lz0=8.0, n0=129, g=9.8)
    assert inf_case.is_infinite
    q = [v**2 for _, v in inf_case.trace]
    assert q[-1] / q[-2] >= 1.5 and q[-2] / q[-3] >= 1.5

    fin_case = critical_number_auto(
        jumpneg_profile, lz0=8.0, n0=129, g=1.0, max_doublings=16
    )
    assert not fin_case.is_infinite
    v = [val for _, val in fin_case.trace]
    assert abs(v[-1] - v[-2]) <= 1e-4 * abs(v[-1])

    c = 3.1
    scaled_spec = rtmhd.ProfileSpec(
        JUMP_NEG_SPEC.base_density,
        tuple(rtmhd.Bump(c * b.amplitude, b.center, b.half_width) for b in JUMP_NEG_SPEC.bumps),
    )
    scaled = rtmhd.build_profile(scaled_spec, canon_grid)
    grid = rtmhd.Grid1D(16.0, 403)
    ratio = (
        next(_truncations(scaled, [grid], 1.0))[1]
        / next(_truncations(jumpneg_profile, [grid], 1.0))[1]
    )
    assert ratio == pytest.approx(np.sqrt(c), rel=1e-6)
    _report(
        5, time.monotonic() - t0, 60.0,
        f"finite value {fin_case.value:.6f}, sqrt-scaling err {abs(ratio / np.sqrt(c) - 1):.2e}",
    )


def test_criterion_6_domain_consistency(jumpneg_profile, canon_grid):
    t0 = time.monotonic()
    g = 1.0
    params = rtmhd.PhysicalParams(mu=1.0, g=g, L=1.0)
    boundary_rtol = 1e-6

    # horizontal: membership by the sign of E0 vs the threshold predicate
    M = 0.8
    mag_h = rtmhd.MagneticConfig(H, M)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        xi = rtmhd.Frequency(*(rng.uniform(-3, 3, size=2)))
        if xi.norm < 0.05:
            continue
        forms = assemble_forms(jumpneg_profile, canon_grid, xi, mag_h, params)
        member = in_growing_domain(forms)
        if xi.xi1 == 0.0:
            predicted = True
        else:
            try:
                s_val = critical_freq_horizontal(jumpneg_profile, canon_grid, xi, M, g=g)
                if abs(xi.norm - s_val) < boundary_rtol * xi.norm:
                    checked += 1
                    continue  # inside the boundary tolerance band
                predicted = xi.norm < s_val
            except OutOfRange:
                predicted = False
        assert member == predicted, f"horizontal mismatch at ({xi.xi1}, {xi.xi2})"
        checked += 1

    # vertical: membership vs the critical frequency constant
    Mv = 0.5 * 0.5938125387139516
    mag_v = rtmhd.MagneticConfig(V, Mv)
    xi_vc = critical_freq_vertical(jumpneg_profile, canon_grid, Mv, g=g)
    for k in range(50):
        r = xi_vc * (0.3 + 1.4 * k / 49.0)
        angle = 2 * np.pi * k / 50.0
        xi = rtmhd.Frequency(r * np.cos(angle), r * np.sin(angle))
        if abs(xi.norm - xi_vc) < boundary_rtol * xi.norm:
            continue
        forms = assemble_forms(jumpneg_profile, canon_grid, xi, mag_v, params)
        member = in_growing_domain(forms)
        assert member == (xi.norm > xi_vc), f"vertical mismatch at |xi| = {xi.norm}"

    # lattice table symmetric under all four sign flips, zero exceptions
    table = lattice_sweep(jumpneg_profile, canon_grid, mag_v, params, radius=2 * xi_vc)
    lookup = {(e.xi1, e.xi2): e for e in table.entries}
    for (x1, x2), e in lookup.items():
        for key in ((-x1, x2), (x1, -x2), (-x1, -x2)):
            assert lookup[key].member == e.member
            assert lookup[key].lam == e.lam
    _report(6, time.monotonic() - t0, 120.0, "100 samples + symmetric table")


def test_criterion_7_mode_residuals():
    t0 = time.monotonic()
    floor = 1e-10  # residuals that close algebraically sit at roundoff
    for label, spec, xi, orient, M in MODE_CASES:
        coarse, _, _ = _mode_case(spec, xi, orient, M, n=1001)
        fine, _, _ = _mode_case(spec, xi, orient, M, n=2001)
        assert max(fine.residuals.values()) <= 1e-6, label
        assert fine.residuals["div"] <= 1e-8, label
        for key in ("eq1", "eq2", "eq3"):
            rc, rf = coarse.residuals[key], fine.residuals[key]
            if rf > floor and rc > floor:
                assert 1.8 <= eoc(rc, rf) <= 2.2, f"{label}:{key}"
    _report(7, time.monotonic() - t0, 60.0, "6 cases, all residuals <= 1e-6")


def test_criterion_8_growing_solution_norms(fine_modes):
    t0 = time.monotonic()
    (hmode, _, _), (vmode, _, _) = fine_modes
    for mode in (hmode, vmode):
        s0 = assemble_real_solution(mode, 0.0)
        s1 = assemble_real_solution(mode, 0.83)
        factor = np.exp(mode.lam * 0.83)
        for name, n0 in s0.norms.items():
            if n0 > 0:
                assert s1.norms[name] / n0 == pytest.approx(factor, rel=1e-12)
        assert snapshot_divergence(s0, ("u1", "u2", "u3")) <= 1e-8
        assert snapshot_divergence(s0, ("N1", "N2", "N3")) <= 1e-8
        assert s0.norm_group(("u1", "u2")) * s0.norms["u3"] > 0
    v0 = assemble_real_solution(vmode, 0.0)
    assert v0.norms["N3"] > 0
    _report(8, time.monotonic() - t0, 5.0, "exact exponential scaling")


def test_criterion_9_end_to_end_rates():
    budget_per_case = 120.0
    grid = rtmhd.Grid1D(8.0, 801)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    cases = [
        (rtmhd.MagneticConfig(H, 0.0), rtmhd.Frequency(1.0, 0.0)),
        (rtmhd.MagneticConfig(H, 0.3), rtmhd.Frequency(1.0, 1.0)),
        (rtmhd.MagneticConfig(V, 0.3), rtmhd.Frequency(0.0, 1.0)),
    ]
    for mag, xi in cases:
        t0 = time.monotonic()
        forms = assemble_forms(prof, grid, xi, mag, CANON_PARAMS)
        res = growth_rate(forms)
        mode = build_mode(res, mode_tol=1e-3)
        lam = res.lam
        z = eigenmode_column(mode)
        est, _, _ = run_rate(
            prof, mag, CANON_PARAMS, grid, xi, z, dt=0.01 / lam, T=3.0 / lam
        )
        assert abs(est.rate - lam) / lam <= 0.02
        errs = []
        for fac in (0.2, 0.1, 0.05):
            e, _, _ = run_rate(
                prof, mag, CANON_PARAMS, grid, xi, z, dt=fac / lam, T=2.0 / lam
            )
            errs.append(abs(e.rate - lam) / lam)
        orders = [eoc(errs[i], errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders), orders
        elapsed = time.monotonic() - t0
        print(
            f"ACCEPTANCE 9 case ({mag.orientation.value}, M={mag.magnitude}): "
            f"PASS ({elapsed:.1f}s / {budget_per_case:.0f}s) rel_err "
            f"{abs(est.rate - lam) / lam:.2e}, dt orders {orders[0]:.2f}, {orders[1]:.2f}"
        )
        assert elapsed < budget_per_case


def test_criterion_10_sharpness():
    t0 = time.monotonic()
    grid = rtmhd.Grid1D(8.0, 601)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.0)
    table = lattice_sweep(prof, grid, mag, CANON_PARAMS, radius=3.0)
    top = sup_rate(table)
    members = sorted(
        (e for e in table.entries if e.member),
        key=lambda e: (-e.lam, np.hypot(e.xi1, e.xi2), e.xi1, e.xi2),
    )[:8]
    xi_rates = {rtmhd.Frequency(e.xi1, e.xi2): e.lam for e in members}
    worst = -np.inf
    seeds = [0, 1, 2, 3, 4]
    from rtmhd.verify import sharpness_test

    worst = sharpness_test(
        prof, mag, CANON_PARAMS, grid, top.lam_max,
        seeds=seeds, xi_rates=xi_rates, horizon=4.0,
    )
    assert worst <= top.lam_max * 1.02
    assert worst >= 0.95 * top.lam_max
    _report(
        10, time.monotonic() - t0, 600.0,
        f"max measured {worst:.6f} in [0.95, 1.02] x {top.lam_max:.6f}",
    )
