import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import rtmhd
from rtmhd.errors import ConfigError, ResidualTooLarge
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.modes import (
    assemble_real_solution,
    build_mode,
    export_mode,
    export_snapshot,
    load_mode,
    magnetic_coupling,
    mode_fields,
    mode_residuals,
    relative_divergence,
    snapshot_divergence,
)
from rtmhd.operators import band_matvec, block_sparse, d1_stencil
from rtmhd.verify import eigenmode_column

from .oracles import coupling_reference, eoc

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL

# geometry tuned so the equation residuals sit below 1e-6 at n = 2001
MODE_PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=0.9)
MODE_SPEC_A = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 3.98),))
MODE_SPEC_B = rtmhd.ProfileSpec(2.0, (rtmhd.Bump(0.8, 0.1, 3.8),))
MODE_LZ = 8.0
K = 1.0 / MODE_PARAMS.L


def _mode(spec, xi, orient, M, n=2001, mode_tol=1e-6):
    grid = rtmhd.Grid1D(MODE_LZ, n)
    prof = rtmhd.build_profile(spec, grid)
    mag = rtmhd.MagneticConfig(orient, M)
    forms = assemble_forms(prof, grid, rtmhd.Frequency(*xi), mag, MODE_PARAMS)
    res = growth_rate(forms)
    assert res is not None
    mode = build_mode(res, mode_tol=mode_tol)
    return mode, prof, res


@pytest.fixture(scope="module")
def horizontal_mode():
    return _mode(MODE_SPEC_A, (K, 0.0), H, 0.3)


@pytest.fixture(scope="module")
def vertical_mode():
    return _mode(MODE_SPEC_A, (K, 0.0), V, 0.3)


@pytest.fixture(scope="module")
def oblique_mode():
    return _mode(MODE_SPEC_A, (K, K), H, 0.3, mode_tol=1.0)


def test_residuals_below_default_tolerance(horizontal_mode, vertical_mode):
    for mode, _, _ in (horizontal_mode, vertical_mode):
        assert max(mode.residuals.values()) <= 1e-6
        assert mode.residuals["div"] <= 1e-8


def test_axis_case_phi_vanishes_theta_closes_divergence():
    mode, _, _ = _mode(MODE_SPEC_A, (0.0, K), H, 0.3)
    assert np.all(mode.phi == 0.0)
    psi1 = d1_stencil(mode.forms.grid).apply(mode.psi)
    assert np.allclose(mode.theta, -psi1 / K, rtol=0, atol=1e-14 * np.abs(psi1).max())


def test_vertical_ansatz_divergence_exact(vertical_mode, oblique_mode):
    # the swirl-free velocity closes the divergence for every field and xi
    for mode, _, _ in (vertical_mode, oblique_mode):
        psi1 = d1_stencil(mode.forms.grid).apply(mode.psi)
        div = mode.forms.xi.xi1 * mode.phi + mode.forms.xi.xi2 * mode.theta + psi1
        assert np.abs(div).max() <= 1e-14 * np.abs(psi1).max()


def test_divergence_identity_all_cases(horizontal_mode):
    mode, _, _ = horizontal_mode
    assert mode.residuals["div"] <= 1e-8


def test_psi_normalized_and_nonzero(horizontal_mode):
    mode, _, _ = horizontal_mode
    fs = mode.forms
    assert mode.psi @ band_matvec(fs.j, mode.psi) == pytest.approx(1.0, rel=1e-8)
    assert np.linalg.norm(mode.psi) > 0


def test_parity_under_frequency_reflection():
    plus, _, _ = _mode(MODE_SPEC_A, (K, K), H, 0.3, n=601, mode_tol=1.0)
    minus, _, _ = _mode(MODE_SPEC_A, (-K, K), H, 0.3, n=601, mode_tol=1.0)
    scale = np.abs(plus.psi).max()
    assert minus.lam == pytest.approx(plus.lam, rel=1e-10)
    assert np.allclose(minus.psi, plus.psi, atol=1e-10 * scale)
    assert np.allclose(minus.pi, plus.pi, atol=1e-10 * np.abs(plus.pi).max())
    assert np.allclose(minus.phi, -plus.phi, atol=1e-10 * np.abs(plus.phi).max())
    assert np.allclose(minus.theta, plus.theta, atol=1e-10 * max(np.abs(plus.theta).max(), 1e-30))
    flip2, _, _ = _mode(MODE_SPEC_A, (K, -K), H, 0.3, n=601, mode_tol=1.0)
    assert np.allclose(flip2.theta, -plus.theta, atol=1e-10 * np.abs(plus.theta).max())


def test_uniform_boundedness_over_frequency_sample():
    # discrete L2 / difference-quotient proxies stay bounded on a compact
    # sample of growing frequencies
    ceiling = 50.0
    for xi in ((K, 0.0), (K, K), (0.0, 2 * K), (2 * K, K)):
        mode, _, _ = _mode(MODE_SPEC_A, xi, H, 0.3, n=601, mode_tol=1.0)
        h = mode.forms.grid.h
        for arr in (mode.psi, mode.phi, mode.theta, mode.pi):
            l2 = np.sqrt(h * np.sum(arr**2))
            h1 = np.sqrt(h * np.sum(d1_stencil(mode.forms.grid).apply(arr) ** 2))
            assert np.isfinite(l2) and np.isfinite(h1)
            assert l2 <= ceiling and h1 <= ceiling


def test_oblique_horizontal_mode_closes_first_two_equations(oblique_mode):
    # xi1 xi2 != 0: the velocity has no swirl and pi comes from the momentum
    # row along xi, so the first two momentum equations hold to roundoff, and
    # eq3 converges at second order
    coarse, _, _ = _mode(MODE_SPEC_A, (K, K), H, 0.3, n=1001, mode_tol=1.0)
    fine, _, _ = oblique_mode
    for mode in (coarse, fine):
        assert max(mode.residuals[k] for k in ("eq1", "eq2", "div")) <= 1e-8
    assert 1.8 <= eoc(coarse.residuals["eq3"], fine.residuals["eq3"]) <= 2.2


@pytest.mark.parametrize("orient", [H, V])
@pytest.mark.parametrize("M", [0.0, 0.3])
@pytest.mark.parametrize("xi", [(K, 0.0), (0.0, K), (K, K)])
def test_one_route_holds_the_mode_invariants(orient, M, xi):
    # every field and xi: eq1, eq2 and div close by construction, the data
    # carries no swirl into the Crank-Nicolson step, and pi has no end spike
    mode, _, _ = _mode(MODE_SPEC_A, xi, orient, M, n=401, mode_tol=1.0)
    assert max(mode.residuals["eq1"], mode.residuals["eq2"]) <= 1e-10
    assert mode.residuals["div"] <= 1e-14
    z = eigenmode_column(mode)
    n = mode.forms.grid.n
    assert np.all(z[2 * n : 3 * n] == 0.0)
    assert np.abs(mode.pi).max() <= 2.0 * np.abs(mode.pi[3 : n - 3]).max()


@pytest.mark.parametrize("orient", [H, V])
@pytest.mark.parametrize("M", [0.0, 0.3])
@pytest.mark.parametrize("xi", [(1.0, 2.0), (0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
def test_magnetic_coupling_matches_lab_frame_oracle(orient, M, xi):
    grid = rtmhd.Grid1D(4.0, 41)
    mag = rtmhd.MagneticConfig(orient, M)
    freq = rtmhd.Frequency(*xi)
    t_op, f_op = magnetic_coupling([M * e for e in mag.direction()], freq, grid)
    t_ref, f_ref = coupling_reference(mag, grid, freq)
    expected = {
        "T": sp.block_diag(t_ref, format="csr"),
        "F": sp.bmat(f_ref, format="csr"),
    }
    for name, blocks in (("T", t_op), ("F", f_op)):
        empty = sp.csr_matrix((3 * grid.n, 3 * grid.n))
        got = block_sparse(blocks, (3, 3)) if blocks else empty
        assert abs(got - expected[name]).max() == 0.0, name
    if M == 0.0:
        assert not t_op and not f_op


def test_a_rate_off_its_forms_fails_the_mode_gate(horizontal_mode):
    # a result inconsistent with its forms is made by replacing its rate, not
    # by passing a second setup: a rate 1e-3 off leaves eq3 near 6e-4
    mode, _, res = horizontal_mode
    off = dataclasses.replace(res, lam=res.lam * (1.0 + 1e-3))
    with pytest.raises(ResidualTooLarge):
        build_mode(off)
    wrong = build_mode(off, mode_tol=1.0)
    assert wrong.forms is res.forms is mode.forms
    assert wrong.residuals["eq3"] >= 100.0 * mode.residuals["eq3"]


def test_residual_too_large_on_coarse_grid():
    with pytest.raises(ResidualTooLarge):
        _mode(MODE_SPEC_A, (K, 0.0), H, 0.3, n=201, mode_tol=1e-6)


def test_export_roundtrip_bit_exact(tmp_path, horizontal_mode):
    mode, _, _ = horizontal_mode
    stem = str(tmp_path / "mode")
    json_path, csv_path = export_mode(mode, stem)
    back = load_mode(json_path)
    assert np.array_equal(back.psi, mode.psi)
    assert np.array_equal(back.phi, mode.phi)
    assert np.array_equal(back.theta, mode.theta)
    assert np.array_equal(back.pi, mode.pi)
    assert back.lam == mode.lam
    assert back.forms.params == MODE_PARAMS
    # the forms are reassembled from the setup the file records
    assert (back.forms.xi, back.forms.mag) == (mode.forms.xi, mode.forms.mag)
    assert back.forms.grid == mode.forms.grid
    for band in ("e0", "e1", "j", "mass"):
        assert np.array_equal(getattr(back.forms, band), getattr(mode.forms, band))
    header = open(csv_path).readline().strip()
    assert header == "x3,psi,phi,theta,pi"


def test_residuals_recomputed_from_file(tmp_path, horizontal_mode):
    mode, _, _ = horizontal_mode
    stem = str(tmp_path / "mode")
    json_path, _ = export_mode(mode, stem)
    back = load_mode(json_path)
    again = mode_residuals(back.psi, back.phi, back.theta, back.pi, back.lam, back.forms)
    for key, value in mode.residuals.items():
        assert again[key] == pytest.approx(value, abs=1e-12)


# edits of an exported mode file, each to a setup a run config refuses or
# to a mode payload that does not fit it
MALFORMED_MODE_FILES = {
    "boolean-g": lambda p: p["params"].update(g=True),
    "string-mu": lambda p: p["params"].update(mu="1.0"),
    "fractional-n": lambda p: p["grid"].update(n=2001.5),
    "unknown-params-key": lambda p: p["params"].update(rho=1.0),
    "missing-params": lambda p: p.pop("params"),
    "bump-not-an-object": lambda p: p["profile"]["bumps"].append(0.5),
    "unknown-orientation": lambda p: p["mag"].update(orientation="diagonal"),
    "another-kind": lambda p: p.update(kind="growth"),
    "missing-xi": lambda p: p.pop("xi"),
    "string-xi": lambda p: p.update(xi="ab"),
    "string-lambda": lambda p: p.update({"lambda": "x"}),
    "short-psi": lambda p: p.update(psi=p["psi"][:10]),
}


def _edited_export(tmp_path, mode, edit) -> str:
    json_path, _ = export_mode(mode, str(tmp_path / "mode"))
    payload = json.loads(Path(json_path).read_text())
    edit(payload)
    Path(json_path).write_text(json.dumps(payload))
    return json_path


@pytest.mark.parametrize("case", sorted(MALFORMED_MODE_FILES))
def test_load_mode_applies_the_config_checks(tmp_path, horizontal_mode, case):
    mode, _, _ = horizontal_mode
    with pytest.raises(ConfigError):
        load_mode(_edited_export(tmp_path, mode, MALFORMED_MODE_FILES[case]))


def test_load_mode_reads_an_integral_float_n_as_the_config_does(tmp_path, horizontal_mode):
    mode, _, _ = horizontal_mode
    back = load_mode(_edited_export(tmp_path, mode, lambda p: p["grid"].update(n=2001.0)))
    assert back.forms.grid == mode.forms.grid and type(back.forms.grid.n) is int


def test_empty_export_path_raises(horizontal_mode):
    mode, _, _ = horizontal_mode
    with pytest.raises(OSError):
        export_mode(mode, "")


# --- real-valued growing solution ------------------------------------------


def test_snapshot_norms_scale_exactly(horizontal_mode):
    mode, _, _ = horizontal_mode
    s0 = assemble_real_solution(mode, 0.0)
    tau = 0.37
    s1 = assemble_real_solution(mode, tau)
    factor = np.exp(mode.lam * tau)
    for name in s0.norms:
        if s0.norms[name] == 0.0:
            assert s1.norms[name] == 0.0
        else:
            assert s1.norms[name] / s0.norms[name] == pytest.approx(factor, rel=1e-13)


def test_snapshot_divergences(horizontal_mode, vertical_mode):
    for mode, _, _ in (horizontal_mode, vertical_mode):
        snap = assemble_real_solution(mode, 0.0)
        assert snapshot_divergence(snap, ("u1", "u2", "u3")) <= 1e-8
        assert snapshot_divergence(snap, ("N1", "N2", "N3")) <= 1e-8


def test_snapshot_is_the_pair_sum_of_the_eigenmode_state(
    horizontal_mode, vertical_mode
):
    # the real solution at t is f e^{lambda t + i x'.xi} + c.c. of the complex
    # mode fields f, and both divergence checks read the same complex profiles
    unmagnetized = _mode(MODE_SPEC_A, (0.6 * K, 0.8 * K), H, 0.0, mode_tol=1e-2)
    t = 0.37
    for mode, _, _ in (unmagnetized, horizontal_mode, vertical_mode):
        profiles = mode_fields(mode)
        snap = assemble_real_solution(mode, t)
        amp = 2.0 * np.exp(mode.lam * t)
        assert set(profiles) == set(snap.fields)
        for name, f in profiles.items():
            c, s = snap.fields[name]
            np.testing.assert_allclose(c, amp * f.real, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(s, -amp * f.imag, rtol=1e-14, atol=0.0)
        for names in (("u1", "u2", "u3"), ("N1", "N2", "N3")):
            v = [profiles[k] for k in names]
            direct = relative_divergence(v, mode.forms.xi, mode.forms.grid)
            assert snapshot_divergence(snap, names) == pytest.approx(direct, abs=1e-14)


def test_snapshot_velocity_norm_products(horizontal_mode):
    mode, _, _ = horizontal_mode
    snap = assemble_real_solution(mode, 0.0)
    horizontal = snap.norm_group(("u1", "u2"))
    assert horizontal * snap.norms["u3"] > 0


def test_snapshot_vertical_field_component_positive(vertical_mode):
    mode, _, _ = vertical_mode
    snap = assemble_real_solution(mode, 0.0)
    assert snap.norms["N3"] > 0
    h = mode.forms.grid.h
    n3 = 2 * mode.forms.mag.magnitude * d1_stencil(mode.forms.grid).apply(mode.psi)
    expected = 2.0 * np.pi * MODE_PARAMS.L * np.sqrt(0.5 * h * np.sum(n3**2))
    assert snap.norms["N3"] == pytest.approx(expected, rel=1e-12)


def test_snapshot_initial_norms_finite(horizontal_mode):
    mode, _, _ = horizontal_mode
    snap = assemble_real_solution(mode, 0.0)
    d1 = d1_stencil(mode.forms.grid)
    for name, (c, s) in snap.fields.items():
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
        # H^k proxies up to second differences stay finite
        for arr in (c, s):
            assert np.isfinite(np.sum(d1.apply(arr) ** 2))
            assert np.isfinite(np.sum(d1.apply(d1.apply(arr)) ** 2))


def test_snapshot_csv_export(tmp_path, horizontal_mode):
    mode, _, _ = horizontal_mode
    snap = assemble_real_solution(mode, 0.0)
    path = str(tmp_path / "snapshot.csv")
    export_snapshot(snap, path)
    header = open(path).readline().strip().split(",")
    assert header[0] == "x3"
    for name in ("rho", "u1", "u2", "u3", "N1", "N2", "N3", "q"):
        assert f"{name}_cos" in header and f"{name}_sin" in header
    with pytest.raises(OSError):
        export_snapshot(snap, "")
