import numpy as np
import pytest

import rtmhd
from rtmhd.errors import ZeroFrequency
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.operators import band_matvec, band_to_dense

from .conftest import CANON_PARAMS, CANON_SPEC
from .oracles import dense_alpha, dense_forms, eoc

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL


def _forms(profile, grid, xi=(1.0, 0.0), orient=H, M=0.3, params=CANON_PARAMS):
    return assemble_forms(
        profile, grid, rtmhd.Frequency(*xi), rtmhd.MagneticConfig(orient, M), params
    )


def test_zero_frequency_rejected(canon_profile, canon_grid):
    with pytest.raises(ZeroFrequency):
        _forms(canon_profile, canon_grid, xi=(0.0, 0.0))


def test_frequency_whose_square_underflows_rejected(canon_profile, canon_grid):
    # xi is nonzero, but |xi|^2 = 1e-400 rounds to 0
    assert rtmhd.Frequency(1e-200, 0.0).is_zero()
    with pytest.raises(ZeroFrequency):
        _forms(canon_profile, canon_grid, xi=(1e-200, 0.0))


@pytest.mark.parametrize("orient", [H, V], ids=["horizontal", "vertical"])
@pytest.mark.parametrize("xi", [(1.0, 0.0), (1.0, 2.0), (3.0, 1.0)])
def test_forms_match_dense_oracle(orient, xi):
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    fs = _forms(prof, grid, xi=xi, orient=orient)
    expected = dense_forms(prof, grid, fs.xi, fs.mag, CANON_PARAMS)
    for name, dense in expected.items():
        err = np.abs(band_to_dense(getattr(fs, name)) - dense).max()
        assert err <= 1e-13 * np.abs(dense).max(), name


def test_xi_free_bands_built_once_and_read_only(canon_grid, monkeypatch):
    # a spec no other test uses, so its bands are not cached yet
    prof = rtmhd.build_profile(
        rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.1, 1.1),)), canon_grid
    )
    calls = []
    rho = rtmhd.DensityProfile.rho
    monkeypatch.setattr(
        rtmhd.DensityProfile, "rho", lambda self, x: calls.append(1) or rho(self, x)
    )
    forms = [_forms(prof, canon_grid, xi=xi, orient=V) for xi in ((1.0, 0.0), (2.0, 1.0))]
    assert len(calls) == 2  # rho at the points and the midpoints, once
    assert forms[1].mass is forms[0].mass
    with pytest.raises(ValueError):
        forms[0].mass[0, 0] = 0.0


def test_forms_symmetry_is_exact(canon_profile, canon_grid):
    for orient in (H, V):
        fs = _forms(canon_profile, canon_grid, xi=(1.0, 2.0), orient=orient)
        for ab in (fs.e0, fs.e1, fs.j):
            dense = band_to_dense(ab)
            assert np.array_equal(dense, dense.T)


def test_e1_psd_j_pd(canon_profile):
    grid = rtmhd.Grid1D(8.0, 201)
    fs = _forms(canon_profile, grid, xi=(1.0, 0.5))
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(grid.n)
        assert v @ band_matvec(fs.e1, v) >= -1e-12
        assert v @ band_matvec(fs.j, v) > 0


def test_m_zero_orientations_coincide(canon_profile, canon_grid):
    fh = _forms(canon_profile, canon_grid, orient=H, M=0.0)
    fv = _forms(canon_profile, canon_grid, orient=V, M=0.0)
    assert np.array_equal(band_to_dense(fh.e0), band_to_dense(fv.e0))


def test_axis_frequency_kills_horizontal_field_terms(canon_profile, canon_grid):
    # xi1 = 0: the horizontal-field form reduces to the pure buoyancy form
    f1 = _forms(canon_profile, canon_grid, xi=(0.0, 1.0), orient=H, M=0.7)
    f2 = _forms(canon_profile, canon_grid, xi=(0.0, 1.0), orient=H, M=0.0)
    assert np.array_equal(f1.e0, f2.e0)
    x = canon_grid.points()
    expected = -CANON_PARAMS.g * canon_grid.h * canon_profile.drho(x)
    assert np.allclose(f1.e0[0], expected, atol=0)
    assert np.all(f1.e0[1:] == 0.0)


def test_minimizer_is_j_normalized(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid)
    pair = growth_rate(fs).psi
    assert pair.vec @ band_matvec(fs.j, pair.vec) == pytest.approx(1.0, rel=1e-9)


def test_energy_lower_bound(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid, xi=(1.0, 1.0), M=0.4)
    bound = -CANON_PARAMS.g * canon_profile.sup_ratio
    for s in (0.0, 0.2, 1.0, 5.0):
        value, _ = dense_alpha(fs, s)
        assert value >= bound * (1 + 1e-12) - 1e-12


def test_smallest_eigenvalue_grid_convergence():
    vals = {}
    for n in (500, 1000, 2000):
        grid = rtmhd.Grid1D(8.0, n)
        prof = rtmhd.build_profile(CANON_SPEC, grid)
        fs = _forms(prof, grid)
        vals[n] = dense_alpha(fs, 0.25)[0]
    e_coarse = abs(vals[500] - vals[1000])
    e_fine = abs(vals[1000] - vals[2000])
    assert 1.8 <= eoc(e_coarse, e_fine) <= 2.2


def test_domain_truncation_stability():
    # doubling Lz changes the smallest eigenvalue by < 1e-6 relative once
    # Lz is at least 4x the support radius (support radius 1 here); the
    # spacing h is kept identical so only the truncation changes
    vals = []
    for lz, n in ((6.0, 601), (12.0, 1203)):
        grid = rtmhd.Grid1D(lz, n)
        prof = rtmhd.build_profile(CANON_SPEC, grid)
        fs = _forms(prof, grid, xi=(2.0, 0.0))
        vals.append(dense_alpha(fs, 0.25)[0])
    assert abs(vals[1] - vals[0]) <= 1e-6 * abs(vals[1])
