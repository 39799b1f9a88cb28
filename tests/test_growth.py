import numpy as np
import pytest
from scipy.linalg import eigh

import rtmhd
import rtmhd.growth
from rtmhd.errors import BracketFailure, ZeroFrequency
from rtmhd.forms import assemble_forms
from rtmhd.eig import definite, top_root
from rtmhd.growth import growth_rate
from rtmhd.operators import band_combine, band_to_dense

from .conftest import CANON_PARAMS, CANON_SPEC, JUMP_NEG_SPEC, SUP_SPECS
from .oracles import dense_alpha, dense_forms, dense_growth_root

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL

# smallest eigenvalue of the energy pencil at s = 0.1 for the canonical
# profile, xi = (1, 0), M = 0; frozen from a dense full-spectrum solve on the
# fine grid (n = 4001, Lz = 8)
ALPHA_FINE_ORACLE = -0.49609188113959313


def _forms(profile, grid, xi=(1.0, 0.0), orient=H, M=0.0):
    return assemble_forms(
        profile, grid, rtmhd.Frequency(*xi), rtmhd.MagneticConfig(orient, M), CANON_PARAMS
    )


def test_alpha_monotone_nondecreasing(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid)
    values = [dense_alpha(fs, s)[0] for s in np.linspace(1e-4, 1.2, 12)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1])))
    quotients = np.abs(diffs) / np.diff(np.linspace(1e-4, 1.2, 12))
    assert np.all(np.isfinite(quotients))


def test_alpha_lower_bound(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid, xi=(2.0, 1.0))
    bound = -CANON_PARAMS.g * canon_profile.sup_ratio
    for s in (1e-6, 0.1, 1.0):
        a, _ = dense_alpha(fs, s)
        assert a >= bound - 1e-12


def test_alpha_matches_fine_grid_oracle(canon_profile, canon_grid):
    a, _ = dense_alpha(_forms(canon_profile, canon_grid), 0.1)
    assert a == pytest.approx(ALPHA_FINE_ORACLE, rel=1e-3)


def test_fixed_point_residual(canon_profile, canon_grid):
    for xi in ((1.0, 0.0), (1.0, 1.0), (0.0, 2.0)):
        res = growth_rate(_forms(canon_profile, canon_grid, xi=xi))
        assert res is not None
        assert res.lam > 0
        assert abs(res.s_star - res.lam) <= 1e-8 * max(1.0, res.lam)
        assert res.alpha_at_s < 0
        assert res.s_frontier >= res.s_star


# criterion 3's setups: (xi, horizontal field strength)
FIXED_POINT_SETUPS = (((1.0, 0.0), 0.0), ((1.0, 1.0), 0.3), ((0.0, 2.0), 1.0))


def test_fixed_point_work_counts(canon_profile, canon_grid, lapack_calls):
    # the work of one rate: banded Cholesky tests and banded solves
    for xi, M in FIXED_POINT_SETUPS:
        lapack_calls()
        res = growth_rate(_forms(canon_profile, canon_grid, xi=xi, M=M))
        calls = lapack_calls()
        assert res is not None
        assert calls["dpbtrf"] <= 14, f"xi = {xi}, M = {M}: {calls}"
        assert calls["dgbsv"] + calls["dgtsv"] <= 5, f"xi = {xi}, M = {M}: {calls}"


def test_fixed_point_bracket_certificate(canon_profile, canon_grid):
    tol = 1e-8
    for xi, M in FIXED_POINT_SETUPS:
        fs = _forms(canon_profile, canon_grid, xi=xi, M=M)
        res = growth_rate(fs, tol=tol)
        assert 0.0 < res.bracket_width <= tol * max(1.0, res.lam)
        assert res.s_frontier >= res.s_star
        # the root of g(s) = s^2 + alpha(s) lies within the bracket width
        below, above = res.s_star - res.bracket_width, res.s_star + res.bracket_width
        assert below**2 + dense_alpha(fs, below)[0] < 0.0
        assert 0.0 <= above**2 + dense_alpha(fs, above)[0]


def test_rate_above_s_hi_raises(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid, xi=(1.0, 0.0))
    lam = growth_rate(fs).lam
    with pytest.raises(BracketFailure):
        growth_rate(fs, s_hi=0.5 * lam)


def test_perturbed_bracket_returns_same_rate(canon_profile, canon_grid):
    fs = _forms(canon_profile, canon_grid, xi=(1.0, 0.0), orient=H, M=0.4)
    base = growth_rate(fs)
    cap = np.sqrt(CANON_PARAMS.g * canon_profile.sup_ratio)
    moved = growth_rate(fs, s_lo=3.7e-8 * cap, s_hi=1.41 * cap)
    assert moved.lam == pytest.approx(base.lam, abs=1e-8 * max(1.0, base.lam))


def test_rate_bounded_by_sup_ratio(canon_profile, canon_grid):
    cap = np.sqrt(CANON_PARAMS.g * canon_profile.sup_ratio)
    for xi in ((1.0, 0.0), (2.0, 2.0)):
        res = growth_rate(_forms(canon_profile, canon_grid, xi=xi, M=0.2))
        assert res.lam <= cap * (1 + 1e-6)


@pytest.mark.parametrize("n", [17, 201, 801])
@pytest.mark.parametrize("name", SUP_SPECS)
def test_grid_bound_brackets_every_rate(name, n):
    # s_max, g drho/rho at the grid nodes, makes T(s_max) positive definite
    # at every xi and field, is never above sqrt(g sup drho/rho), and the
    # default bracket finds the rate the sup-based one does
    grid = rtmhd.Grid1D(8.0, n)
    profile = rtmhd.build_profile(SUP_SPECS[name], grid)
    cap = np.sqrt(CANON_PARAMS.g * profile.sup_ratio)
    for orient, M in ((H, 0.0), (H, 0.3), (V, 0.3)):
        for xi in ((1.0, 0.0), (0.5, 2.0), (3.0, 1.0)):
            fs = _forms(profile, grid, xi=xi, orient=orient, M=M)
            s_max = fs.s_max
            assert 0.0 < s_max <= cap
            t = band_combine([(fs.xi.norm2, fs.e0), (s_max, fs.e1), (s_max**2, fs.j)])
            assert definite(t, fs.j, 0.0)
            res, capped = growth_rate(fs), growth_rate(fs, s_hi=cap)
            assert (res is None) == (capped is None)
            if res is not None:
                assert res.lam <= s_max
                assert res.lam == pytest.approx(capped.lam, rel=1e-10, abs=0.0)


def test_axis_frequency_always_grows_horizontal(canon_profile, canon_grid):
    # xi1 = 0 lies inside the growing domain for any horizontal field
    for M in (0.0, 1.0, 10.0):
        res = growth_rate(_forms(canon_profile, canon_grid, xi=(0.0, 1.0), M=M))
        assert res is not None and res.lam > 0


def test_zero_frequency_raises_upstream(canon_profile, canon_grid):
    with pytest.raises(ZeroFrequency):
        _forms(canon_profile, canon_grid, xi=(0.0, 0.0))


def test_no_growing_mode_beyond_horizontal_threshold(jumpneg_profile, canon_grid):
    # negative total jump -> finite critical field; drive |M xi1|/|xi| far
    # above it so the buoyancy form is positive semidefinite
    res = growth_rate(
        _forms(jumpneg_profile, canon_grid, xi=(1.0, 0.0), orient=H, M=30.0)
    )
    assert res is None


def test_continuity_probe_along_lattice(canon_profile, canon_grid):
    # crude continuity: the jump between adjacent lattice rates stays within
    # 10x the difference predicted by the local 3-point linear model
    lams = [
        growth_rate(_forms(canon_profile, canon_grid, xi=(k, 1.0), M=0.3)).lam
        for k in (1.0, 2.0, 3.0)
    ]
    predicted = abs(lams[1] - lams[0])
    assert abs(lams[2] - lams[1]) <= 10.0 * predicted + 1e-12


def test_growth_rate_stable_under_grid_refinement(canon_profile):
    lams = []
    for n in (401, 801):
        grid = rtmhd.Grid1D(8.0, n)
        prof = rtmhd.build_profile(canon_profile.spec, grid)
        lams.append(growth_rate(_forms(prof, grid)).lam)
    assert lams[0] == pytest.approx(lams[1], rel=1e-3)


# (profile, orientation, M, xi) at n = 201: both conftest profiles, both field
# orientations, M in {0, 0.3, 1}; three of them admit no growing mode
DENSE_SETUPS = (
    ("canon", H, 0.0, (1.0, 0.0)),
    ("canon", H, 0.3, (1.0, 1.0)),
    ("canon", H, 1.0, (0.0, 2.0)),
    ("canon", H, 1.0, (1.0, 1.0)),
    ("canon", V, 0.3, (2.0, 0.5)),
    ("canon", V, 1.0, (0.5, 1.0)),
    ("canon", V, 1.0, (3.0, 0.0)),
    ("jumpneg", H, 0.0, (0.3, 0.0)),
    ("jumpneg", H, 0.3, (2.0, 0.5)),
    ("jumpneg", H, 1.0, (0.5, 1.0)),
    ("jumpneg", H, 1.0, (2.0, 0.0)),
    ("jumpneg", V, 0.3, (0.1, 0.1)),
    ("jumpneg", V, 1.0, (1.0, 1.0)),
    ("jumpneg", V, 1.0, (0.3, 0.0)),
)


def test_growth_rate_matches_dense_root():
    # the certified root against s^2 + alpha(s) = 0 with alpha from dense
    # eigh on the forms written out from the paper (tests/oracles.py)
    grid = rtmhd.Grid1D(8.0, 201)
    specs = {"canon": CANON_SPEC, "jumpneg": JUMP_NEG_SPEC}
    nones = 0
    for name, orient, M, xi in DENSE_SETUPS:
        prof = rtmhd.build_profile(specs[name], grid)
        freq, mag = rtmhd.Frequency(*xi), rtmhd.MagneticConfig(orient, M)
        res = growth_rate(assemble_forms(prof, grid, freq, mag, CANON_PARAMS))
        s_lo = 1e-8 * np.sqrt(CANON_PARAMS.g * prof.sup_ratio)
        root = dense_growth_root(
            dense_forms(prof, grid, freq, mag, CANON_PARAMS), freq.norm2, s_lo
        )
        label = f"{name} {orient.value} M = {M} xi = {xi}"
        if res is None:
            nones += 1
            assert root is None, f"{label}: dense root {root}"
            continue
        assert root is not None, label
        assert abs(res.s_star - root) <= res.bracket_width, label
        assert abs(res.s_star - res.lam) <= 1e-8 * max(1.0, res.lam), label
        assert abs(res.lam - root) <= 1e-8 * max(1.0, root), label
    assert nones == 3


def test_certificate_rejects_a_lower_root(monkeypatch):
    # start the iteration from the second eigenvector of (E(lambda), J): it
    # converges to a lower root of T, which the certificate rejects, and the
    # cold route, run after it, returns the true rate
    grid = rtmhd.Grid1D(8.0, 201)
    fs = _forms(rtmhd.build_profile(CANON_SPEC, grid), grid)
    tol = 1e-8
    truth = growth_rate(fs, tol=tol)
    _, vecs = eigh(band_to_dense(fs.energy(truth.lam)), band_to_dense(fs.j))
    terms = (band_combine([(fs.xi.norm2, fs.e0)]), fs.e1, fs.j)
    s_hi = float(np.sqrt(CANON_PARAMS.g * fs.profile.sup_ratio))
    cold = top_root(terms, fs.j, 1e-8 * s_hi, s_hi, tol=tol)
    factor, infos = rtmhd.eig.dpbtrf, []

    def recording(ab, lower):
        out = factor(ab, lower=lower)
        infos.append(out[1])
        return out

    monkeypatch.setattr(rtmhd.eig, "dpbtrf", recording)
    res = top_root(terms, fs.j, 1e-8 * s_hi, s_hi, start=vecs[:, 1], tol=tol)
    # the first test, T(p + delta), is not positive definite: the iteration
    # found a root more than delta >= tol/2 below the rate
    assert infos[0] != 0
    assert res.iterations > cold.iterations  # then the cold route ran
    assert abs(res.value - truth.lam) <= tol * max(1.0, truth.lam)
    lo, hi = res.bracket
    assert lo <= truth.lam <= hi and hi - lo <= 2.0 * tol * max(1.0, res.value)
