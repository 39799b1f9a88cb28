import json

import numpy as np
import pytest

import rtmhd
from rtmhd.artifacts import write_csv
from rtmhd.cli import main
from rtmhd.config import setup_dict
from rtmhd.dispersion import (
    critical_freq_horizontal,
    critical_freq_vertical,
    critical_number_auto,
    default_truncation_grids,
    in_growing_domain,
    lattice_sweep,
    read_table,
    sup_rate,
    threshold_rows,
    write_table,
    _classify_trace,
    _truncations,
)
from rtmhd.eig import TOL, definite, top_root
from rtmhd.errors import EmptyDomain, InconsistentDecision, OutOfRange, ZeroFrequency
from rtmhd.forms import assemble_forms, form_key
from rtmhd.growth import growth_rate
from rtmhd.operators import band_combine, d2_stencil, grad_stiffness_band, mass_band

from .conftest import CANON_PARAMS, JUMP_NEG_SPEC
from .oracles import cone_infimum_dense, dense_largest

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL

# threshold frequency of the canonical profile at xi = (0.5, 1), M = 1,
# g = 9.8; frozen from a dense largest-eigenvalue solve at n = 4001, Lz = 8
S_FINE_ORACLE = 2.4188452309547825

# direct-formula threshold for the negative-jump profile at g = 1 and
# M = 0.5 * 0.5938125387139516 (half the converged critical value); frozen
# from a dense positive-definiteness bisection at n = 2001, Lz = 8
XI_VC_DIRECT_ORACLE = 0.54416036461031425
M_HALF_CRITICAL = 0.5 * 0.5938125387139516

# sweep argmax of the canonical field-free setup in radius 4, confirmed
# unchanged under grid doubling (n = 801 vs 1601)
ARGMAX_ORACLE = (-1.0, 0.0)


def test_membership_axis_and_field_free(canon_profile, canon_grid):
    mag_h = rtmhd.MagneticConfig(H, 2.5)
    assert in_growing_domain(
        assemble_forms(
            canon_profile, canon_grid, rtmhd.Frequency(0.0, 1.0), mag_h, CANON_PARAMS
        )
    )
    mag_0 = rtmhd.MagneticConfig(H, 0.0)
    for xi in ((1.0, 0.0), (3.0, 2.0), (0.0, 4.0)):
        assert in_growing_domain(
            assemble_forms(
                canon_profile, canon_grid, rtmhd.Frequency(*xi), mag_0, CANON_PARAMS
            )
        )


def test_membership_zero_frequency(canon_profile, canon_grid):
    with pytest.raises(ZeroFrequency):
        in_growing_domain(
            assemble_forms(
                canon_profile,
                canon_grid,
                rtmhd.Frequency(0.0, 0.0),
                rtmhd.MagneticConfig(H, 0.0),
                CANON_PARAMS,
            )
        )


def test_membership_vertical_below_threshold(jumpneg_profile, canon_grid):
    params = rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0)
    mag = rtmhd.MagneticConfig(V, M_HALF_CRITICAL)
    xi_vc = critical_freq_vertical(jumpneg_profile, canon_grid, M_HALF_CRITICAL, g=1.0)
    below = rtmhd.Frequency(0.0, 0.5 * xi_vc)
    above = rtmhd.Frequency(0.0, 2.0 * xi_vc)
    assert not in_growing_domain(
        assemble_forms(jumpneg_profile, canon_grid, below, mag, params)
    )
    assert in_growing_domain(
        assemble_forms(jumpneg_profile, canon_grid, above, mag, params)
    )


def test_critical_number_infinite(canon_profile):
    result = critical_number_auto(canon_profile, lz0=8.0, n0=129, g=9.8)
    assert result.is_infinite and result.value is None
    v2 = [v**2 for _, v in result.trace]
    assert v2[-1] / v2[-2] >= 1.5 and v2[-2] / v2[-3] >= 1.5


def test_critical_number_finite_converged(jumpneg_profile):
    result = critical_number_auto(jumpneg_profile, lz0=8.0, n0=129, g=1.0, max_doublings=16)
    assert not result.is_infinite
    values = [v for _, v in result.trace]
    assert abs(values[-1] - values[-2]) <= 1e-4 * abs(values[-1])


# 1/Lz-model extrapolation of the Lz = {8, 16, 32} trace (n0 = 129, g = 1);
# frozen before the converged value was computed
FINITE_EXTRAPOLATION_ORACLE = 0.58784866265140634


@pytest.mark.parametrize(
    "values, total_jump, strict",
    [
        pytest.param((1.0, 1.5, 2.25), -1.0, False, id="diverging-nonpositive-jump"),
        pytest.param((1.0, 1.0, 1.0), 1.0, False, id="settled-positive-jump"),
        pytest.param((1.0, 1.1, 1.2), 1.0, True, id="undecided-strict"),
    ],
)
def test_classify_trace_raises_inconsistent_decision(values, total_jump, strict):
    # (v_k / v_(k-1))^2 = 2.25 twice diverges; equal values settle; ratios of
    # 1.1 and 1.09 (squared 1.21 and 1.19) do neither
    trace = [(8.0 * 2**k, v) for k, v in enumerate(values)]
    if not strict:
        # with the jump of the other sign the same trace is decided
        decided = _classify_trace(trace, -total_jump, strict=False)
        assert decided.is_infinite == (total_jump < 0)
    else:
        assert _classify_trace(trace, total_jump, strict=False) is None
    with pytest.raises(InconsistentDecision):
        _classify_trace(trace, total_jump, strict)


def test_critical_number_finite_matches_extrapolation_oracle(jumpneg_profile):
    result = critical_number_auto(jumpneg_profile, lz0=8.0, n0=129, g=1.0, max_doublings=16)
    # the short-trace extrapolation carries the residual curvature of the
    # 1/Lz error model, so agreement is at the percent level
    assert result.value == pytest.approx(FINITE_EXTRAPOLATION_ORACLE, rel=0.02)


def test_critical_number_sqrt_scaling(jumpneg_profile, canon_grid):
    c = 2.3
    scaled_spec = rtmhd.ProfileSpec(
        JUMP_NEG_SPEC.base_density,
        tuple(
            rtmhd.Bump(c * b.amplitude, b.center, b.half_width)
            for b in JUMP_NEG_SPEC.bumps
        ),
    )
    scaled = rtmhd.build_profile(scaled_spec, canon_grid)
    grid = rtmhd.Grid1D(16.0, 403)
    v1 = next(_truncations(jumpneg_profile, [grid], 1.0))[1]
    v2 = next(_truncations(scaled, [grid], 1.0))[1]
    assert v2 / v1 == pytest.approx(np.sqrt(c), rel=1e-6)


def test_critical_trace_is_continued(jumpneg_profile, monkeypatch):
    # each truncation after the first starts from the previous eigenvector:
    # a few solves instead of a 40-step bisection, and the cold value
    solve = rtmhd.dispersion.top_root
    iterations = []

    def counted(*args, **kwargs):
        pair = solve(*args, **kwargs)
        iterations.append(pair.iterations)
        return pair

    monkeypatch.setattr(rtmhd.dispersion, "top_root", counted)
    result = critical_number_auto(jumpneg_profile, lz0=8.0, n0=17, g=1.0)
    assert not result.is_infinite
    assert len(iterations) == len(result.trace) >= 4
    assert max(iterations[1:]) <= 8
    grids = default_truncation_grids(
        jumpneg_profile, lz0=8.0, n0=17, count=len(result.trace)
    )
    for grid, (lz, value) in zip(grids, result.trace):
        assert lz == grid.half_length
        a = mass_band(grid, jumpneg_profile.drho(grid.points()))
        stiffness = grad_stiffness_band(grid)
        cold = solve((band_combine([(-1.0, a)]), stiffness), stiffness, 0.0)
        assert value == pytest.approx(np.sqrt(cold.value), rel=1e-11)


def test_critical_trace_continues_after_the_first_truncation_on_both_jump_signs(
    canon_profile, jumpneg_profile, monkeypatch
):
    # on the condensed pencil the previous eigenvector also certifies the top
    # eigenvalue of a diverging trace (positive jump), so every truncation
    # after the first starts from it and costs a few solves, not a cold one
    solve = rtmhd.dispersion.top_root
    calls = []

    def recording(*args, **kwargs):
        pair = solve(*args, **kwargs)
        calls.append((kwargs.get("start"), pair.iterations))
        return pair

    monkeypatch.setattr(rtmhd.dispersion, "top_root", recording)
    for profile, n0, g, infinite in (
        (canon_profile, 129, 9.8, True),
        (jumpneg_profile, 17, 1.0, False),
    ):
        calls.clear()
        result = critical_number_auto(profile, lz0=8.0, n0=n0, g=g)
        assert result.is_infinite == infinite == (profile.total_jump > 0)
        assert len(calls) == len(result.trace) >= 3
        assert calls[0][0] is None
        assert all(start is not None for start, _ in calls[1:])
        assert max(iterations for _, iterations in calls[1:]) <= 8


def _full_grid_pair(profile, grid, g):
    """The truncation's pencil on every grid node, solved cold, and the
    OutOfRange of a pencil with no positive eigenvalue."""
    a = mass_band(grid, g * profile.drho(grid.points()))
    b = grad_stiffness_band(grid)
    pair = top_root((band_combine([(-1.0, a)]), b), b, 0.0)
    if pair is None:
        raise OutOfRange("profile admits no positive Rayleigh quotient")
    return a, b, pair


def _spec(*bumps, base=1.0):
    return rtmhd.ProfileSpec(base, tuple(rtmhd.Bump(*b) for b in bumps))


# (spec, g, lz0, n0) of the truncation traces checked against the full grid
CONDENSED_CASES = {
    # h = 0.5, so the support edges -1 and 1 are nodes
    "edge-on-node": (_spec((0.5, 0.0, 1.0)), 9.8, 8.0, 31),
    # support [-0.2, 1.8] against the wall at 1.5: no node above the window
    "past-wall": (_spec((0.5, 0.8, 1.0)), 9.8, 1.5, 31),
    # negative jump off centre: chains of unequal length, warm starts
    "off-centre": (_spec((0.6, 3.0, 0.5), (-1.8, 1.5, 0.5), base=5.0), 1.0, 8.0, 31),
    # drho = 0 on the nodes between the bumps
    "gap": (JUMP_NEG_SPEC, 1.0, 8.0, 17),
    # n0 + 1 odd: the first grid's nodes sit half a step off the others', so
    # its window has another length and the second truncation solves cold
    "half-step": (JUMP_NEG_SPEC, 1.0, 8.0, 32),
}


@pytest.mark.parametrize("case", list(CONDENSED_CASES))
def test_condensed_trace_matches_the_full_grid(case, canon_grid, monkeypatch):
    spec, g, lz0, n0 = CONDENSED_CASES[case]
    profile = rtmhd.build_profile(spec, canon_grid)
    grids = default_truncation_grids(profile, lz0=lz0, n0=n0, count=3)
    solve = rtmhd.dispersion.top_root
    condensed = []

    def recording(terms, *args, **kwargs):
        condensed.append(-terms[0])  # T(s) = s B - A
        return solve(terms, *args, **kwargs)

    monkeypatch.setattr(rtmhd.dispersion, "top_root", recording)
    trace = list(_truncations(profile, grids, g))
    assert [lz for lz, _ in trace] == [grid.half_length for grid in grids]
    for grid, (_, value), a_window in zip(grids, trace, condensed):
        a, b, cold = _full_grid_pair(profile, grid, g)
        assert value == pytest.approx(np.sqrt(cold.value), rel=1e-11)
        assert value == pytest.approx(np.sqrt(dense_largest(a, b)), rel=1e-11)
        # the window runs from the first to the last nonzero entry, bit for bit
        nonzero = np.flatnonzero(a[0])
        assert np.array_equal(a_window[0], a[0, nonzero[0] : nonzero[-1] + 1])
    first = grids[0].points()
    if case == "edge-on-node":
        assert -1.0 in first and 1.0 in first
    if case == "past-wall":
        assert profile.drho(first[-1]) != 0.0
    if case == "gap":
        assert 0.0 in condensed[0][0]
    if case == "half-step":
        assert condensed[0].shape != condensed[1].shape == condensed[2].shape


def test_condensed_pencil_without_support_nodes_is_out_of_range(canon_grid):
    # drho lives on [0.15, 0.35], between the nodes 0 and 0.5 of h = 0.5
    profile = rtmhd.build_profile(_spec((0.5, 0.25, 0.1)), canon_grid)
    grid = rtmhd.Grid1D(8.0, 31)
    assert not profile.drho(grid.points()).any()
    with pytest.raises(OutOfRange):
        next(_truncations(profile, [grid], 1.0))
    with pytest.raises(OutOfRange):
        _full_grid_pair(profile, grid, 1.0)


def test_critical_pencil_size_does_not_grow_with_lz(jumpneg_profile, monkeypatch):
    # the pencil spans the support's nodes, whatever the truncation length:
    # three traces of one spacing h = 16/130 solve pencils of one size
    solve = rtmhd.dispersion.top_root
    rows = []

    def counted(terms, *args, **kwargs):
        rows.append(terms[0].shape[1])
        return solve(terms, *args, **kwargs)

    monkeypatch.setattr(rtmhd.dispersion, "top_root", counted)
    sizes = set()
    for lz0, n0 in ((8.0, 129), (16.0, 259), (64.0, 1039)):
        rows.clear()
        result = critical_number_auto(jumpneg_profile, lz0=lz0, n0=n0, g=1.0)
        assert len(rows) == len(result.trace) >= 3
        sizes.update(rows)
    lo, hi = jumpneg_profile.support
    assert len(sizes) == 1
    assert sizes.pop() <= (hi - lo) / (16.0 / 130) + 1


@pytest.mark.parametrize("M", [0.3, 1.0])
def test_threshold_rows_match_cold_solves(jumpneg_profile, M, monkeypatch, lapack_calls):
    solve = rtmhd.dispersion.top_root
    work, solved = [], []  # LAPACK calls of each solve; those with a threshold

    def counted(*args, **kwargs):
        lapack_calls()
        pair = solve(*args, **kwargs)
        if pair is not None:
            solved.append(len(work))
        work.append(sum(lapack_calls().values()))
        return pair

    grid = rtmhd.Grid1D(8.0, 201)
    monkeypatch.setattr(rtmhd.dispersion, "top_root", counted)
    rows = threshold_rows(jumpneg_profile, grid, M, radius=4.0, L=1.0, g=1.0)
    monkeypatch.undo()
    # one solve per slope xi2/xi1: 8 for the 12 rows.  Each solve after the
    # first, one without a threshold included, continues from the vector of
    # the last slope with one and costs at most 8 LAPACK calls; a slope
    # without a threshold leaves no vector, so the first slope with one is
    # cold
    assert len(work) == 8
    assert all(w <= 8 for k, w in enumerate(work) if k and k != solved[0]), work
    assert [(xi.xi1, xi.xi2) for xi, _ in rows] == [
        (i, j) for i in range(1, 5) for j in range(4) if i * i + j * j <= 16
    ]
    blanks = 0
    for xi, s_val in rows:
        try:
            cold = critical_freq_horizontal(jumpneg_profile, grid, xi, M, g=1.0)
        except OutOfRange:
            assert s_val is None
            blanks += 1
            continue
        assert s_val == pytest.approx(cold, rel=1e-12)
    # M = 1 lies above the critical ratio for the flatter directions
    assert (blanks > 0) == (M == 1.0)


@pytest.mark.parametrize("factor", [1.0 - 1e-7, 1.0 + 1e-7])
def test_threshold_decision_just_below_and_above_the_critical_ratio(
    jumpneg_profile, factor
):
    # S(xi) exists exactly when the field ratio |M xi1| / |xi| lies below
    # M_c of the same grid: 1e-7 below it there is a threshold, 1e-7 above
    # it none, as the sign of the dense top eigenvalue of the S pencil says
    grid = rtmhd.Grid1D(8.0, 201)
    m_c = next(_truncations(jumpneg_profile, [grid], 1.0))[1]
    xi, M = rtmhd.Frequency(1.0, 0.0), factor * m_c
    drho_mass = mass_band(grid, jumpneg_profile.drho(grid.points()))
    a = band_combine([(1.0 / M**2, drho_mass), (-1.0, grad_stiffness_band(grid))])
    top = dense_largest(a, mass_band(grid))
    rows = threshold_rows(jumpneg_profile, grid, M, radius=1.0, L=1.0, g=1.0)
    assert [(f.xi1, f.xi2) for f, _ in rows] == [(1.0, 0.0)]
    if factor < 1.0:
        assert top > 0.0
        s = critical_freq_horizontal(jumpneg_profile, grid, xi, M, g=1.0)
        assert s == rows[0][1] == pytest.approx(np.sqrt(top), rel=1e-3)
    else:
        assert top < 0.0 and rows[0][1] is None
        with pytest.raises(OutOfRange):
            critical_freq_horizontal(jumpneg_profile, grid, xi, M, g=1.0)


def test_threshold_rows_of_one_slope_are_bitwise_equal(jumpneg_profile):
    grid = rtmhd.Grid1D(8.0, 201)
    rows = threshold_rows(jumpneg_profile, grid, 0.3, radius=4.0, L=1.0, g=1.0)
    by_slope: dict[float, set] = {}
    for xi, s_val in rows:
        assert s_val is not None
        by_slope.setdefault(xi.xi2 / xi.xi1, set()).add(s_val)
    assert len(rows) == 12 and len(by_slope) == 8
    assert all(len(values) == 1 for values in by_slope.values())


def test_s_homogeneity_degree_zero(canon_profile, canon_grid):
    s1 = critical_freq_horizontal(
        canon_profile, canon_grid, rtmhd.Frequency(0.5, 1.0), 1.0, g=9.8
    )
    s2 = critical_freq_horizontal(
        canon_profile, canon_grid, rtmhd.Frequency(-1.5, -3.0), 1.0, g=9.8
    )
    assert s1 == pytest.approx(s2, rel=1e-14)


def test_s_matches_fine_grid_oracle(canon_profile, canon_grid):
    s = critical_freq_horizontal(
        canon_profile, canon_grid, rtmhd.Frequency(0.5, 1.0), 1.0, g=9.8
    )
    assert s == pytest.approx(S_FINE_ORACLE, rel=1e-3)


def test_s_blows_up_as_xi1_vanishes(canon_profile, canon_grid):
    values = [
        critical_freq_horizontal(
            canon_profile, canon_grid, rtmhd.Frequency(x1, 1.0), 1.0, g=9.8
        )
        for x1 in (0.5, 0.1, 0.02)
    ]
    assert values[0] < values[1] < values[2]
    assert values[2] > 10 * values[0]


def test_s_out_of_range(canon_profile, canon_grid, jumpneg_profile):
    with pytest.raises(OutOfRange):
        critical_freq_horizontal(
            canon_profile, canon_grid, rtmhd.Frequency(0.0, 1.0), 1.0, g=9.8
        )
    # ratio far above the finite critical value: no threshold exists
    with pytest.raises(OutOfRange):
        critical_freq_horizontal(
            jumpneg_profile, canon_grid, rtmhd.Frequency(1.0, 0.0), 30.0, g=1.0
        )


def test_xi_vc_zero_for_positive_jump(canon_profile, canon_grid):
    assert critical_freq_vertical(canon_profile, canon_grid, 0.3, g=9.8) == 0.0


def test_xi_vc_monotone_in_field(jumpneg_profile, canon_grid):
    v1 = critical_freq_vertical(jumpneg_profile, canon_grid, 0.3 * M_HALF_CRITICAL, g=1.0)
    v2 = critical_freq_vertical(jumpneg_profile, canon_grid, M_HALF_CRITICAL, g=1.0)
    assert 0 < v1 <= v2


def test_xi_vc_matches_direct_formula_oracle(jumpneg_profile):
    grid = rtmhd.Grid1D(8.0, 2001)
    prof = rtmhd.build_profile(JUMP_NEG_SPEC, grid)
    v = critical_freq_vertical(prof, grid, M_HALF_CRITICAL, g=1.0)
    assert v == pytest.approx(XI_VC_DIRECT_ORACLE, rel=1e-3)


def test_vertical_e0_from_prebuilt_bands_is_bitwise(jumpneg_profile, canon_grid):
    # E0 written out term by term, in the order assemble_forms has always used
    params = rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0)
    mag = rtmhd.MagneticConfig(V, M_HALF_CRITICAL)
    m2 = M_HALF_CRITICAL**2
    x = canon_grid.points()
    d2_gram = d2_stencil(canon_grid).gram(np.full(canon_grid.n, canon_grid.h))
    for xi_norm in (0.05, 0.3, 0.5441472474485636, 1.7, 12.0):
        xi = rtmhd.Frequency(0.0, xi_norm)
        reference = band_combine(
            [
                (m2, grad_stiffness_band(canon_grid)),
                (m2 / xi.norm2, d2_gram),
                (1.0, mass_band(canon_grid, -jumpneg_profile.drho(x))),
            ]
        )
        assembled = assemble_forms(jumpneg_profile, canon_grid, xi, mag, params)
        assert np.array_equal(assembled.e0, reference)


def _vertical_pencil(profile, grid, M):
    """(B, A) of |xi|_vc: t E0 = A - t B with t = |xi|^2 (g = 1)."""
    x = grid.points()
    d2_gram = d2_stencil(grid).gram(np.full(grid.n, grid.h))
    a = band_combine([(M**2, d2_gram)])
    b = band_combine(
        [(1.0, mass_band(grid, profile.drho(x))), (-(M**2), grad_stiffness_band(grid))]
    )
    return b, a


@pytest.mark.parametrize(
    "n, M",
    [(201, 0.3), (801, M_HALF_CRITICAL), (801, 0.3 * M_HALF_CRITICAL)],
)
def test_xi_vc_is_one_solve_of_its_pencil(jumpneg_profile, n, M, monkeypatch):
    solve = rtmhd.dispersion.top_root
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    grid = rtmhd.Grid1D(8.0, n)
    monkeypatch.setattr(rtmhd.dispersion, "top_root", counted)
    xi_vc = critical_freq_vertical(jumpneg_profile, grid, M, g=1.0)
    monkeypatch.undo()
    assert len(calls) == 1
    mu = dense_largest(*_vertical_pencil(jumpneg_profile, grid, M))
    assert xi_vc == pytest.approx(1.0 / np.sqrt(mu), rel=1e-8)


@pytest.mark.parametrize("n", [4001, 8001])
def test_xi_vc_on_fine_grids_is_certified_for_its_pencil(tmp_path, monkeypatch, n):
    # freq-thresholds printed 0.5567228263489019 at n = 4 001 and exited 3
    # (FactorizationBreakdown) at n = 8 001.  n = 4 001 stays within 1e-6 of
    # that value; n = 8 001 either exits 3 or prints a root inside a
    # TOL-wide Cholesky bracket: T(lo) not positive definite, T(hi) is
    solve, solves = rtmhd.dispersion.top_root, []

    def recording(terms, metric, *args, **kwargs):
        solves.append((terms, metric, solve(terms, metric, *args, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(rtmhd.dispersion, "top_root", recording)
    config = setup_dict(
        JUMP_NEG_SPEC,
        rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0),
        rtmhd.MagneticConfig(V, 0.3),
        rtmhd.Grid1D(8.0, n),
    )
    (tmp_path / "v.json").write_text(json.dumps(config))
    argv = ["freq-thresholds", str(tmp_path / "v.json"), "--out", str(tmp_path)]
    code = main(argv)
    if n == 8001 and code == 3:
        return
    assert code == 0
    xi_vc = json.loads((tmp_path / "thresholds.json").read_text())["xi_vc"]
    (((c0, a), _, pair),) = solves  # T(s) = C0 + s A, C0 = -B
    mu, (lo, hi) = pair.value, pair.bracket
    assert xi_vc == 1.0 / np.sqrt(mu)
    assert definite(c0, a, -hi) and not definite(c0, a, -lo)
    assert hi - lo <= TOL * max(1.0, mu)
    x = pair.vec.astype(np.longdouble)
    quotient = -(x @ _matvec(c0, x)) / (x @ _matvec(a, x))
    assert abs(float(quotient) - mu) <= pair.noise
    if n == 4001:
        assert abs(xi_vc - 0.5567228263489019) <= 1e-6
        assert lo - 2.0 * pair.noise <= mu <= hi + 2.0 * pair.noise
    else:
        assert lo <= mu <= hi


def _matvec(ab, x):
    """band_matvec in the precision of x."""
    y = ab[0] * x
    for d in range(1, ab.shape[0]):
        y[d:] += ab[d, : x.size - d] * x[: x.size - d]
        y[: x.size - d] += ab[d, : x.size - d] * x[d:]
    return y


def test_xi_vc_out_of_range_at_and_above_critical(jumpneg_profile):
    # E0 = (A - t B)/t stays positive definite at every |xi| once M reaches
    # the critical field strength of the same grid
    grid = rtmhd.Grid1D(8.0, 201)
    m_c = next(_truncations(jumpneg_profile, [grid], 1.0))[1]
    with pytest.raises(OutOfRange):
        critical_freq_vertical(jumpneg_profile, grid, 0.0, g=1.0)
    with pytest.raises(OutOfRange):
        critical_freq_vertical(jumpneg_profile, grid, 1.001 * m_c, g=1.0)
    xi_vc = critical_freq_vertical(jumpneg_profile, grid, 0.999 * m_c, g=1.0)
    assert 10.0 < xi_vc < np.inf


def test_xi_vc_direct_formula_cross_method(jumpneg_profile, canon_grid):
    # same-grid cross check: the banded pencil solve vs a dense bisection
    # of the variational quotient over the admissible cone
    b, a = _vertical_pencil(jumpneg_profile, canon_grid, M_HALF_CRITICAL)
    direct = np.sqrt(cone_infimum_dense(a, b))
    xi_vc = critical_freq_vertical(jumpneg_profile, canon_grid, M_HALF_CRITICAL, g=1.0)
    assert xi_vc == pytest.approx(direct, rel=1e-7)


def test_sweep_symmetry_and_mirrors(canon_sweep):
    table = {(e.xi1, e.xi2): e for e in canon_sweep.entries}
    for (x1, x2), e in table.items():
        for key in ((-x1, x2), (x1, -x2), (-x1, -x2)):
            assert key in table
            other = table[key]
            assert other.member == e.member
            if e.member:
                assert other.lam == e.lam


def test_mirrored_rate_recomputed_independently(canon_profile, canon_grid):
    mag = rtmhd.MagneticConfig(H, 0.4)
    lams = []
    for xi in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        fs = assemble_forms(
            canon_profile, canon_grid, rtmhd.Frequency(*xi), mag, CANON_PARAMS
        )
        lams.append(growth_rate(fs).lam)
    assert np.ptp(lams) <= 1e-10 * max(lams)


@pytest.mark.parametrize(
    "orientation, M, keys", [(H, 0.0, 3), (H, 0.3, 5), (V, 0.3, 3)]
)
def test_sweep_solves_each_form_key_once(
    canon_profile, orientation, M, keys, monkeypatch
):
    grid = rtmhd.Grid1D(8.0, 201)
    mag = rtmhd.MagneticConfig(orientation, M)
    calls = {"growth_rate": 0, "assemble_forms": 0}
    for name in calls:

        def counted(*args, _call=getattr(rtmhd.dispersion, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(rtmhd.dispersion, name, counted)
    table = lattice_sweep(canon_profile, grid, mag, CANON_PARAMS, radius=2.0)
    monkeypatch.undo()
    assert len(table.entries) == 12
    assert calls == {"growth_rate": keys, "assemble_forms": keys}

    # every entry is what a fresh solve at its own xi gives, bitwise, and
    # points with equal keys have equal forms
    first: dict[tuple[float, float], rtmhd.FormSet] = {}
    for e in table.entries:
        xi = rtmhd.Frequency(e.xi1, e.xi2)
        forms = assemble_forms(canon_profile, grid, xi, mag, CANON_PARAMS)
        assert e.member == in_growing_domain(forms)
        assert e.lam == (growth_rate(forms).lam if e.member else None)
        seen = first.setdefault(form_key(xi, mag), forms)
        for band in ("e0", "e1", "j"):
            assert np.array_equal(getattr(forms, band), getattr(seen, band))
    assert len(first) == keys


def test_sweep_all_members_for_field_free(canon_sweep):
    assert all(e.member for e in canon_sweep.entries)
    assert len(canon_sweep.entries) == 48  # lattice points with 0 < |xi| <= 4


@pytest.fixture(scope="module")
def unrated_sweep():
    """One spacing 1e-9 relative above |xi|_vc, E0 is indefinite but the rate
    is below growth_rate's tolerance: (profile, grid, field, params, table)."""
    grid = rtmhd.Grid1D(8.0, 801)
    prof = rtmhd.build_profile(JUMP_NEG_SPEC, grid)
    mag = rtmhd.MagneticConfig(V, 0.3)
    xi_vc = critical_freq_vertical(prof, grid, 0.3, g=1.0)
    L = 1.0 / (xi_vc * (1.0 + 1e-9))
    params = rtmhd.PhysicalParams(mu=1.0, g=1.0, L=L)
    return prof, grid, mag, params, lattice_sweep(prof, grid, mag, params, radius=1.0 / L)


def test_sweep_membership_is_the_membership_test_without_a_rate(unrated_sweep, tmp_path):
    # the points stay members, without a rate
    prof, grid, mag, params, table = unrated_sweep
    assert len(table.entries) == 4
    for entry in table.entries:
        xi = rtmhd.Frequency(entry.xi1, entry.xi2)
        forms = assemble_forms(prof, grid, xi, mag, params)
        assert entry.member == in_growing_domain(forms)
        assert entry.member and entry.lam is None and growth_rate(forms) is None
    write_table(str(tmp_path / "dispersion.csv"), table)
    rows = (tmp_path / "dispersion.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",1,") for row in rows)
    with pytest.raises(EmptyDomain):
        sup_rate(table)


def test_read_table_reads_back_write_table_bitwise(
    canon_sweep, canon_profile, unrated_sweep, tmp_path
):
    path = str(tmp_path / "dispersion.csv")
    unrated_prof, *_, unrated_table = unrated_sweep
    for table, prof in ((canon_sweep, canon_profile), (unrated_table, unrated_prof)):
        write_table(path, table)
        back = read_table(path, table.lattice_radius, table.params, prof)
        # the entries hold Python floats, whose repr differs for any two
        # bit patterns, the sign of zero included
        assert repr(back) == repr(table)


def test_write_csv_fields(tmp_path):
    # None is an empty field, an int is written as an int and a float with
    # 17 significant digits
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c"), [(None, 3, 0.1), (-7, None, 1.0)])
    assert path.read_text() == "a,b,c\n,3,0.10000000000000001\n-7,,1\n"


def test_sup_rate_argmax_matches_refined_oracle(canon_sweep):
    top = sup_rate(canon_sweep)
    assert (top.xi_pair[0].xi1, top.xi_pair[0].xi2) == ARGMAX_ORACLE
    assert top.xi_pair[1].xi1 == -ARGMAX_ORACLE[0]
    assert top.lam_star == top.lam_max
    assert not top.on_boundary


def test_sup_rate_bound(canon_sweep, canon_profile):
    top = sup_rate(canon_sweep)
    assert top.lam_max <= np.sqrt(CANON_PARAMS.g * canon_profile.sup_ratio)


def test_sup_rate_single_member():
    entry = rtmhd.dispersion.DispersionEntry(1.0, 0.0, True, 0.25)
    mirror = rtmhd.dispersion.DispersionEntry(-1.0, 0.0, True, 0.25)
    table = rtmhd.dispersion.DispersionTable((entry, mirror), 1.5, CANON_PARAMS)
    top = sup_rate(table)
    assert top.lam_max == 0.25 and top.lam_star == 0.25


def test_empty_domain_raises(jumpneg_profile, canon_grid):
    params = rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0)
    mag = rtmhd.MagneticConfig(V, M_HALF_CRITICAL)
    xi_vc = critical_freq_vertical(jumpneg_profile, canon_grid, M_HALF_CRITICAL, g=1.0)
    table = lattice_sweep(
        jumpneg_profile, canon_grid, mag, params, radius=0.9 * xi_vc
    )
    with pytest.raises(EmptyDomain):
        sup_rate(table)


def test_vertical_member_count_matches_threshold(jumpneg_profile, canon_grid):
    params = rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0)
    mag = rtmhd.MagneticConfig(V, M_HALF_CRITICAL)
    xi_vc = critical_freq_vertical(jumpneg_profile, canon_grid, M_HALF_CRITICAL, g=1.0)
    radius = 2.0 * xi_vc
    table = lattice_sweep(jumpneg_profile, canon_grid, mag, params, radius=radius)
    expected = {
        (e.xi1, e.xi2)
        for e in table.entries
        if xi_vc < np.hypot(e.xi1, e.xi2) <= radius
    }
    got = {(e.xi1, e.xi2) for e in table.entries if e.member}
    assert got == expected


def test_csv_exports(canon_sweep, jumpneg_profile, tmp_path):
    write_table(str(tmp_path / "dispersion.csv"), canon_sweep)
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    assert lines[0] == "xi1,xi2,member,lambda"
    assert len(lines) == len(canon_sweep.entries) + 1
    cn = critical_number_auto(jumpneg_profile, lz0=8.0, n0=129, g=1.0, max_doublings=16)
    # the trace file is the one ``rtmhd critical`` writes at Lz = 8, n = 129
    config = setup_dict(
        JUMP_NEG_SPEC,
        rtmhd.PhysicalParams(mu=1.0, g=1.0, L=1.0),
        rtmhd.MagneticConfig(H, 0.0),
        rtmhd.Grid1D(8.0, 129),
    )
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["critical", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
    trace = (tmp_path / "critical_trace.csv").read_text().splitlines()
    assert trace[0] == "Lz,value"
    assert len(trace) == len(cn.trace) + 1


def test_openness_no_isolated_members(canon_profile, canon_grid):
    mag = rtmhd.MagneticConfig(H, 1.2)
    table = lattice_sweep(canon_profile, canon_grid, mag, CANON_PARAMS, radius=3.0)
    members = {(e.xi1, e.xi2): e.member for e in table.entries}
    L = CANON_PARAMS.L
    for (x1, x2), is_member in members.items():
        if not is_member:
            continue
        neighbors = [
            (x1 + dx / L, x2 + dy / L)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)
        ]
        present = [members.get(k) for k in neighbors if k in members]
        if len(present) == 8:
            assert any(present), f"isolated member at {(x1, x2)}"
