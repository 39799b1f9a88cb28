import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtmhd
from rtmhd import stats
from rtmhd.config import read_setup, setup_dict
from rtmhd.errors import NonPositiveDensity, NoUnstableRegion
from rtmhd.profiles import _CDF_BLOCK, BUMP_INTEGRAL, _bump_cdf, _positivity_floor

from .conftest import CANON_SPEC, JUMP_NEG_SPEC, SUP_SPECS
from .oracles import (
    adaptive_bump_integral,
    brent_sup_ratio,
    bump_cdf_unblocked,
    eager_profile_metrics,
    profile_unblocked,
)

GRID = rtmhd.Grid1D(8.0, 401)

# integral of exp(-1/(1-t^2)) over [-1,1]; frozen from an adaptive-quadrature
# oracle (30-digit value 0.443993816168079437823048921171)
BUMP_INTEGRAL_ORACLE = 0.44399381616807944


def test_bump_integral_matches_adaptive_quadrature():
    assert BUMP_INTEGRAL == pytest.approx(BUMP_INTEGRAL_ORACLE, abs=1e-15)
    assert adaptive_bump_integral(1.0, 1.0) == pytest.approx(BUMP_INTEGRAL, rel=1e-12)


def test_single_positive_bump_jump():
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.7, 0.0, 1.0),))
    prof = rtmhd.build_profile(spec, GRID)
    assert prof.total_jump > 0
    assert prof.total_jump == pytest.approx(0.7 * 1.0 * BUMP_INTEGRAL_ORACLE, rel=1e-13)


def test_signed_bump_sum_negative_jump():
    a = 0.4
    spec = rtmhd.ProfileSpec(
        5.0, (rtmhd.Bump(a, 1.0, 0.5), rtmhd.Bump(-3 * a, -1.0, 0.5))
    )
    prof = rtmhd.build_profile(spec, GRID)
    assert prof.total_jump < 0
    assert prof.inf_rho > 0


def test_large_negative_bump_rejected():
    spec = rtmhd.ProfileSpec(0.1, (rtmhd.Bump(0.1, 1.5, 0.5), rtmhd.Bump(-5.0, 0.0, 1.0)))
    with pytest.raises(NonPositiveDensity):
        rtmhd.build_profile(spec, GRID)


def test_no_positive_bump_rejected():
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(-0.2, 0.0, 1.0),))
    with pytest.raises(NoUnstableRegion):
        rtmhd.build_profile(spec, GRID)


def test_mirror_symmetric_bumps_cancel():
    spec = rtmhd.ProfileSpec(
        2.0, (rtmhd.Bump(0.5, -1.0, 0.6), rtmhd.Bump(-0.5, 1.0, 0.6))
    )
    prof = rtmhd.build_profile(spec, GRID)
    assert prof.total_jump == pytest.approx(0.0, abs=1e-15)


def test_jump_scales_linearly_with_amplitudes():
    base = rtmhd.ProfileSpec(3.0, (rtmhd.Bump(0.5, 1.0, 0.5), rtmhd.Bump(-0.2, -1.0, 0.7)))
    c = 1.73
    scaled = rtmhd.ProfileSpec(
        3.0,
        tuple(rtmhd.Bump(c * b.amplitude, b.center, b.half_width) for b in base.bumps),
    )
    p1 = rtmhd.build_profile(base, GRID)
    p2 = rtmhd.build_profile(scaled, GRID)
    assert p2.total_jump == pytest.approx(c * p1.total_jump, rel=1e-14)


def test_derivative_compact_support_exact_zero():
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.3, 1.2),))
    prof = rtmhd.build_profile(spec, GRID)
    outside = np.array([-8.0, -1.0, 1.5001, 3.0, 7.9])
    assert np.all(prof.drho(outside) == 0.0)
    inside = np.linspace(-0.89, 1.49, 64)
    assert np.all(prof.drho(inside) > 0.0)


def test_cumulative_consistency_with_jump():
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0), rtmhd.Bump(-0.1, 1.5, 0.4)))
    prof = rtmhd.build_profile(spec, GRID)
    lz = GRID.half_length
    delta = prof.rho(np.array([lz]))[0] - prof.rho(np.array([-lz]))[0]
    assert delta == pytest.approx(prof.total_jump, rel=1e-12)


def test_density_positive_everywhere_sampled(canon_profile):
    x = np.linspace(-8, 8, 4001)
    assert np.all(canon_profile.rho(x) >= canon_profile.inf_rho - 1e-14)
    assert canon_profile.inf_rho > 0


def test_sup_ratio_dominates_grid_samples(canon_profile):
    x = np.linspace(-8, 8, 20011)
    ratios = canon_profile.ratio(x)
    assert canon_profile.sup_ratio >= ratios.max() - 1e-13
    assert canon_profile.sup_ratio > 0


@pytest.mark.parametrize("n", [17, 201, 801])
@pytest.mark.parametrize("name", SUP_SPECS)
def test_sup_ratio_matches_brent_oracle(name, n):
    grid = rtmhd.Grid1D(8.0, n)
    prof = rtmhd.build_profile(SUP_SPECS[name], grid)
    sup, argmax = brent_sup_ratio(prof, grid)
    assert sup <= prof.sup_ratio <= sup * (1.0 + 1e-15)
    # an upper envelope, not only of the samples: every point near the
    # maximum, at 1e-9 spacing, stays at or below the cached value
    x = argmax + 1e-9 * np.arange(-2000, 2001)
    assert prof.ratio(x).max() <= prof.sup_ratio


def _assert_matches_unblocked(prof, x):
    rho, drho = profile_unblocked(prof.spec, x)
    assert prof.rho(x).shape == x.shape
    assert np.array_equal(prof.rho(x), rho)
    assert np.array_equal(prof.drho(x), drho)
    assert np.array_equal(prof.ratio(x), drho / rho)


@pytest.mark.parametrize("name", SUP_SPECS)
def test_blocked_evaluation_matches_unblocked_oracle(name):
    prof = rtmhd.build_profile(SUP_SPECS[name], GRID)
    # several blocks plus a ragged tail, across every support
    x = np.linspace(-3.0, 3.0, 3 * _CDF_BLOCK + 123)
    _assert_matches_unblocked(prof, x)
    # a 2-D input whose rows straddle the block boundaries
    _assert_matches_unblocked(prof, x[: 3 * (_CDF_BLOCK + 7)].reshape(3, -1))


@pytest.mark.parametrize("spec", [CANON_SPEC, JUMP_NEG_SPEC], ids=["canonical", "jump-neg"])
def test_blocked_evaluation_at_bump_edges_and_outside(spec):
    prof = rtmhd.build_profile(spec, GRID)
    edges = np.array(
        [b.center + s * b.half_width for b in spec.bumps for s in (-1.0, 1.0)]
    )
    t = (edges.reshape(-1, 2) - [[b.center] for b in spec.bumps]) / [
        [b.half_width] for b in spec.bumps
    ]
    assert np.all(t == [-1.0, 1.0])  # the edges sit at t = +-1 exactly
    outside = np.array([-8.0, -4.0, -1.5000001, 1.5000001, 4.0, 8.0])
    x = np.concatenate([edges, np.nextafter(edges, -9.0), np.nextafter(edges, 9.0), outside])
    _assert_matches_unblocked(prof, x)
    assert np.all(prof.drho(outside) == 0.0)


def test_bump_cdf_edges_and_nan():
    t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, np.nan, -np.inf, np.inf])
    cdf = _bump_cdf(t)
    finite = ~np.isnan(t)
    assert np.array_equal(cdf[finite], bump_cdf_unblocked(t[finite]))
    assert cdf[1] == 0.0 and cdf[3] == BUMP_INTEGRAL
    assert np.isnan(cdf[5])


def test_ratio_memory_is_bounded(canon_profile):
    # the quadrature runs in blocks: its temporaries do not grow with the input
    x = np.linspace(-8.0, 8.0, 200_001)
    tracemalloc.start()
    try:
        canon_profile.ratio(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_sup_ratio_zoom_stops_at_float_resolution(canon_profile):
    # near x = 600 one ulp is 1.1e-13, so the bracket cannot reach 1e-13;
    # the ratio is translation invariant, so the sup is the canonical one
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 600.0, 1.0),))
    prof = rtmhd.build_profile(spec, rtmhd.Grid1D(2000.0, 17))
    assert prof.sup_ratio == pytest.approx(canon_profile.sup_ratio, rel=1e-14)


def test_metrics_dict(canon_profile):
    m = rtmhd.profile_metrics(canon_profile)
    assert set(m) == {"total_jump", "sup_ratio", "inf_rho", "sup_rho"}
    assert m["sup_rho"] >= m["inf_rho"] > 0


def test_support_must_leave_decay_region():
    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 4.5),))
    with pytest.raises(ValueError):
        rtmhd.build_profile(spec, GRID)  # support exceeds [-Lz/2, Lz/2]


def test_spec_serialization_exact_roundtrip():
    setup = (
        rtmhd.ProfileSpec(
            1.7182818284590452,
            (rtmhd.Bump(0.12345678901234567, -1.1, 0.9876543210987654),),
        ),
        rtmhd.PhysicalParams(mu=0.1 + 0.2, g=9.80665, L=2.0 / 3.0),
        rtmhd.MagneticConfig(rtmhd.Orientation.VERTICAL, 1.0 / 3.0),
        rtmhd.Grid1D(7.0 / 3.0, 123),
    )
    back = read_setup(json.loads(json.dumps(setup_dict(*setup))))
    # repr tells any two floats apart, so equal reprs are bitwise equal records
    assert repr(back) == repr(setup)


@settings(max_examples=25, deadline=None)
@given(
    base=st.floats(0.5, 10.0),
    amp=st.floats(0.01, 1.0),
    center=st.floats(-2.0, 2.0),
    width=st.floats(0.2, 1.5),
)
def test_profile_invariants_hold_for_random_specs(base, amp, center, width):
    spec = rtmhd.ProfileSpec(base, (rtmhd.Bump(amp, center, width),))
    prof = rtmhd.build_profile(spec, GRID)
    assert prof.total_jump == pytest.approx(amp * width * BUMP_INTEGRAL, rel=1e-12)
    assert prof.inf_rho >= base - 1e-12
    assert prof.sup_ratio > 0
    lo, hi = prof.support
    assert lo == pytest.approx(center - width) and hi == pytest.approx(center + width)


def _seeded_spec(seed: int) -> rtmhd.ProfileSpec:
    """1-3 bumps of either sign inside [-3.5, 3.5] on a base in [0.05, 5]."""
    rng = np.random.default_rng(seed)
    bumps = tuple(
        rtmhd.Bump(rng.uniform(-2.0, 1.5), rng.uniform(-2.5, 2.5), rng.uniform(0.2, 1.0))
        for _ in range(rng.integers(1, 4))
    )
    return rtmhd.ProfileSpec(float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))), bumps)


I = BUMP_INTEGRAL
EDGE_SPECS = [
    # floor 0.1 - I/4 < 0, yet rho never drops below the base: the samples
    # accept it
    rtmhd.ProfileSpec(0.1, (rtmhd.Bump(1.0, -1.0, 0.5), rtmhd.Bump(-0.5, 1.0, 0.5))),
    # the same bumps in the other order dip rho below 0: rejected
    rtmhd.ProfileSpec(0.1, (rtmhd.Bump(-0.5, -1.0, 0.5), rtmhd.Bump(1.0, 1.0, 0.5))),
    # floor 0 to rounding, rho at least 0.15 I
    rtmhd.ProfileSpec(0.5 * I, (rtmhd.Bump(0.3, -1.5, 0.5), rtmhd.Bump(-0.5, 1.0, 1.0))),
    # floor 1e-6, above its margin: certified without a sample
    rtmhd.ProfileSpec(0.5 * I + 1e-6, (rtmhd.Bump(0.3, 1.5, 0.5), rtmhd.Bump(-0.5, -1.0, 1.0))),
    # floor 0, which rho reaches where the negative bump ends: rejected
    rtmhd.ProfileSpec(0.5 * I, (rtmhd.Bump(-0.5, -1.0, 1.0), rtmhd.Bump(0.3, 1.5, 0.5))),
    CANON_SPEC,
    JUMP_NEG_SPEC,
]


def _outcome(metrics):
    """The metrics as hex strings, or the error a build raised."""
    try:
        return {k: float(v).hex() for k, v in metrics().items()}
    except (NonPositiveDensity, NoUnstableRegion) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n", [17, 201])
@pytest.mark.parametrize(
    "name", [f"edge{k}" for k in range(len(EDGE_SPECS))] + [f"seed{k}" for k in range(30)]
)
def test_lazy_metrics_match_the_eager_build(name, n):
    kind, k = name[:4], int(name[4:])
    spec = EDGE_SPECS[k] if kind == "edge" else _seeded_spec(k)
    grid = rtmhd.Grid1D(8.0, n)
    expected = _outcome(lambda: eager_profile_metrics(spec, grid))

    def lazy():
        prof = rtmhd.build_profile(spec, grid)
        return {k: getattr(prof, k) for k in ("inf_rho", "sup_rho", "sup_ratio")}

    # rho is sampled at the build only when the positivity floor fails to
    # clear its margin (and never before a positive bump is found)
    floor, margin = _positivity_floor(spec)
    before = dict(stats.counts)
    try:
        rtmhd.build_profile(spec, grid)
    except (NonPositiveDensity, NoUnstableRegion):
        pass
    sampled = any(b.amplitude > 0 for b in spec.bumps) and floor <= margin
    assert (stats.since(before)["rho_points"] > 0) == sampled
    assert _outcome(lazy) == expected
