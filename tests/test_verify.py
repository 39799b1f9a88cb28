import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import rtmhd
from rtmhd.errors import DegenerateSeries, SharpnessViolation, ZeroFrequency
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.modes import build_mode
import rtmhd.verify
from rtmhd.verify import (
    LinearEvolver,
    LinearState,
    default_schedule,
    eigenmode_state,
    evolve,
    measured_rate,
    random_divfree_state,
    series_csv,
    sharpness_test,
    stepped_state,
)

from .conftest import CANON_PARAMS, CANON_SPEC
from .oracles import cn_step_reference, run_rate

H = rtmhd.Orientation.HORIZONTAL
V = rtmhd.Orientation.VERTICAL
GRID = rtmhd.Grid1D(8.0, 801)


@pytest.fixture(scope="module")
def setup_horizontal():
    prof = rtmhd.build_profile(CANON_SPEC, GRID)
    mag = rtmhd.MagneticConfig(H, 0.3)
    xi = rtmhd.Frequency(1.0, 0.0)
    forms = assemble_forms(prof, GRID, xi, mag, CANON_PARAMS)
    res = growth_rate(forms)
    mode = build_mode(res, mag, CANON_PARAMS, prof, GRID, mode_tol=1e-3)
    return prof, mag, mode, res


@pytest.fixture(scope="module")
def setup_vertical():
    prof = rtmhd.build_profile(CANON_SPEC, GRID)
    mag = rtmhd.MagneticConfig(V, 0.3)
    xi = rtmhd.Frequency(1.0, 0.0)
    forms = assemble_forms(prof, GRID, xi, mag, CANON_PARAMS)
    res = growth_rate(forms)
    mode = build_mode(res, mag, CANON_PARAMS, prof, GRID, mode_tol=1e-3)
    return prof, mag, mode, res


def test_zero_initial_state_stays_zero(setup_horizontal):
    prof, mag, mode, _ = setup_horizontal
    n = GRID.n
    zero = LinearState(
        xi=mode.xi, grid=GRID, t=0.0,
        rho=np.zeros(n, complex), u=np.zeros((3, n), complex),
        N=np.zeros((3, n), complex), q=np.zeros(n, complex),
    )
    states = evolve(zero, prof, mag, CANON_PARAMS, dt=0.05, T=1.0)
    assert states[-1].norm_u() == 0.0
    assert states[-1].norm_rho() == 0.0
    assert states[-1].norm_N() == 0.0


@pytest.mark.parametrize("which", ["horizontal", "vertical"])
def test_eigenmode_growth_rate_reproduced(which, setup_horizontal, setup_vertical):
    prof, mag, mode, res = setup_horizontal if which == "horizontal" else setup_vertical
    lam = res.lam
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    est, states = run_rate(init, prof, mag, CANON_PARAMS, dt=0.01 / lam, T=3.0 / lam)
    assert abs(est.rate - lam) / lam <= 0.02
    assert est.fit_residual <= 1e-3
    ratio = states[-1].norm_u() / states[0].norm_u()
    assert ratio == pytest.approx(np.exp(lam * states[-1].t), rel=0.02)


def test_incompressibility_preserved_each_step(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    states = evolve(init, prof, mag, CANON_PARAMS, dt=0.05 / res.lam, T=1.0 / res.lam,
                    record_every=1)
    for s in states:
        assert s.divergence_u() <= 1e-10
        assert s.divergence_N() <= 1e-10


def test_single_step_rescale_consistency(setup_horizontal):
    # one step forward then rescaled by exp(-lam dt) returns near the start;
    # the defect is bounded by the dt^2 step error plus the h^2 floor from
    # the mode's spatial discretization mismatch
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    dt = 0.1 / lam
    states = evolve(init, prof, mag, CANON_PARAMS, dt=dt, T=dt, record_every=1)
    u1 = states[-1].u * np.exp(-lam * dt)
    defect = np.linalg.norm(u1 - init.u) / np.linalg.norm(init.u)
    assert defect <= 0.01


def test_fixed_horizon_richardson_order(setup_horizontal):
    # floor-free order measurement: successive dt halvings compared against
    # each other at a fixed horizon converge at second order
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    T = 1.0 / lam
    ends = []
    for fac in (0.2, 0.1, 0.05, 0.025):
        n_steps = int(round(T / (fac / lam)))
        states = evolve(init, prof, mag, CANON_PARAMS, dt=T / n_steps, T=T)
        ends.append(states[-1].u)
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    d3 = np.linalg.norm(ends[2] - ends[3])
    orders = [np.log2(d1 / d2), np.log2(d2 / d3)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_timestep_convergence_order(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    errs = []
    for fac in (0.2, 0.1, 0.05):
        est, _ = run_rate(init, prof, mag, CANON_PARAMS, dt=fac / lam, T=2.0 / lam)
        errs.append(abs(est.rate - lam) / lam)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 1.7) & (orders <= 2.3))


def test_measured_rate_exact_exponential():
    t = np.linspace(0.0, 10.0, 40)
    est = measured_rate(list(zip(t, np.exp(0.7 * t))))
    assert est.rate == pytest.approx(0.7, abs=1e-12)
    assert est.fit_residual <= 1e-12


def test_measured_rate_perturbed_exponential():
    t = np.linspace(0.0, 10.0, 60)
    est = measured_rate(list(zip(t, np.exp(0.7 * t) * (1 + 0.001 * np.sin(t)))))
    assert est.rate == pytest.approx(0.7, abs=2e-3)


@settings(max_examples=20, deadline=None)
@given(rate=st.floats(-1.0, 1.0), scale=st.floats(0.1, 10.0))
def test_measured_rate_property(rate, scale):
    t = np.linspace(0.0, 5.0, 25)
    est = measured_rate(list(zip(t, scale * np.exp(rate * t))))
    assert est.rate == pytest.approx(rate, abs=1e-9)


def test_measured_rate_degenerate_series():
    t = np.linspace(0.0, 1.0, 12)
    v = np.exp(t)
    v[7] = 0.0
    with pytest.raises(DegenerateSeries):
        measured_rate(list(zip(t, v)))
    with pytest.raises(ValueError):
        measured_rate([(0.0, 1.0)] * 5)


def test_random_divfree_state_exact_constraint():
    prof = rtmhd.build_profile(CANON_SPEC, GRID)
    for seed in (0, 1, 2):
        state = random_divfree_state(prof, GRID, rtmhd.Frequency(1.0, 2.0), seed)
        assert state.divergence_u() <= 1e-13
        assert state.divergence_N() == 0.0
        assert state.norm_u() > 0


def test_viscous_decay_without_sources(setup_horizontal):
    # no density perturbation, no vertical velocity, no field: Stokes decay
    prof, _, _, _ = setup_horizontal
    mag0 = rtmhd.MagneticConfig(H, 0.0)
    xi = rtmhd.Frequency(1.0, 0.0)
    state = random_divfree_state(prof, GRID, xi, seed=4)
    state.u[2][:] = 0.0
    state.u[0][:] = 0.0  # keep only the swirl component u2(x3)
    state.rho[:] = 0.0
    states = evolve(state, prof, mag0, CANON_PARAMS, dt=0.02, T=2.0)
    est = measured_rate([(s.t, s.norm_u()) for s in states])
    assert est.rate <= 0.0


def test_generic_data_approaches_dominant_rate(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    init = random_divfree_state(prof, GRID, mode.xi, seed=7)
    est, _ = run_rate(init, prof, mag, CANON_PARAMS, dt=0.01 / lam, T=4.0 / lam)
    assert est.rate <= lam * 1.02
    assert est.rate >= 0.9 * lam


def test_generic_rate_monotone_in_horizon(setup_horizontal):
    # last-window fits approach the dominant rate from below as T grows
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    init = random_divfree_state(prof, GRID, mode.xi, seed=11)
    fits = []
    for horizon in (1.5, 3.0, 5.0):
        est, _ = run_rate(
            init, prof, mag, CANON_PARAMS, dt=0.02 / lam, T=horizon / lam
        )
        assert est.rate <= lam * 1.02
        fits.append(est.rate)
    assert fits[0] <= fits[1] + 1e-6 <= fits[2] + 2e-6


def test_sharpness_violation_detected(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    wrong = {mode.xi: 0.25 * res.lam}  # deliberately too small a bound
    with pytest.raises(SharpnessViolation):
        sharpness_test(
            prof, mag, CANON_PARAMS, GRID, 0.25 * res.lam, seeds=[0], xi_rates=wrong
        )


def test_series_csv(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    init = eigenmode_state(mode, prof, CANON_PARAMS)
    run = (mode.xi, 0.1 / res.lam, 0.5 / res.lam, stepped_state(init)[:, None])
    [(times, norms)] = rtmhd.verify.march_norms(prof, mag, CANON_PARAMS, GRID, [run])
    text = series_csv(times, norms[:, :, 0])
    lines = text.strip().split("\n")
    assert lines[0] == "t,norm_rho,norm_u,norm_N"
    assert len(lines) == len(times) + 1 == 7
    # every number round-trips
    assert np.array_equal(np.loadtxt(text.splitlines()[1:], delimiter=","),
                          np.column_stack([times, norms[:, :, 0]]))


FIELDS = {"h-M0": (H, 0.0), "h-M0.3": (H, 0.3), "v-M0.3": (V, 0.3)}


# xi = (1, 2) is the generic case; the others pin the axis-aligned and
# negative rotations of the reduced step
@pytest.mark.parametrize(
    "orientation, M, xi",
    [
        pytest.param(
            *field, xi, id=name if xi == (1.0, 2.0) else f"{name}-xi{xi[0]:g},{xi[1]:g}"
        )
        for xi in ((1.0, 2.0), (0.0, 1.0), (1.0, 0.0), (-2.0, 1.0))
        for name, field in FIELDS.items()
    ],
)
def test_step_matches_per_component_reference(orientation, M, xi):
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(orientation, M)
    xi = rtmhd.Frequency(*xi)
    dt = 0.03
    states = [random_divfree_state(prof, grid, xi, seed) for seed in (3, 4, 5)]
    init = states[0]
    init.N = states[1].u  # a divergence-free field, so the Lorentz terms act
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, dt)

    z0 = stepped_state(init)
    z = stepper.step(z0)
    q = stepper.pressure(z0, z)
    rho, u, N = stepper.unpack(z)
    rho_ref, u_ref, N_ref, q_ref = cn_step_reference(
        prof, mag, CANON_PARAMS, grid, xi, dt, init.rho, init.u, init.N
    )
    got = np.concatenate([rho, u.ravel(), N.ravel()])
    z_ref = np.concatenate([rho_ref, u_ref.ravel(), N_ref.ravel()])
    assert np.linalg.norm(got - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
    assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)

    # a block of columns steps like each column alone
    block = np.stack([stepped_state(s) for s in states], axis=1)
    z_block = stepper.step(block)
    q_block = stepper.pressure(block, z_block)
    for k in range(3):
        z_k = stepper.step(block[:, k])
        q_k = stepper.pressure(block[:, k], z_k)
        assert np.linalg.norm(z_block[:, k] - z_k) <= 1e-13 * np.linalg.norm(z_k)
        assert np.linalg.norm(q_block[:, k] - q_k) <= 1e-13 * np.linalg.norm(q_k)


def test_stepped_seed_is_the_packed_random_state():
    # sharpness draws its seeds directly as stepped states; they are the
    # random divergence-free states, chi set from u3 as in any packed state
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.3)
    for xi in (rtmhd.Frequency(*v) for v in ((1.0, 2.0), (0.0, 1.0), (-2.0, 1.0))):
        stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, 0.03)
        for seed in (0, 3):
            state = random_divfree_state(prof, grid, xi, seed)
            profiles = [rtmhd.verify._seed_profiles(grid, seed)]
            z = rtmhd.verify._seed_block(grid, xi, profiles)[:, 0]
            assert np.abs(stepped_state(state) - z).max() <= 1e-14 * np.abs(z).max()
            rho, u, N = stepper.unpack(z)
            assert np.abs(u - state.u).max() <= 1e-14 * np.abs(state.u).max()
            assert np.array_equal(rho, state.rho) and not N.any()
            assert stepper.norm_u(z) == pytest.approx(state.norm_u(), rel=1e-14)


@pytest.mark.parametrize("orientation, M", FIELDS.values(), ids=FIELDS.keys())
def test_norms_are_the_unpacked_state_norms(orientation, M):
    # one reduction over the rho, u and N row ranges of each column equals
    # the norms of the lab-frame state, off the axes where the rotation mixes
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(orientation, M)
    xi = rtmhd.Frequency(1.0, 2.0)
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, 0.03)
    states = [random_divfree_state(prof, grid, xi, seed) for seed in (3, 4, 5)]
    for a, b in zip(states, states[1:] + states[:1]):
        a.N = b.u  # a divergence-free field, so every row range is nonzero
    block = stepper.step(np.stack([stepped_state(s) for s in states], axis=1))
    norms = stepper.norms(block)
    assert norms.shape == (3, 3)
    assert np.array_equal(stepper.norm_u(block), norms[1])
    for k in range(3):
        np.testing.assert_allclose(stepper.norms(block[:, k]), norms[:, k], rtol=1e-15)
        rho, u, N = stepper.unpack(block[:, k])
        state = LinearState(xi, grid, 0.0, rho, u, N, np.zeros(grid.n, complex))
        ref = [state.norm_rho(), state.norm_u(), state.norm_N()]
        np.testing.assert_allclose(norms[:, k], ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("orientation, M", FIELDS.values(), ids=FIELDS.keys())
def test_stepper_rejects_zero_frequency(orientation, M):
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(orientation, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by |xi| = 0 would warn first
        with pytest.raises(ZeroFrequency):
            LinearEvolver(prof, mag, CANON_PARAMS, grid, rtmhd.Frequency(0.0, 0.0), 0.03)


def _per_seed_rates(prof, mag, grid, seeds, xi_rates, horizon=3.0):
    """Each seed's measured rate in sharpness check order, every seed evolved
    alone at every frequency: (xi, lam, seed, rate) tuples."""
    out = []
    for xi, lam in sorted(xi_rates.items(), key=lambda kv: (kv[0].xi1, kv[0].xi2)):
        for seed in seeds:
            init = random_divfree_state(prof, grid, xi, seed)
            T = horizon / lam
            est, _ = run_rate(init, prof, mag, CANON_PARAMS, default_schedule(lam, T), T)
            out.append((xi, lam, seed, est.rate))
    return out


def _sharpness_per_seed(prof, mag, grid, seeds, xi_rates, horizon=3.0):
    """The sharpness check one seed at a time: the message of its first
    violation, or None."""
    for xi, lam, seed, rate in _per_seed_rates(prof, mag, grid, seeds, xi_rates, horizon):
        if rate > lam * 1.02:
            return f"seed {seed}, xi = ({xi.xi1:g}, {xi.xi2:g}): measured"
    return None


def _instrument(monkeypatch):
    """Lists that collect one entry per factorization and every rate that
    ``sharpness_test`` measures."""
    calls, reported = [], []
    real_splu, real_rate = rtmhd.verify.splu, rtmhd.verify.measured_rate

    def counting(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    def recording(samples):
        est = real_rate(samples)
        reported.append(est.rate)
        return est

    monkeypatch.setattr(rtmhd.verify, "splu", counting)
    monkeypatch.setattr(rtmhd.verify, "measured_rate", recording)
    return calls, reported


def test_sharpness_factors_once_per_frequency(monkeypatch):
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.3)
    rates = {}
    for xi in (rtmhd.Frequency(1.0, 0.0), rtmhd.Frequency(0.0, 1.0)):
        rates[xi] = growth_rate(assemble_forms(prof, grid, xi, mag, CANON_PARAMS)).lam
    calls = []
    real = rtmhd.verify.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rtmhd.verify, "splu", counting)
    seeds = [0, 1, 2]
    worst = sharpness_test(prof, mag, CANON_PARAMS, grid, max(rates.values()),
                           seeds=seeds, xi_rates=rates)
    assert len(calls) == 2
    assert 0.9 * max(rates.values()) <= worst <= 1.02 * max(rates.values())

    # a bound 5% too small at the second frequency in check order: seeds 0
    # and 1 stay inside it, seed 2 does not
    forced = dict(rates)
    forced[rtmhd.Frequency(1.0, 0.0)] *= 0.95
    expected = _sharpness_per_seed(prof, mag, grid, seeds, forced)
    assert expected == "seed 2, xi = (1, 0): measured"
    with pytest.raises(SharpnessViolation) as info:
        sharpness_test(prof, mag, CANON_PARAMS, grid, max(rates.values()),
                       seeds=seeds, xi_rates=forced)
    assert str(info.value).startswith(expected)


def test_sharpness_steps_each_distinct_problem_once(monkeypatch):
    # at M = 0 the stepped problem reads xi only through |xi|^2, so (1, 0)
    # and (0, 1) share one stepper and one block of seeds
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.0)
    rates = {}
    for xi in (rtmhd.Frequency(1.0, 0.0), rtmhd.Frequency(0.0, 1.0),
               rtmhd.Frequency(1.0, 1.0)):
        rates[xi] = growth_rate(assemble_forms(prof, grid, xi, mag, CANON_PARAMS)).lam
    assert rates[rtmhd.Frequency(1.0, 0.0)] == rates[rtmhd.Frequency(0.0, 1.0)]
    seeds = [0, 1, 2]
    reference = [r[3] for r in _per_seed_rates(prof, mag, grid, seeds, rates)]

    calls, reported = _instrument(monkeypatch)
    worst = sharpness_test(prof, mag, CANON_PARAMS, grid, max(rates.values()),
                           seeds=seeds, xi_rates=rates)
    assert len(calls) == 2
    for got, ref in zip(reported, reference, strict=True):
        assert abs(got - ref) <= 1e-9 * abs(ref)
    assert worst == max(reported)

    # another rate at (1, 0) means another dt and horizon: nothing is shared
    calls.clear()
    raised = dict(rates)
    raised[rtmhd.Frequency(1.0, 0.0)] *= 1.05
    sharpness_test(prof, mag, CANON_PARAMS, grid, max(raised.values()),
                   seeds=seeds, xi_rates=raised)
    assert len(calls) == 3

    # a bound 5% too small at (0, 1), the first frequency in check order;
    # the longer horizon takes every seed's fit past it
    forced = dict(rates)
    forced[rtmhd.Frequency(0.0, 1.0)] *= 0.95
    expected = _sharpness_per_seed(prof, mag, grid, seeds, forced, horizon=4.0)
    assert expected == "seed 0, xi = (0, 1): measured"
    with pytest.raises(SharpnessViolation) as info:
        sharpness_test(prof, mag, CANON_PARAMS, grid, max(rates.values()),
                       seeds=seeds, xi_rates=forced, horizon=4.0)
    assert str(info.value).startswith(expected)

    # a vertical field is (0, 0, M) in the frame rotated onto xi, so at
    # M = 0.3 (1, 0) and (0, 1) still share one stepper
    vmag = rtmhd.MagneticConfig(V, 0.3)
    vrates = {
        xi: growth_rate(assemble_forms(prof, grid, xi, vmag, CANON_PARAMS)).lam
        for xi in (rtmhd.Frequency(1.0, 0.0), rtmhd.Frequency(0.0, 1.0))
    }
    assert len(set(vrates.values())) == 1
    vreference = [r[3] for r in _per_seed_rates(prof, vmag, grid, seeds, vrates)]
    calls.clear()
    reported.clear()
    worst = sharpness_test(prof, vmag, CANON_PARAMS, grid, max(vrates.values()),
                           seeds=seeds, xi_rates=vrates)
    assert len(calls) == 1
    for got, ref in zip(reported, vreference, strict=True):
        assert abs(got - ref) <= 1e-9 * abs(ref)
    assert worst == max(reported)


def test_sharpness_keeps_mirrored_frequencies_apart(monkeypatch):
    # with a horizontal field, xi and its mirror (xi1, -xi2) share |xi| and
    # the rate but not the stepped problem: M xi2 flips the swirl coupling
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.3)
    xi = rtmhd.Frequency(1.0, 1.0)
    lam = growth_rate(assemble_forms(prof, grid, xi, mag, CANON_PARAMS)).lam
    rates = {xi: lam, rtmhd.Frequency(1.0, -1.0): lam}
    seeds = [0, 1]
    reference = [r[3] for r in _per_seed_rates(prof, mag, grid, seeds, rates)]
    assert reference[:2] != reference[2:]

    calls, reported = _instrument(monkeypatch)
    sharpness_test(prof, mag, CANON_PARAMS, grid, lam, seeds=seeds, xi_rates=rates)
    assert len(calls) == 2
    for got, ref in zip(reported, reference, strict=True):
        assert abs(got - ref) <= 1e-9 * abs(ref)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(1e-3, 1e3), horizon=st.floats(0.5, 12.0))
def test_default_schedule_is_the_coarsest_on_the_sample_times(lam, horizon):
    T = horizon / lam
    dt = default_schedule(lam, T)
    steps = rtmhd.verify.time_steps(dt, T)
    every = steps // 60
    assert lam * dt <= (1.0 + 1e-9) / 20
    assert steps == 60 * every
    assert dt * every == pytest.approx(T / 60, rel=1e-14)
    if every > 1:  # one step fewer per sample would exceed 1/20 per e-fold
        assert lam * T / (60 * (every - 1)) > 1.0 / 20


@pytest.mark.parametrize("lam", [1e-3, 0.37394963197517, 1.0, 3.7, 1e3])
def test_default_schedule_at_the_default_horizon(lam):
    # T = 3/lam is exactly 20 steps per e-fold, each one sampled
    assert default_schedule(lam, 3.0 / lam) == (3.0 / lam) / 60


def _block_rates(prof, mag, grid, xi, lam, z, every_factor=1, horizon=3.0):
    """Measured rates of the stepped columns z at the default schedule's
    sample times, stepping every_factor times finer, and those times."""
    T = horizon / lam
    dt = default_schedule(lam, T)
    every = rtmhd.verify.time_steps(dt, T) // 60
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, dt / every_factor)
    series = [(0.0, stepper.norm_u(z))]
    marched = rtmhd.verify._march(stepper, z, 0.0, T, every * every_factor)
    series += [(t, stepper.norm_u(zk)) for t, _, zk in marched]
    rates = [
        measured_rate([(t, v[i]) for t, v in series]).rate for i in range(z.shape[1])
    ]
    return np.array(rates), np.array([t for t, _ in series])


def _seed_block(grid, xi):
    """The stepped states of seeds 0-4 as the columns of one block."""
    profiles = [rtmhd.verify._seed_profiles(grid, s) for s in range(5)]
    return rtmhd.verify._seed_block(grid, xi, profiles)


def _schedule_error(prof, mag, grid, xi, lam, z):
    """Largest |rate at the default step - rate at a fifth of it| / lam."""
    coarse, t_coarse = _block_rates(prof, mag, grid, xi, lam, z)
    fine, t_fine = _block_rates(prof, mag, grid, xi, lam, z, every_factor=5)
    assert len(t_coarse) == 61
    np.testing.assert_allclose(t_coarse, t_fine, rtol=1e-12, atol=0.0)
    return float(np.abs(coarse - fine).max() / lam)


@pytest.mark.parametrize("orientation, M", FIELDS.values(), ids=FIELDS.keys())
def test_default_schedule_rates_match_a_finer_step(orientation, M):
    # the (lam dt)^2/12 = 2.1e-4 bound of 20 steps per e-fold, measured on
    # every seed against dt/5 at the same sample times
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(orientation, M)
    for v in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
        xi = rtmhd.Frequency(*v)
        lam = growth_rate(assemble_forms(prof, grid, xi, mag, CANON_PARAMS)).lam
        z = _seed_block(grid, xi)
        assert _schedule_error(prof, mag, grid, xi, lam, z) <= 5e-4


def _upper_spectrum_share(profile):
    """Share of the norm of an interior-grid profile in the upper half of the
    discrete Dirichlet spectrum (the sine modes k > n/2)."""
    c = scipy.fft.dst(profile, type=1, norm="ortho")
    return np.linalg.norm(c[len(c) // 2 :]) / np.linalg.norm(c)


@pytest.mark.parametrize("n, bound", [(201, 9e-6), (801, 6e-11)])
def test_seed_profiles_carry_no_grid_scale_content(n, bound):
    # Crank-Nicolson is not L-stable: it multiplies a grid-scale mode by
    # nearly -1 each step instead of damping it, so the schedule presumes
    # smooth seeds
    grid = rtmhd.Grid1D(8.0, n)
    shares = [
        _upper_spectrum_share(p)
        for seed in range(20)
        for p in rtmhd.verify._seed_profiles(grid, seed)
    ]
    assert max(shares) <= bound


def test_grid_scale_content_stays_within_the_schedule_error():
    # a checkerboard of 1e-2 of each profile's size in (rho, u3, omega) keeps
    # the rates inside the schedule's error; one of size 1 does not
    grid = rtmhd.Grid1D(8.0, 801)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.0)
    xi = rtmhd.Frequency(2.0, 1.0)
    lam = growth_rate(assemble_forms(prof, grid, xi, mag, CANON_PARAMS)).lam
    n = grid.n
    checker = (-1.0) ** np.arange(n) / np.sqrt(n)
    errors = []
    for size in (1e-2, 1.0):
        z = _seed_block(grid, xi)
        for part in (z[:n], z[n : 2 * n], z[2 * n : 3 * n]):
            part += size * np.linalg.norm(part, axis=0) * checker[:, None]
        errors.append(_schedule_error(prof, mag, grid, xi, lam, z))
    assert errors[0] <= 5e-4
    assert errors[1] > 0.1
