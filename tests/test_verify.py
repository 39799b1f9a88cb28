import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import rtmhd
from rtmhd.errors import (
    DegenerateSeries,
    SharpnessViolation,
    SolverSingular,
    ZeroFrequency,
)
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.modes import build_mode, relative_divergence
import rtmhd.verify
from rtmhd.verify import (
    LinearEvolver,
    default_schedule,
    eigenmode_column,
    march_norms,
    measured_rate,
    sharpness_test,
    write_series,
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
    mode = build_mode(res, mode_tol=1e-3)
    return prof, mag, mode, res


@pytest.fixture(scope="module")
def setup_vertical():
    prof = rtmhd.build_profile(CANON_SPEC, GRID)
    mag = rtmhd.MagneticConfig(V, 0.3)
    xi = rtmhd.Frequency(1.0, 0.0)
    forms = assemble_forms(prof, GRID, xi, mag, CANON_PARAMS)
    res = growth_rate(forms)
    mode = build_mode(res, mode_tol=1e-3)
    return prof, mag, mode, res


def _seed_block(grid, xi, seeds=range(5)):
    """The stepped states of the seeds as the columns of one block."""
    profiles = [rtmhd.verify._seed_profiles(grid, s) for s in seeds]
    return rtmhd.verify._seed_block(grid, xi, profiles)


def _seed_column(grid, xi, seed):
    """The stepped state (7n,) of one seed."""
    return _seed_block(grid, xi, [seed])[:, 0]


def _with_field(z, donor):
    """z with the velocity of donor as its field: (N_chi, N_omega, N3) =
    (chi, omega, u3) of donor, so N is divergence-free and nonzero."""
    n = len(z) // 7
    out = z.copy()
    out[4 * n :] = donor[n : 4 * n].reshape(3, n)[::-1].ravel()
    return out


def test_zero_initial_state_stays_zero(setup_horizontal):
    prof, mag, mode, _ = setup_horizontal
    zero = np.zeros((7 * GRID.n, 1), complex)
    run = (mode.forms.xi, 0.05, 1.0, zero)
    [(_, norms)] = march_norms(prof, mag, CANON_PARAMS, GRID, [run])
    assert np.all(norms == 0.0)


@pytest.mark.parametrize("which", ["horizontal", "vertical"])
def test_eigenmode_growth_rate_reproduced(which, setup_horizontal, setup_vertical):
    prof, mag, mode, res = setup_horizontal if which == "horizontal" else setup_vertical
    lam = res.lam
    z = eigenmode_column(mode)
    est, times, norms = run_rate(
        prof, mag, CANON_PARAMS, GRID, mode.forms.xi, z, dt=0.01 / lam, T=3.0 / lam
    )
    assert abs(est.rate - lam) / lam <= 0.02
    assert est.fit_residual <= 1e-3
    ratio = norms[-1, 1] / norms[0, 1]
    assert ratio == pytest.approx(np.exp(lam * times[-1]), rel=0.02)


def test_incompressibility_preserved_each_step(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, GRID, mode.forms.xi, 0.05 / res.lam)
    z = eigenmode_column(mode)
    for _ in range(21):  # the column and its first 20 steps
        _, u, N = stepper.unpack(z)
        assert relative_divergence(u, mode.forms.xi, GRID) <= 1e-10
        assert relative_divergence(N, mode.forms.xi, GRID) <= 1e-10
        z = stepper.step(z)


def test_single_step_rescale_consistency(setup_horizontal):
    # one step forward then rescaled by exp(-lam dt) returns near the start;
    # the defect is bounded by the dt^2 step error plus the h^2 floor from
    # the mode's spatial discretization mismatch
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    dt = 0.1 / lam
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, GRID, mode.forms.xi, dt)
    z = eigenmode_column(mode)
    u0 = stepper.unpack(z)[1]
    u1 = stepper.unpack(stepper.step(z))[1] * np.exp(-lam * dt)
    defect = np.linalg.norm(u1 - u0) / np.linalg.norm(u0)
    assert defect <= 0.01


def test_fixed_horizon_richardson_order(setup_horizontal):
    # floor-free order measurement: successive dt halvings compared against
    # each other at a fixed horizon converge at second order
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    T = 1.0 / lam
    z0 = eigenmode_column(mode)
    ends = []
    for fac in (0.2, 0.1, 0.05, 0.025):
        n_steps = int(round(T / (fac / lam)))
        stepper = LinearEvolver(prof, mag, CANON_PARAMS, GRID, mode.forms.xi, T / n_steps)
        z = z0
        for _ in range(n_steps):
            z = stepper.step(z)
        ends.append(stepper.unpack(z)[1])
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    d3 = np.linalg.norm(ends[2] - ends[3])
    orders = [np.log2(d1 / d2), np.log2(d2 / d3)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_timestep_convergence_order(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    z = eigenmode_column(mode)
    errs = []
    for fac in (0.2, 0.1, 0.05):
        est, _, _ = run_rate(
            prof, mag, CANON_PARAMS, GRID, mode.forms.xi, z, dt=fac / lam, T=2.0 / lam
        )
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
    with pytest.raises(DegenerateSeries, match="non-positive"):
        measured_rate(list(zip(t, v)))
    # an overflowed norm is named as such, not as a non-positive one
    for bad in (np.inf, np.nan):
        v[7] = bad
        with pytest.raises(DegenerateSeries, match="non-finite"):
            measured_rate(list(zip(t, v)))
    # times whose squares underflow: polyfit cannot scale them
    with pytest.raises(DegenerateSeries, match="too small"):
        measured_rate(list(zip(1e-300 * t, np.exp(t))))
    with pytest.raises(ValueError):
        measured_rate([(0.0, 1.0)] * 5)


def test_random_divfree_state_exact_constraint():
    # the seed columns are exactly divergence-free in the lab frame
    prof = rtmhd.build_profile(CANON_SPEC, GRID)
    xi = rtmhd.Frequency(1.0, 2.0)
    mag = rtmhd.MagneticConfig(H, 0.0)
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, GRID, xi, 0.03)
    for seed in (0, 1, 2):
        z = _seed_column(GRID, xi, seed)
        _, u, N = stepper.unpack(z)
        assert relative_divergence(u, xi, GRID) <= 1e-13
        assert relative_divergence(N, xi, GRID) == 0.0
        assert stepper.norms(z)[1] > 0


def _per_draw_profile(grid, rng):
    """One seed profile with its window and sines formed on every draw."""
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


@pytest.mark.parametrize("grid", [rtmhd.Grid1D(8.0, 17), rtmhd.Grid1D(6.0, 201), GRID])
def test_seed_profiles_are_bitwise_the_per_draw_formula(grid):
    # the window and sines are built once per grid; every draw is unchanged
    for seed in (0, 1, 7, 2**40):
        rng = np.random.default_rng(seed)
        expected = [_per_draw_profile(grid, rng) for _ in range(3)]
        for _ in range(2):  # built, then read from the cache
            got = rtmhd.verify._seed_profiles(grid, seed)
            assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


def test_viscous_decay_without_sources(setup_horizontal):
    # no density perturbation, no vertical velocity, no field: Stokes decay
    prof, _, _, _ = setup_horizontal
    mag0 = rtmhd.MagneticConfig(H, 0.0)
    xi = rtmhd.Frequency(1.0, 0.0)
    z = _seed_column(GRID, xi, seed=4)
    n = GRID.n
    z[: 2 * n] = 0.0  # no density, no vertical velocity
    z[3 * n : 4 * n] = 0.0  # chi = i D1 u3 / |xi|: only the swirl omega = u2(x3)
    est, _, _ = run_rate(prof, mag0, CANON_PARAMS, GRID, xi, z, dt=0.02, T=2.0)
    assert est.rate <= 0.0


def test_generic_data_approaches_dominant_rate(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    z = _seed_column(GRID, mode.forms.xi, seed=7)
    est, _, _ = run_rate(
        prof, mag, CANON_PARAMS, GRID, mode.forms.xi, z, dt=0.01 / lam, T=4.0 / lam
    )
    assert est.rate <= lam * 1.02
    assert est.rate >= 0.9 * lam


def test_generic_rate_monotone_in_horizon(setup_horizontal):
    # last-window fits approach the dominant rate from below as T grows
    prof, mag, mode, res = setup_horizontal
    lam = res.lam
    z = _seed_column(GRID, mode.forms.xi, seed=11)
    fits = []
    for horizon in (1.5, 3.0, 5.0):
        est, _, _ = run_rate(
            prof, mag, CANON_PARAMS, GRID, mode.forms.xi, z, dt=0.02 / lam, T=horizon / lam
        )
        assert est.rate <= lam * 1.02
        fits.append(est.rate)
    assert fits[0] <= fits[1] + 1e-6 <= fits[2] + 2e-6


def test_sharpness_violation_detected(setup_horizontal):
    prof, mag, mode, res = setup_horizontal
    wrong = {mode.forms.xi: 0.25 * res.lam}  # deliberately too small a bound
    with pytest.raises(SharpnessViolation):
        sharpness_test(
            prof, mag, CANON_PARAMS, GRID, 0.25 * res.lam, seeds=[0], xi_rates=wrong
        )


def test_series_csv(setup_horizontal, tmp_path):
    prof, mag, mode, res = setup_horizontal
    run = (mode.forms.xi, 0.1 / res.lam, 0.5 / res.lam, eigenmode_column(mode)[:, None])
    [(times, norms)] = rtmhd.verify.march_norms(prof, mag, CANON_PARAMS, GRID, [run])
    path = tmp_path / "timeseries.csv"
    write_series(str(path), times, norms[:, :, 0])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm_rho,norm_u,norm_N"
    assert len(lines) == len(times) + 1 == 7
    # every number round-trips
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1),
                          np.column_stack([times, norms[:, :, 0]]))


def test_singular_step_system_raises_solver_singular(setup_horizontal, monkeypatch):
    prof, mag, mode, res = setup_horizontal

    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(rtmhd.verify, "splu", singular)
    with pytest.raises(SolverSingular, match="exactly singular"):
        LinearEvolver(prof, mag, CANON_PARAMS, GRID, mode.forms.xi, 0.1 / res.lam)


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
    block = _seed_block(grid, xi, (3, 4, 5))
    # a divergence-free field, so the Lorentz terms act
    block[:, 0] = _with_field(block[:, 0], block[:, 1])
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, dt)

    z0 = block[:, 0]
    rho, u, N = stepper.unpack(stepper.step(z0))
    rho_ref, u_ref, N_ref, _ = cn_step_reference(
        prof, mag, CANON_PARAMS, grid, xi, dt, *stepper.unpack(z0)
    )
    got = np.concatenate([rho, u.ravel(), N.ravel()])
    z_ref = np.concatenate([rho_ref, u_ref.ravel(), N_ref.ravel()])
    assert np.linalg.norm(got - z_ref) <= 1e-12 * np.linalg.norm(z_ref)

    # a block of columns steps like each column alone
    z_block = stepper.step(block)
    for k in range(3):
        z_k = stepper.step(block[:, k])
        assert np.linalg.norm(z_block[:, k] - z_k) <= 1e-13 * np.linalg.norm(z_k)


@pytest.mark.parametrize("orientation, M", FIELDS.values(), ids=FIELDS.keys())
def test_norms_are_the_unpacked_state_norms(orientation, M):
    # one reduction over the rho, u and N row ranges of each column equals
    # the norms of the lab-frame state, off the axes where the rotation mixes
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(orientation, M)
    xi = rtmhd.Frequency(1.0, 2.0)
    stepper = LinearEvolver(prof, mag, CANON_PARAMS, grid, xi, 0.03)
    seeds = _seed_block(grid, xi, (3, 4, 5))
    # a divergence-free field, so every row range is nonzero
    fields = [_with_field(seeds[:, k], seeds[:, (k + 1) % 3]) for k in range(3)]
    block = stepper.step(np.stack(fields, axis=1))
    norms = stepper.norms(block)
    assert norms.shape == (3, 3)
    for k in range(3):
        np.testing.assert_allclose(stepper.norms(block[:, k]), norms[:, k], rtol=1e-15)
        fields = stepper.unpack(block[:, k])
        ref = [np.sqrt(grid.h * np.sum(np.abs(f) ** 2)) for f in fields]
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
            z = _seed_column(grid, xi, seed)
            T = horizon / lam
            dt = default_schedule(lam, T)
            est, _, _ = run_rate(prof, mag, CANON_PARAMS, grid, xi, z, dt, T)
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


def test_march_joins_runs_of_opposite_fields(monkeypatch):
    # a horizontal field rotated onto xi is the negative of the one rotated
    # onto -xi; the step is the same under b -> -b with N -> -N, so both runs
    # share one stepper, and each keeps the series it has alone
    grid = rtmhd.Grid1D(8.0, 201)
    prof = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(H, 0.3)
    runs = []
    for xi in (rtmhd.Frequency(1.0, 2.0), rtmhd.Frequency(-1.0, -2.0)):
        seeds = _seed_block(grid, xi, (3, 4))
        z = np.stack([_with_field(seeds[:, 0], seeds[:, 1]), seeds[:, 1]], axis=1)
        runs.append((xi, 0.1, 3.0, z))
    alone = [march_norms(prof, mag, CANON_PARAMS, grid, [run])[0] for run in runs]
    calls, _ = _instrument(monkeypatch)
    joined = march_norms(prof, mag, CANON_PARAMS, grid, runs)
    assert len(calls) == 1
    for (times, norms), (t_ref, ref) in zip(joined, alone, strict=True):
        assert np.array_equal(times, t_ref)
        np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=0.0)


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
    """Measured rates of the stepped columns z, stepping every_factor times
    finer than the default schedule, and the sample times.  The march
    records every n_steps // 60 steps, so every factor samples the default
    schedule's 61 times."""
    T = horizon / lam
    dt = default_schedule(lam, T) / every_factor
    [(times, norms)] = march_norms(prof, mag, CANON_PARAMS, grid, [(xi, dt, T, z)])
    rates = [
        measured_rate(list(zip(times, norms[:, 1, i]))).rate for i in range(z.shape[1])
    ]
    return np.array(rates), times


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
