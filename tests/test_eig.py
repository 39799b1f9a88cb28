import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

import rtmhd
import rtmhd.eig
from rtmhd.eig import (
    TOL,
    _solve_shifted,
    definite,
    max_generalized_eig,
    min_generalized_eig,
)
from rtmhd.errors import FactorizationBreakdown
from rtmhd.forms import assemble_forms
from rtmhd.operators import band_matvec, band_to_dense, band_zeros

from .conftest import CANON_PARAMS, CANON_SPEC
from .oracles import dense_count_below, dense_smallest, inertia_count


def _random_pencil(rng, n=None, p=None):
    n = n or int(rng.integers(10, 61))
    p = p or int(rng.integers(1, 4))
    a = rng.standard_normal((p + 1, n))
    b = rng.standard_normal((p + 1, n)) * 0.3
    b[0] = np.abs(b[0]) + float(p) + 1.5  # diagonally dominant -> SPD
    return a, b


def test_identity_pencil():
    n = 25
    a = band_zeros(0, n)
    a[0] = 1.0
    pair = min_generalized_eig(a, a)
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert pair.vec @ (a[0] * pair.vec) == pytest.approx(1.0, rel=1e-12)


def test_diagonal_pencil():
    a = band_zeros(0, 3)
    a[0] = [3.0, 1.0, 2.0]
    b = band_zeros(0, 3)
    b[0] = 1.0
    pair = min_generalized_eig(a, b)
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(np.abs(pair.vec)) == 1


def test_bisection_midpoint_on_eigenvalue():
    # the default bracket is (-|A|, |A|) = (-3, 3); its first midpoint is
    # exactly the eigenvalue 0.0, where A - sigma*B is singular and so not
    # positive definite
    a = band_zeros(0, 3)
    a[0] = [3.0, 0.0, 2.0]
    b = band_zeros(0, 3)
    b[0] = 1.0
    pair = min_generalized_eig(a, b)
    assert pair.value == pytest.approx(0.0, abs=1e-12)
    assert inertia_count(a, b, 0.0) == dense_count_below(a, b, 0.0) == 0


def test_warm_start_on_second_eigenvector_is_rejected():
    # Rayleigh-quotient iteration from the second eigenvector converges to the
    # second eigenvalue; the definiteness certificate must reject it
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    pair = min_generalized_eig(a, b, start=v[:, 1])
    assert pair.value == pytest.approx(dense_smallest(a, b), abs=1e-10)
    assert abs(pair.value - w[1]) > 1e-3


def test_max_warm_start_on_second_largest_eigenvector_is_rejected():
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    pair = max_generalized_eig(a, b, start=v[:, -2])
    assert pair.value == pytest.approx(w[-1], abs=1e-10)
    assert abs(pair.value - w[-2]) > 1e-3


def test_warm_start_near_smallest_eigenvector_is_certified():
    rng = np.random.default_rng(9)
    a, b = _random_pencil(rng, n=30, p=2)
    cold = min_generalized_eig(a, b)
    start = cold.vec + 1e-3 * rng.standard_normal(cold.vec.size)
    warm = min_generalized_eig(a, b, start=start)
    assert warm.value == pytest.approx(dense_smallest(a, b), abs=1e-10)
    assert warm.iterations < cold.iterations


def test_definite_matches_dense_signs():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, b = _random_pencil(rng, n=30)
        for sigma in rng.standard_normal(4) * 3.0:
            assert definite(a, b, sigma) == (dense_count_below(a, b, sigma) == 0)


def test_random_pencil_matches_dense_oracle():
    rng = np.random.default_rng(11)
    a, b = _random_pencil(rng, n=40, p=2)
    pair = min_generalized_eig(a, b)
    assert pair.value == pytest.approx(dense_smallest(a, b), abs=1e-10)
    assert pair.residual <= 1e-8


def test_inertia_gershgorin_extremes():
    rng = np.random.default_rng(5)
    a, b = _random_pencil(rng, n=30, p=2)
    dense_a = band_to_dense(a)
    bound = np.abs(dense_a).sum(axis=1).max() / (b[0].min() - 2 * np.abs(b[1:]).max())
    big = 10 * abs(bound) + 10
    assert inertia_count(a, b, -big) == 0
    assert inertia_count(a, b, big) == 30


def test_inertia_matches_dense_count_at_zero():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, b = _random_pencil(rng, n=30)
        assert inertia_count(a, b, 0.0) == dense_count_below(a, b, 0.0)


def test_max_is_negated_min():
    rng = np.random.default_rng(23)
    a, b = _random_pencil(rng, n=35, p=2)
    hi = max_generalized_eig(a, b)
    lo = min_generalized_eig(a, b)
    assert hi.value > lo.value
    w_hi = -dense_smallest(
        np.concatenate([[-a[0]], -a[1:]]) if a.shape[0] > 1 else -a, b
    )
    assert hi.value == pytest.approx(w_hi, abs=1e-10)


def test_eigvec_b_normalized_and_sign_fixed():
    rng = np.random.default_rng(31)
    a, b = _random_pencil(rng, n=28, p=1)
    pair = min_generalized_eig(a, b)
    bx = band_to_dense(b) @ pair.vec
    assert pair.vec @ bx == pytest.approx(1.0, rel=1e-10)
    assert pair.vec[np.argmax(np.abs(pair.vec))] > 0


def test_bracket_grows_below_the_default_guess():
    # tridiag(-1, -1, -1): the guess |A| / min diag(B) = 1 puts the bracket
    # at (-1, 1), above the smallest eigenvalue -1 - 2 cos(pi / 31)
    n = 30
    a = band_zeros(1, n)
    a[0] = -1.0
    a[1, :-1] = -1.0
    b = band_zeros(0, n)
    b[0] = 1.0
    truth = -1.0 - 2.0 * np.cos(np.pi / (n + 1))
    assert not definite(a, b, -1.0)
    pair = min_generalized_eig(a, b)
    assert pair.value == pytest.approx(truth, abs=1e-10)
    assert pair.value == pytest.approx(dense_smallest(a, b), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_smallest_below_all_rayleigh_quotients(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_pencil(rng, n=20, p=2)
    pair = min_generalized_eig(a, b)
    da, db = band_to_dense(a), band_to_dense(b)
    for _ in range(5):
        x = rng.standard_normal(20)
        quotient = (x @ da @ x) / (x @ db @ x)
        assert pair.value <= quotient + 1e-9 * max(1.0, abs(quotient))


@pytest.mark.parametrize("gap", [1e-7, 1e-8])
def test_cold_route_falls_back_on_a_near_double_eigenvalue(gap):
    # RQI from the coarse bracket stops between 1 and 1 + gap; with the warm
    # slack 2*value_tol (about 1e-8 here) the certificate would pass a value
    # gap/2 too high, and without it the cold route must bisect on to TOL
    rng = np.random.default_rng(41)
    n = 20
    a = band_zeros(0, n)
    a[0] = rng.permutation(np.concatenate([[1.0, 1.0 + gap], rng.uniform(2, 5, n - 2)]))
    b = band_zeros(0, n)
    b[0] = 1.0
    pair = min_generalized_eig(a, b)
    assert abs(pair.value - dense_smallest(a, b)) <= 1e-10


@pytest.mark.parametrize("p, n", [(1, 37), (2, 37), (3, 37), (1, 1)])
def test_solve_shifted_matches_dense_solve(p, n):
    # p = 1 takes dgtsv, which needs n > 1; every other band takes dgbsv
    rng = np.random.default_rng(43 + p)
    a, b = _random_pencil(rng, n=n, p=p)
    rhs = rng.standard_normal(n)
    sigma = float(rng.standard_normal())
    dense = band_to_dense(a) - sigma * band_to_dense(b)
    got = _solve_shifted(a, b, sigma, rhs)
    want = np.linalg.solve(dense, rhs)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_solve_shifted_at_an_exact_eigenvalue_raises(p):
    # 2x2 blocks [[2, 1], [1, 2]] have the eigenvalue 1 exactly; at that
    # shift elimination meets an exact zero pivot
    n = 12
    a = band_zeros(p, n)
    a[0] = 2.0
    a[1, 0::2] = 1.0
    b = band_zeros(0, n)
    b[0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        _solve_shifted(a, b, 1.0, np.ones(n))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    p=st.sampled_from([1, 2, 3]),
)
def test_property_cold_value_matches_dense_smallest(seed, n, p):
    a, b = _random_pencil(np.random.default_rng(seed), n=n, p=p)
    w0 = dense_smallest(a, b)
    pair = min_generalized_eig(a, b)
    assert abs(pair.value - w0) <= 1e-10 * max(1.0, abs(w0))


def test_cold_solve_work_count_on_the_canonical_energy_pencil():
    # bisecting all the way to tol took 40 iterations here
    grid = rtmhd.Grid1D(8.0, 201)
    profile = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    forms = assemble_forms(profile, grid, rtmhd.Frequency(1.0, 1.0), mag, CANON_PARAMS)
    cap = float(np.sqrt(CANON_PARAMS.g * profile.sup_ratio))
    a = forms.energy(1e-8 * cap)
    pair = min_generalized_eig(a, forms.j)
    assert pair.iterations <= 20
    truth = dense_smallest(a, forms.j)
    assert abs(pair.value - truth) <= 1e-8 * max(1.0, abs(truth))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    p=st.sampled_from([1, 2, 3]),
    u=st.floats(-3.0, 0.0),
)
def test_property_small_spectrum_value_matches_dense_smallest(seed, n, p, u):
    # with A ~ 1e-3 the whole spectrum is narrower than the coarse width, so
    # pass one's RQI often lands on another eigenvalue and pass two runs
    a, b = _random_pencil(np.random.default_rng(seed), n=n, p=p)
    a *= 10.0**u
    w0 = dense_smallest(a, b)
    pair = min_generalized_eig(a, b)
    assert abs(pair.value - w0) <= 1e-10 * max(1.0, abs(w0))


def test_second_pass_on_the_second_eigenvector_raises(monkeypatch):
    # every inverse step returns the dense second eigenvector, so RQI
    # converges to w[1] on both passes; pass two's bracket, within TOL of
    # w[0], must refuse it
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    second = v[:, 1]
    shifts = []

    def onto_second(a, b, shift, x, bx, steps):
        shifts.append((shift, steps))
        return second, band_matvec(b, second), steps

    monkeypatch.setattr(rtmhd.eig, "_inverse_steps", onto_second)
    with pytest.raises(FactorizationBreakdown):
        min_generalized_eig(a, b)
    prefixes = [shift for shift, steps in shifts if steps > 1]
    assert len(prefixes) == 2  # one prefix per pass, both at the bracket's lo
    assert 0.0 <= w[0] - prefixes[1] <= TOL * max(1.0, abs(w[0]))
    assert w[1] - w[0] > 1e-3
