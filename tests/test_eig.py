import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

import rtmhd
import rtmhd.eig
from rtmhd.eig import TOL, _solve, definite, top_root
from rtmhd.errors import FactorizationBreakdown
from rtmhd.forms import assemble_forms
from rtmhd.operators import band_combine, band_to_dense, band_zeros

from .conftest import CANON_PARAMS, CANON_SPEC, largest_pair, smallest_pair
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
    pair = smallest_pair(a, a)
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert pair.vec @ (a[0] * pair.vec) == pytest.approx(1.0, rel=1e-12)


def test_diagonal_pencil():
    a = band_zeros(0, 3)
    a[0] = [3.0, 1.0, 2.0]
    b = band_zeros(0, 3)
    b[0] = 1.0
    pair = smallest_pair(a, b)
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(np.abs(pair.vec)) == 1


def test_bisection_midpoint_on_eigenvalue():
    # the smallest eigenvalue of (A, B) is minus the top root of T(s) =
    # A + s B; the bracket (-3, 3) has its first midpoint exactly on the
    # root 0.0, where T is singular and so not positive definite
    a = band_zeros(0, 3)
    a[0] = [3.0, 0.0, 2.0]
    b = band_zeros(0, 3)
    b[0] = 1.0
    pair = top_root((a, b), b, -3.0, 3.0)
    assert pair.value == pytest.approx(0.0, abs=1e-12)
    assert inertia_count(a, b, 0.0) == dense_count_below(a, b, 0.0) == 0


def test_warm_start_on_second_eigenvector_is_rejected():
    # Rayleigh-quotient iteration from the second eigenvector converges to the
    # second eigenvalue; the definiteness certificate must reject it
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    pair = smallest_pair(a, b, start=v[:, 1])
    assert pair.value == pytest.approx(dense_smallest(a, b), abs=1e-10)
    assert abs(pair.value - w[1]) > 1e-3


def test_max_warm_start_on_second_largest_eigenvector_is_rejected():
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    pair = largest_pair(a, b, start=v[:, -2])
    assert pair.value == pytest.approx(w[-1], abs=1e-10)
    assert abs(pair.value - w[-2]) > 1e-3


def test_warm_start_near_smallest_eigenvector_is_certified():
    rng = np.random.default_rng(9)
    a, b = _random_pencil(rng, n=30, p=2)
    cold = smallest_pair(a, b)
    start = cold.vec + 1e-3 * rng.standard_normal(cold.vec.size)
    warm = smallest_pair(a, b, start=start)
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
    pair = smallest_pair(a, b)
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
    hi = largest_pair(a, b)
    lo = smallest_pair(a, b)
    assert hi.value > lo.value
    w_hi = -dense_smallest(
        np.concatenate([[-a[0]], -a[1:]]) if a.shape[0] > 1 else -a, b
    )
    assert hi.value == pytest.approx(w_hi, abs=1e-10)


def test_eigvec_b_normalized_and_sign_fixed():
    rng = np.random.default_rng(31)
    a, b = _random_pencil(rng, n=28, p=1)
    pair = smallest_pair(a, b)
    bx = band_to_dense(b) @ pair.vec
    assert pair.vec @ bx == pytest.approx(1.0, rel=1e-10)
    assert pair.vec[np.argmax(np.abs(pair.vec))] > 0


def test_bracket_grows_below_the_default_guess():
    # tridiag(-1, -1, -1): from the lower end 0 the first upper end 1 of
    # T(s) = A + s B lies below the top root 1 + 2 cos(pi / 31), minus the
    # smallest eigenvalue, so the bracket grows
    n = 30
    a = band_zeros(1, n)
    a[0] = -1.0
    a[1, :-1] = -1.0
    b = band_zeros(0, n)
    b[0] = 1.0
    truth = -1.0 - 2.0 * np.cos(np.pi / (n + 1))
    assert not definite(a, b, -1.0)
    pair = top_root((a, b), b, 0.0)
    assert -pair.value == pytest.approx(truth, abs=1e-10)
    pair = smallest_pair(a, b)
    assert pair.value == pytest.approx(truth, abs=1e-10)
    assert pair.value == pytest.approx(dense_smallest(a, b), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_smallest_below_all_rayleigh_quotients(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_pencil(rng, n=20, p=2)
    pair = smallest_pair(a, b)
    da, db = band_to_dense(a), band_to_dense(b)
    for _ in range(5):
        x = rng.standard_normal(20)
        quotient = (x @ da @ x) / (x @ db @ x)
        assert pair.value <= quotient + 1e-9 * max(1.0, abs(quotient))


@pytest.mark.parametrize("gap", [1e-7, 1e-8])
def test_cold_route_falls_back_on_a_near_double_eigenvalue(gap):
    # the iteration from the coarse bracket may stop between 1 and 1 + gap;
    # the two Cholesky tests, or the bisection to TOL, must refuse a value
    # gap/2 too high
    rng = np.random.default_rng(41)
    n = 20
    a = band_zeros(0, n)
    a[0] = rng.permutation(np.concatenate([[1.0, 1.0 + gap], rng.uniform(2, 5, n - 2)]))
    b = band_zeros(0, n)
    b[0] = 1.0
    pair = smallest_pair(a, b)
    assert abs(pair.value - dense_smallest(a, b)) <= 1e-10


@pytest.mark.parametrize("p, n", [(1, 37), (2, 37), (3, 37), (1, 1)])
def test_solve_shifted_matches_dense_solve(p, n):
    # p = 1 takes dgtsv, which needs n > 1; every other band takes dgbsv
    rng = np.random.default_rng(43 + p)
    a, b = _random_pencil(rng, n=n, p=p)
    rhs = rng.standard_normal(n)
    sigma = float(rng.standard_normal())
    dense = band_to_dense(a) - sigma * band_to_dense(b)
    got = _solve(band_combine([(1.0, a), (-sigma, b)]), rhs)
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
        _solve(band_combine([(1.0, a), (-1.0, b)]), np.ones(n))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    p=st.sampled_from([1, 2, 3]),
)
def test_property_cold_value_matches_dense_smallest(seed, n, p):
    a, b = _random_pencil(np.random.default_rng(seed), n=n, p=p)
    w0 = dense_smallest(a, b)
    pair = smallest_pair(a, b)
    assert abs(pair.value - w0) <= 1e-10 * max(1.0, abs(w0))


def test_cold_solve_work_count_on_the_canonical_energy_pencil():
    # bisecting all the way to tol took 40 iterations here; alpha(s) < 0 at
    # this s, so the top root of T = A + s J, -alpha, lies above 0
    grid = rtmhd.Grid1D(8.0, 201)
    profile = rtmhd.build_profile(CANON_SPEC, grid)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    forms = assemble_forms(profile, grid, rtmhd.Frequency(1.0, 1.0), mag, CANON_PARAMS)
    cap = float(np.sqrt(CANON_PARAMS.g * profile.sup_ratio))
    a = forms.energy(1e-8 * cap)
    pair = top_root((a, forms.j), forms.j, 0.0)
    assert pair.iterations <= 20
    truth = dense_smallest(a, forms.j)
    assert abs(-pair.value - truth) <= 1e-8 * max(1.0, abs(truth))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    p=st.sampled_from([1, 2, 3]),
    u=st.floats(-3.0, 0.0),
)
def test_property_small_spectrum_value_matches_dense_smallest(seed, n, p, u):
    # with A ~ 1e-3 the whole spectrum is narrower than 1e-3, where an
    # absolute coarse bracket width could not single out one eigenvalue
    a, b = _random_pencil(np.random.default_rng(seed), n=n, p=p)
    a *= 10.0**u
    w0 = dense_smallest(a, b)
    pair = smallest_pair(a, b)
    assert abs(pair.value - w0) <= 1e-10 * max(1.0, abs(w0))


def test_second_pass_on_the_second_eigenvector_raises(monkeypatch):
    # every banded solve returns the dense second eigenvector, so the
    # iteration converges to -w[1], a lower root of T(s) = A + s B, after
    # the coarse bracket and again after the bisection to TOL; both must
    # refuse it, and the second restart runs within TOL above the root -w[0]
    rng = np.random.default_rng(7)
    a, b = _random_pencil(rng, n=30, p=2)
    w, v = eigh(band_to_dense(a), band_to_dense(b))
    second = v[:, 1]
    shifts = []

    def onto_second(t, rhs):
        shifts.append((t[0, 0] - a[0, 0]) / b[0, 0])  # t = T(s)
        return second.copy()

    monkeypatch.setattr(rtmhd.eig, "_solve", onto_second)
    with pytest.raises(FactorizationBreakdown):
        top_root((a, b), b, -w[-1] - 1.0)
    restarts = sorted({s for s in shifts if s > -w[0]})  # the inverse steps at hi
    assert len(restarts) == 2  # one restart per bracket, each at its upper end
    assert 0.0 <= restarts[0] + w[0] <= TOL * max(1.0, abs(w[0]))
    assert w[1] - w[0] > 1e-3


@pytest.mark.parametrize(
    "top, lo, want",
    [
        (-1.0, 0.0, None),  # negative top root: T(lo) positive definite
        (-1.0, -10.0, -1.0),  # negative top root above lo
        (0.0, 0.0, None),  # top root exactly 0 = lo: T(0) singular
        (0.0, -5.0, 0.0),
        (1e-14, 0.0, 1e-14),  # tiny: the bracket reaches the tol width first
    ],
)
@pytest.mark.parametrize("warm", [False, True])
def test_top_root_ends_for_any_root_sign(top, lo, want, warm):
    # the pencil diag(top, top - 1, top - 2) against the identity, as the
    # top root of T(s) = s I - A; the iteration starts once the bracket is
    # 0.2 min(|lo|, |hi|) or the tol width across, whatever the root's sign
    a = band_zeros(0, 3)
    a[0] = [top - 1.0, top, top - 2.0]
    b = band_zeros(0, 3)
    b[0] = 1.0
    start = np.array([0.1, 1.0, 0.1]) if warm else None
    pair = top_root((band_combine([(-1.0, a)]), b), b, lo, start=start)
    if want is None:
        assert pair is None
        return
    assert pair.value == pytest.approx(want, rel=1e-9, abs=1e-20)
    assert pair.bracket[0] <= pair.value <= pair.bracket[1]
    assert np.argmax(pair.vec) == 1 and pair.iterations <= 60


def test_small_spectrum_stress_set_within_its_certificate():
    # the whole spectrum is narrower than 1e-3 (A scaled by 1e-3), so the
    # bracket's start width is relative, not absolute; every smallest
    # eigenvalue is inside its certified bracket, within TOL
    rng = np.random.default_rng(2026)
    for _ in range(60):
        n, p = int(rng.integers(10, 81)), int(rng.integers(1, 4))
        a, b = _random_pencil(rng, n=n, p=p)
        a *= 1e-3
        truth = dense_smallest(a, b)
        pair = smallest_pair(a, b)
        lo, hi = pair.bracket
        assert lo - 1e-15 <= truth <= hi + 1e-15
        assert abs(pair.value - truth) <= TOL
