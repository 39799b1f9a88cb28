import numpy as np
import pytest

import rtmhd
from rtmhd.operators import (
    band_matvec,
    band_to_dense,
    band_to_lu,
    Stencil,
    block_sparse,
    d1_free_stencil,
    d1_stencil,
    d2_stencil,
    diagonal_stencil,
    grad_stiffness_band,
    gradient_stencil,
    mass_band,
)

from .oracles import eoc


def _composite(grid, xi2):
    """|xi|^2 I + D2, as ``assemble_forms`` builds the core of the viscous form."""
    return d2_stencil(grid) + diagonal_stencil(np.full(grid.n, xi2))


def _smooth(x):
    # compactly supported C^inf test function
    out = np.zeros_like(x)
    m = np.abs(x) < 2.0
    out[m] = np.exp(-1.0 / (1.0 - (x[m] / 2.0) ** 2)) * np.sin(1.3 * x[m])
    return out


def _smooth_d1(x, eps=1e-6):
    return (_smooth(x + eps) - _smooth(x - eps)) / (2 * eps)


def test_d1_d2_convergence_order():
    errs1, errs2 = [], []
    for n in (400, 800):
        grid = rtmhd.Grid1D(4.0, n)
        x = grid.points()
        f = _smooth(x)
        d1_exact = _smooth_d1(x)
        d2_exact = (_smooth(x + 1e-4) - 2 * _smooth(x) + _smooth(x - 1e-4)) / 1e-8
        errs1.append(np.max(np.abs(d1_stencil(grid).apply(f) - d1_exact)))
        errs2.append(np.max(np.abs(d2_stencil(grid).apply(f) - d2_exact)))
    assert 1.8 <= eoc(errs1[0], errs1[1]) <= 2.2
    assert 1.8 <= eoc(errs2[0], errs2[1]) <= 2.2


def test_d1_free_second_order_at_ends():
    errs = []
    for n in (400, 800):
        grid = rtmhd.Grid1D(4.0, n)
        x = grid.points()
        f = np.cos(0.7 * x)  # nonzero at the boundary
        exact = -0.7 * np.sin(0.7 * x)
        errs.append(np.max(np.abs(d1_free_stencil(grid).apply(f) - exact)))
    assert 1.8 <= eoc(errs[0], errs[1]) <= 2.2


def test_gram_products_match_dense_einsum():
    grid = rtmhd.Grid1D(3.0, 23)
    rng = np.random.default_rng(7)
    st = gradient_stencil(grid)
    w = rng.uniform(0.5, 2.0, st.n_rows)
    gram = st.gram(w)
    # dense comparison
    op = np.zeros((st.n_rows, grid.n))
    for o, c in zip(st.offsets, st.coeffs):
        for k in range(st.n_rows):
            col = k + o
            if 0 <= col < grid.n:
                op[k, col] = c[k]
    dense = op.T @ np.diag(w) @ op
    assert np.allclose(band_to_dense(gram), dense, atol=1e-14)


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: grad_stiffness_band(g),
        lambda g: d1_stencil(g).gram(np.full(g.n, g.h)),
        lambda g: d2_stencil(g).gram(np.full(g.n, g.h)),
        lambda g: _composite(g, 1.7).gram(np.full(g.n, g.h)),
        lambda g: mass_band(g, 2.2),
    ],
)
def test_gram_forms_are_psd_and_symmetric(builder):
    grid = rtmhd.Grid1D(3.0, 41)
    ab = builder(grid)
    dense = band_to_dense(ab)
    assert np.array_equal(dense, dense.T)
    w = np.linalg.eigvalsh(dense)
    assert w.min() >= -1e-10 * max(1.0, abs(w).max())


@pytest.mark.parametrize(
    "builder",
    [
        d1_stencil,
        d1_free_stencil,
        d2_stencil,
        gradient_stencil,
        lambda g: _composite(g, 1.7),
    ],
    ids=["d1", "d1_free", "d2", "gradient", "composite"],
)
def test_stencil_views_agree(builder):
    # apply, sparse and gram are three views of one set of coefficients
    grid = rtmhd.Grid1D(3.0, 23)
    st = builder(grid)
    dense = st.sparse().toarray()
    assert dense.shape == (st.n_rows, grid.n)
    # apply divides out its largest coefficient, so the views agree to one rounding
    columns = np.stack([st.apply(e) for e in np.eye(grid.n)], axis=1)
    assert np.abs(columns - dense).max() <= 1e-15 * np.abs(dense).max()
    v = np.random.default_rng(5).standard_normal(grid.n) * (1 + 2j)
    assert np.allclose(st.apply(v), dense @ v, rtol=0, atol=1e-13 * np.abs(dense).max())
    w = np.random.default_rng(7).uniform(0.5, 2.0, st.n_rows)
    expected = dense.T @ np.diag(w) @ dense
    err = np.abs(band_to_dense(st.gram(w)) - expected).max()
    assert err <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n", [17, 201, 801])
def test_composite_sum_is_the_one_stencil_closed_form(n):
    # the sum D2 + |xi|^2 I has the coefficients (c, |xi|^2 - 2c, c) of one
    # stencil bit for bit, so the viscous form E1 is the same either way
    grid = rtmhd.Grid1D(8.0, n)
    c = 1.0 / (grid.h * grid.h)
    w = np.full(n, grid.h)
    for xi2 in (1e-6, 0.3, 1.0, 1.7, 16.0, 123.456):
        st = _composite(grid, xi2)
        rows = (np.full(n, c), np.full(n, xi2 - 2.0 * c), np.full(n, c))
        closed = Stencil((-1, 0, 1), rows, n)
        assert st.offsets == closed.offsets
        assert all(np.array_equal(a, b) for a, b in zip(st.coeffs, closed.coeffs))
        assert np.array_equal(st.gram(w), closed.gram(w))


def test_stencil_algebra_matches_sparse_matrices():
    # sums, scalings, products and block assembly of stencils are the sparse
    # matrices they stand for, entries on boundary values dropped
    grid = rtmhd.Grid1D(3.0, 23)
    d1, d1f, d2 = d1_stencil(grid), d1_free_stencil(grid), d2_stencil(grid)
    w = diagonal_stencil(np.random.default_rng(9).uniform(0.5, 2.0, grid.n))
    m1, m1f, m2, mw = (st.sparse().toarray() for st in (d1, d1f, d2, w))
    cases = [
        (d2 + (-1.7) * w, m2 - 1.7 * mw),
        ((0.5 - 2j) * d1f, (0.5 - 2j) * m1f),
        (d1 @ w @ d1, m1 @ mw @ m1),
        (d1f @ d1, m1f @ m1),
        (d2 @ d1f + 3.0 * d1, m2 @ m1f + 3.0 * m1),
    ]
    for st, dense in cases:
        assert np.abs(st.sparse().toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
    blocks = {(0, 0): d1, (0, 2): d1 @ d1f, (1, 1): 2j * w}
    got = block_sparse(blocks, (2, 3)).toarray()
    n = grid.n
    expected = np.zeros((2 * n, 3 * n), dtype=complex)
    expected[:n, :n] = m1
    expected[:n, 2 * n :] = m1 @ m1f
    expected[n:, n : 2 * n] = 2j * mw
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_stencil_apply_complex_and_zero_coefficients():
    # the output type comes from the coefficients as well as the input, and
    # an all-zero stencil applies as zero, not 0/0
    grid = rtmhd.Grid1D(3.0, 23)
    d1 = d1_stencil(grid)
    v = np.random.default_rng(11).standard_normal(grid.n)
    dense = d1.sparse().toarray()
    got = (1j * d1).apply(v)
    assert got.dtype == complex
    assert np.abs(got - 1j * (dense @ v)).max() <= 1e-14 * np.abs(dense @ v).max()
    zero = (0.0 * d1).apply(v)
    assert zero.dtype == float and np.array_equal(zero, np.zeros(grid.n))


def test_band_matvec_and_lu_layout():
    rng = np.random.default_rng(3)
    ab = rng.standard_normal((3, 17))
    x = rng.standard_normal(17)
    dense = band_to_dense(ab)
    assert np.allclose(band_matvec(ab, x), dense @ x, atol=1e-13)
    lu = band_to_lu(ab)
    p = ab.shape[0] - 1
    assert lu.shape == (3 * p + 1, 17) and lu.flags.f_contiguous
    assert not lu[:p].any()  # dgbsv's fill-in workspace
    rebuilt = np.zeros_like(dense)
    n = 17
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= p:
                rebuilt[i, j] = lu[2 * p + i - j, j]
    assert np.allclose(rebuilt, dense, atol=0)


def test_quadratic_forms_converge_to_integrals():
    vals = []
    for n in (500, 1000, 2000):
        grid = rtmhd.Grid1D(4.0, n)
        x = grid.points()
        f = _smooth(x)
        vals.append(f @ band_matvec(grad_stiffness_band(grid), f))
    # Richardson check: second-order convergence toward a limit
    e1 = abs(vals[1] - vals[2])
    e0 = abs(vals[0] - vals[1])
    assert 1.8 <= eoc(e0, e1) <= 2.2
