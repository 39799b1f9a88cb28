import dataclasses

import numpy as np
import pytest

import rtmhd
from rtmhd import stats
from rtmhd.eig import top_root
from rtmhd.operators import band_combine

# canonical setup: single positive bump on a unit-density background
CANON_SPEC = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
CANON_PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)

# negative total jump: heavier fluid below on balance, finite critical field
JUMP_NEG_SPEC = rtmhd.ProfileSpec(
    5.0, (rtmhd.Bump(0.6, 1.0, 0.5), rtmhd.Bump(-1.8, -1.0, 0.5))
)

# profiles whose sup drho/rho sits at different places of their supports
SUP_SPECS = {
    "canonical": CANON_SPEC,
    "jump-neg": JUMP_NEG_SPEC,
    "off-centre": rtmhd.ProfileSpec(
        3.0, (rtmhd.Bump(0.5, 1.0, 0.5), rtmhd.Bump(-0.2, -1.0, 0.7))
    ),
    "two-positive": rtmhd.ProfileSpec(
        2.0, (rtmhd.Bump(0.3, -1.0, 0.6), rtmhd.Bump(0.4, 1.2, 0.8))
    ),
}


def largest_pair(a, b, start=None):
    """The largest eigenpair of (A, B), B positive definite: the top root of
    T(s) = s B - A above max_i A_ii / B_ii, a Rayleigh quotient of a unit
    vector, less a margin."""
    q = float(np.max(a[0] / b[0]))
    lo = q - 1e-9 * max(1.0, abs(q))
    return top_root((band_combine([(-1.0, a)]), b), b, lo, start=start)


def smallest_pair(a, b, start=None):
    """The smallest eigenpair of (A, B): minus the largest of (-A, B)."""
    pair = largest_pair(band_combine([(-1.0, a)]), b, start)
    lo, hi = pair.bracket
    return dataclasses.replace(pair, value=-pair.value, bracket=(-hi, -lo))


@pytest.fixture
def lapack_calls():
    """A reader of the work record: each call returns the banded Cholesky
    tests (dpbtrf) and banded solves (dgbsv, dgtsv) made since the previous
    call, or since the fixture was set up."""
    last = dict(stats.counts)

    def read():
        added = stats.since(last)
        last.update(stats.counts)
        return {name: added[name] for name in ("dpbtrf", "dgbsv", "dgtsv")}

    return read


@pytest.fixture(scope="session")
def canon_grid():
    return rtmhd.Grid1D(8.0, 801)


@pytest.fixture(scope="session")
def canon_profile(canon_grid):
    return rtmhd.build_profile(CANON_SPEC, canon_grid)


@pytest.fixture(scope="session")
def jumpneg_profile(canon_grid):
    return rtmhd.build_profile(JUMP_NEG_SPEC, canon_grid)


@pytest.fixture(scope="session")
def canon_mag0():
    return rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)


@pytest.fixture(scope="session")
def canon_sweep(canon_profile, canon_grid):
    """Radius-4 lattice sweep of the canonical field-free setup."""
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    return rtmhd.lattice_sweep(canon_profile, canon_grid, mag, CANON_PARAMS, radius=4.0)
