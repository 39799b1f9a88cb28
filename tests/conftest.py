import dataclasses

import numpy as np
import pytest

import rtmhd
from rtmhd.eig import top_root
from rtmhd.operators import band_combine

# canonical setup: single positive bump on a unit-density background
CANON_SPEC = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
CANON_PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)

# negative total jump: heavier fluid below on balance, finite critical field
JUMP_NEG_SPEC = rtmhd.ProfileSpec(
    5.0, (rtmhd.Bump(0.6, 1.0, 0.5), rtmhd.Bump(-1.8, -1.0, 0.5))
)


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
def lapack_calls(monkeypatch):
    """Counts of the LAPACK calls made at the names eig.py calls: banded
    Cholesky tests (dpbtrf) and banded solves (dgbsv, dgtsv)."""
    calls = dict.fromkeys(("dpbtrf", "dgbsv", "dgtsv"), 0)

    def counting(name):
        real = getattr(rtmhd.eig, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rtmhd.eig, name, counting(name))
    return calls


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
