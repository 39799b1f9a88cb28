import numpy as np
import pytest

import rtmhd

# canonical setup: single positive bump on a unit-density background
CANON_SPEC = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
CANON_PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)

# negative total jump: heavier fluid below on balance, finite critical field
JUMP_NEG_SPEC = rtmhd.ProfileSpec(
    5.0, (rtmhd.Bump(0.6, 1.0, 0.5), rtmhd.Bump(-1.8, -1.0, 0.5))
)


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
