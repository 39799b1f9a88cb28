"""Discrete energy and constraint forms for the normal-mode eigenproblem.

All forms are symmetric banded Gram assemblies on the clamped interior grid
(trapezoid weights, zero values and zero ghosts at +-Lz):

  e0  magnetic + buoyancy form; indefinite, read from the field vector
  e1  viscous dissipation form, positive semidefinite by construction
  j   density-weighted constraint form, positive definite
  mass  plain L^2 mass, used for membership tests and thresholds
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats
from .errors import ZeroFrequency
from .operators import (
    band_combine,
    d1_stencil,
    d2_stencil,
    diagonal_stencil,
    grad_stiffness_band,
    mass_band,
)
from .profiles import (
    DensityProfile,
    Frequency,
    Grid1D,
    MagneticConfig,
    PhysicalParams,
)

__all__ = ["FormSet", "assemble_forms", "form_key", "rate_bound"]


@dataclass(frozen=True)
class FormSet:
    """Assembled forms plus the setup they were built from; a growth result
    and its normal mode carry this record as their setup."""

    e0: np.ndarray
    e1: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    xi: Frequency
    mag: MagneticConfig
    params: PhysicalParams
    grid: Grid1D
    profile: DensityProfile

    def __post_init__(self):
        stats.counts["forms"] += 1

    def energy(self, s: float) -> np.ndarray:
        """|xi|^2 E0 + s E1, the modified-problem quadratic form."""
        return band_combine([(self.xi.norm2, self.e0), (s, self.e1)])

    @property
    def s_max(self) -> float:
        """``rate_bound`` of this setup: no rate of these forms exceeds it."""
        return rate_bound(self.profile, self.grid, self.params.g)


def form_key(xi: Frequency, mag: MagneticConfig) -> tuple[float, float]:
    """(|xi|^2, M^2 (b_h . xi)^2), everything the forms read of xi.

    b = mag.direction(); frequencies with equal keys have bitwise equal forms.
    """
    b1, b2, _ = mag.direction()
    return xi.norm2, mag.magnitude**2 * (b1 * xi.xi1 + b2 * xi.xi2) ** 2


class _E0Bands(NamedTuple):
    """The bands of E0 that do not depend on xi."""

    buoyancy: np.ndarray  # -g drho mass
    k_grad: np.ndarray  # gradient stiffness
    d2_gram: np.ndarray | None  # D2^T D2, in E0 of a field with b3 != 0


class _RestBands(NamedTuple):
    """The bands of the mass, E1 and J that do not depend on xi."""

    mass: np.ndarray  # plain L^2 mass, also in E0 of a field with b_h != 0
    d1_gram: np.ndarray  # D1^T D1, in E1
    j_mass: np.ndarray  # rho-weighted mass, in J
    j_grad: np.ndarray  # rho-weighted gradient stiffness, in J


def _read_only(bands: tuple) -> tuple:
    for band in bands:
        if band is not None:
            band.flags.writeable = False
    return bands


@functools.lru_cache(maxsize=4)
def _buoyancy_band(profile: DensityProfile, grid: Grid1D, g: float) -> np.ndarray:
    """-g drho mass, the buoyancy band of E0, built once and read-only."""
    band = mass_band(grid, -g * profile.drho(grid.points()))
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=4)
def _e0_bands(
    profile: DensityProfile, grid: Grid1D, g: float, vertical: bool
) -> _E0Bands:
    """The xi-independent E0 bands, built once and read-only; D2^T D2 only
    when the field has a vertical component."""
    w = np.full(grid.n, grid.h)
    return _read_only(
        _E0Bands(
            buoyancy=_buoyancy_band(profile, grid, g),
            k_grad=grad_stiffness_band(grid),
            d2_gram=d2_stencil(grid).gram(w) if vertical else None,
        )
    )


@functools.lru_cache(maxsize=4)
def _rest_bands(profile: DensityProfile, grid: Grid1D) -> _RestBands:
    """The xi-independent mass, E1 and J bands, built once and read-only."""
    x = grid.points()
    w = np.full(grid.n, grid.h)
    return _read_only(
        _RestBands(
            mass=mass_band(grid),
            d1_gram=d1_stencil(grid).gram(w),
            j_mass=mass_band(grid, profile.rho(x)),
            j_grad=grad_stiffness_band(grid, profile.rho(grid.midpoints())),
        )
    )


@functools.lru_cache(maxsize=4)
def rate_bound(profile: DensityProfile, grid: Grid1D, g: float) -> float:
    """s_max = sqrt(max(0, max_i g drho_i/rho_i)) over the grid nodes, read
    from the diagonals of the buoyancy and rho-weighted mass bands; no root
    of T(s) = |xi|^2 E0 + s E1 + s^2 J reaches it, at any xi or field.

    E0 is diag(-g h drho) plus a positive semidefinite magnetic part, J is
    |xi|^2 diag(h rho) plus a positive definite rho-weighted stiffness, and
    E1 is positive semidefinite, so T(s) is positive definite once s >=
    s_max > 0; s_max = 0 means E0 is positive semidefinite and nothing
    grows.  The nodes are points of the line, so s_max <= sqrt(g sup
    drho/rho).
    """
    ratio = -_buoyancy_band(profile, grid, g)[0] / _rest_bands(profile, grid).j_mass[0]
    return math.sqrt(max(0.0, float(ratio.max())))


def assemble_forms(
    profile: DensityProfile,
    grid: Grid1D,
    xi: Frequency,
    mag: MagneticConfig,
    params: PhysicalParams,
) -> FormSet:
    """Build E0, E1, J and the L^2 mass for one frequency and field setup.

    The bands that do not depend on xi are built once per setup, E0's apart
    from the rest; a call combines them with the xi-dependent terms.  With
    b = mag.direction() and K the gradient stiffness, the magnetic part of E0
    is M^2 (b_h . xi)^2 (mass + K/|xi|^2) + M^2 b3^2 (K + D2^T D2/|xi|^2);
    the terms of a vanishing field component are not formed.
    """
    if xi.is_zero():
        raise ZeroFrequency("forms are defined only for |xi| > 0")

    b1, b2, b3 = mag.direction()
    bands = _e0_bands(profile, grid, params.g, bool(b3))
    rest = _rest_bands(profile, grid)
    xi2, m2bxi = form_key(xi, mag)
    w = np.full(grid.n, grid.h)
    # |xi|^2 I + D2, the sum-of-squares core of the viscous form
    composite = d2_stencil(grid) + diagonal_stencil(np.full(grid.n, xi2))

    m2b3 = mag.magnitude**2 * b3**2
    terms = []
    if b1 or b2:
        terms += [(m2bxi, rest.mass), (m2bxi / xi2, bands.k_grad)]
    if b3:
        terms += [(m2b3, bands.k_grad), (m2b3 / xi2, bands.d2_gram)]
    e0 = band_combine(terms + [(1.0, bands.buoyancy)])

    e1 = band_combine(
        [
            (4.0 * params.mu * xi2, rest.d1_gram),
            (params.mu, composite.gram(w)),
        ]
    )

    j = band_combine([(xi2, rest.j_mass), (1.0, rest.j_grad)])

    return FormSet(
        e0=e0,
        e1=e1,
        j=j,
        mass=rest.mass,
        xi=xi,
        mag=mag,
        params=params,
        grid=grid,
        profile=profile,
    )
