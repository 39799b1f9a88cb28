"""Discrete energy and constraint forms for the normal-mode eigenproblem.

All forms are symmetric banded Gram assemblies on the clamped interior grid
(trapezoid weights, zero values and zero ghosts at +-Lz):

  e0  magnetic + buoyancy form; indefinite, read from the field vector
  e1  viscous dissipation form, positive semidefinite by construction
  j   density-weighted constraint form, positive definite
  mass  plain L^2 mass, used for membership tests and thresholds
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ZeroFrequency
from .operators import (
    band_combine,
    composite_stencil,
    d1_stencil,
    d2_stencil,
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

__all__ = ["FormSet", "assemble_forms", "e0_builder", "form_key"]


@dataclass(frozen=True)
class FormSet:
    """Assembled forms plus the context they were built from."""

    e0: np.ndarray
    e1: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    xi: Frequency
    mag: MagneticConfig
    params: PhysicalParams
    grid: Grid1D
    profile: DensityProfile

    def energy(self, s: float) -> np.ndarray:
        """|xi|^2 E0 + s E1, the modified-problem quadratic form."""
        return band_combine([(self.xi.norm2, self.e0), (s, self.e1)])


def form_key(xi: Frequency, mag: MagneticConfig) -> tuple[float, float]:
    """(|xi|^2, M^2 (b_h . xi)^2), everything the forms read of xi.

    b = mag.direction(); frequencies with equal keys have bitwise equal forms.
    """
    b1, b2, _ = mag.direction()
    return xi.norm2, mag.magnitude**2 * (b1 * xi.xi1 + b2 * xi.xi2) ** 2


def e0_builder(
    profile: DensityProfile,
    grid: Grid1D,
    mag: MagneticConfig,
    params: PhysicalParams,
) -> Callable[[Frequency], np.ndarray]:
    """E0 as a function of xi, with the bands that do not depend on xi built once.

    With b = mag.direction() and K the gradient stiffness, the magnetic part is
    M^2 (b_h . xi)^2 (mass + K/|xi|^2) + M^2 b3^2 (K + D2^T D2/|xi|^2); the
    terms of a vanishing field component are not formed, nor their bands.
    A loop over many frequencies of one setup (the |xi|_vc bisection) pays one
    band combination per frequency instead of a full assembly.
    """
    buoyancy = mass_band(grid, -params.g * profile.drho(grid.points()))
    k_grad = grad_stiffness_band(grid)
    b1, b2, b3 = mag.direction()
    m2b3 = mag.magnitude**2 * b3**2
    mass = mass_band(grid) if b1 or b2 else None
    d2_gram = d2_stencil(grid).gram(np.full(grid.n, grid.h)) if b3 else None

    def e0(xi: Frequency) -> np.ndarray:
        xi2, m2bxi = form_key(xi, mag)
        terms = []
        if mass is not None:
            terms += [(m2bxi, mass), (m2bxi / xi2, k_grad)]
        if d2_gram is not None:
            terms += [(m2b3, k_grad), (m2b3 / xi2, d2_gram)]
        return band_combine(terms + [(1.0, buoyancy)])

    return e0


def assemble_forms(
    profile: DensityProfile,
    grid: Grid1D,
    xi: Frequency,
    mag: MagneticConfig,
    params: PhysicalParams,
) -> FormSet:
    """Build E0, E1, J and the L^2 mass for one frequency and field setup."""
    if xi.is_zero():
        raise ZeroFrequency("forms are defined only for |xi| > 0")

    x = grid.points()
    xm = grid.midpoints()
    rho = profile.rho(x)
    rho_mid = profile.rho(xm)
    xi2 = xi.norm2
    w = np.full(grid.n, grid.h)

    e1 = band_combine(
        [
            (4.0 * params.mu * xi2, d1_stencil(grid).gram(w)),
            (params.mu, composite_stencil(grid, xi2).gram(w)),
        ]
    )

    j = band_combine(
        [
            (xi2, mass_band(grid, rho)),
            (1.0, grad_stiffness_band(grid, rho_mid)),
        ]
    )

    return FormSet(
        e0=e0_builder(profile, grid, mag, params)(xi),
        e1=e1,
        j=j,
        mass=mass_band(grid),
        xi=xi,
        mag=mag,
        params=params,
        grid=grid,
        profile=profile,
    )
