"""Physical parameters, steady density profiles, grids, and frequencies.

The steady density rho(x3) is built from a constant base value plus the
cumulative integral of a derivative drho composed of smooth compactly
supported bumps a * exp(-1/(1 - t^2)), t = (x - c)/w.  The derivative is
analytic and exactly zero outside the declared supports; rho itself is
obtained by composite Gauss-Legendre quadrature of drho, so the pair stays
consistent to machine precision.  The quadrature runs over fixed blocks of
points, so evaluating rho, drho or their ratio needs a few MB of temporaries
beyond its input and output, whatever the number of points.

Every number of the parameter, field, bump and grid records must be finite;
a NaN or infinite value raises ValueError on construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonPositiveDensity, NoUnstableRegion

__all__ = [
    "PhysicalParams",
    "Orientation",
    "MagneticConfig",
    "Bump",
    "ProfileSpec",
    "Grid1D",
    "Frequency",
    "DensityProfile",
    "build_profile",
    "profile_metrics",
    "BUMP_INTEGRAL",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Shear viscosity mu, gravity g, and horizontal period scale L."""

    mu: float
    g: float
    L: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.mu, self.g, self.L)):
            raise ValueError("mu, g, L must all be positive and finite")


class Orientation(Enum):
    """Direction of the uniform background magnetic field."""

    HORIZONTAL = "horizontal"  # field along e1
    VERTICAL = "vertical"      # field along e3


@dataclass(frozen=True)
class MagneticConfig:
    """Background field M e, e = e1 or e3.  The energy forms see M^2; the
    induced field N and its coupling to the velocity are linear in M."""

    orientation: Orientation
    magnitude: float

    def __post_init__(self):
        if not 0 <= self.magnitude < math.inf:
            raise ValueError("field magnitude must be >= 0 and finite")

    def direction(self) -> tuple[float, float, float]:
        """The unit vector e in the lab frame (x1, x2, x3)."""
        if self.orientation is Orientation.HORIZONTAL:
            return (1.0, 0.0, 0.0)
        return (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Bump:
    """One mollifier bump of the density derivative."""

    amplitude: float
    center: float
    half_width: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.center)):
            raise ValueError("bump amplitude and center must be finite")
        if not 0 < self.half_width < math.inf:
            raise ValueError("bump half_width must be positive and finite")


@dataclass(frozen=True)
class ProfileSpec:
    """Base density below the transition region plus a list of bumps."""

    base_density: float
    bumps: tuple[Bump, ...]

    def __post_init__(self):
        if not 0 < self.base_density < math.inf:
            raise ValueError("base_density must be positive and finite")
        if not self.bumps:
            raise ValueError("at least one bump is required")
        object.__setattr__(self, "bumps", tuple(self.bumps))


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on [-half_length, half_length], endpoints excluded.

    Values at +-half_length are fixed to zero by the boundary conditions and
    are never stored; h = 2*half_length/(n + 1).
    """

    half_length: float
    n: int

    def __post_init__(self):
        if not 0 < self.half_length < math.inf:
            raise ValueError("half_length must be positive and finite")
        if self.n < 16:
            raise ValueError("need at least 16 interior points")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / (self.n + 1)

    def points(self) -> np.ndarray:
        h = self.h
        return -self.half_length + h * np.arange(1, self.n + 1)

    def midpoints(self) -> np.ndarray:
        """n+1 cell midpoints, one between each pair of adjacent nodes."""
        h = self.h
        return -self.half_length + h * (np.arange(self.n + 1) + 0.5)


@dataclass(frozen=True)
class Frequency:
    """Horizontal wave vector xi = (xi1, xi2)."""

    xi1: float
    xi2: float

    @property
    def norm2(self) -> float:
        return self.xi1 * self.xi1 + self.xi2 * self.xi2

    @property
    def norm(self) -> float:
        return float(np.hypot(self.xi1, self.xi2))

    def is_zero(self) -> bool:
        """|xi|^2 is 0, as it is for a nonzero xi whose square underflows."""
        return self.norm2 == 0.0

    @classmethod
    def lattice(cls, i: int, j: int, L: float) -> "Frequency":
        return cls(i / L, j / L)

    def __neg__(self) -> "Frequency":
        return Frequency(-self.xi1, -self.xi2)


# --- mollifier bump and its cumulative integral -----------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_N_PANELS = 64
_PANEL_EDGES = np.linspace(-1.0, 1.0, _N_PANELS + 1)
_CDF_BLOCK = 4096  # points per quadrature block of _bump_cdf


def _bump_shape(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) for |t| < 1, zero elsewhere."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _panel_prefix() -> np.ndarray:
    """Cumulative integrals of the bump shape over the fixed panels."""
    a = _PANEL_EDGES[:-1]
    b = _PANEL_EDGES[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = _bump_shape(nodes) @ _GL_WEIGHTS
    panel = half * vals
    prefix = np.zeros(_N_PANELS + 1)
    np.cumsum(panel, out=prefix[1:])
    return prefix


_PANEL_PREFIX = _panel_prefix()

#: integral of exp(-1/(1-t^2)) over [-1, 1]
BUMP_INTEGRAL = float(_PANEL_PREFIX[-1])


def _bump_cdf(t: np.ndarray) -> np.ndarray:
    """Integral of the bump shape from -1 up to t (clipped to [-1, 1]); NaN at NaN.

    The points are evaluated in blocks of ``_CDF_BLOCK``, so the
    (points x nodes) temporaries of the quadrature stay a few MB for any
    number of points.  A value inside a block of many points is bitwise the
    one-pass value; a point evaluated alone, or alone in a ragged last
    block, is a one-row product that sums in another order and can differ
    by up to 2 ulps.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.shape)
    width = 2.0 / _N_PANELS
    for start in range(0, flat.size, _CDF_BLOCK):
        tb = np.clip(flat[start : start + _CDF_BLOCK], -1.0, 1.0)
        nan = np.isnan(tb)
        tb[nan] = 0.0  # a NaN point would cast to an index far out of range
        idx = np.minimum(((tb + 1.0) / width).astype(int), _N_PANELS - 1)
        lo = _PANEL_EDGES[idx]
        half = 0.5 * (tb - lo)
        mid = 0.5 * (tb + lo)
        nodes = mid[:, None] + half[:, None] * _GL_NODES
        partial = half * (_bump_shape(nodes) @ _GL_WEIGHTS)
        block = out[start : start + _CDF_BLOCK]
        np.add(_PANEL_PREFIX[idx], partial, out=block)
        block[nan] = np.nan
    return out.reshape(t.shape)


@dataclass(frozen=True)
class DensityProfile:
    """Evaluators for rho, drho plus scalar metrics of the profile.

    ``total_jump`` and ``support`` are set on construction.  ``inf_rho``,
    ``sup_rho`` and ``sup_ratio`` are computed on first read and then
    cached: rho is evaluated once, on the check grid plus 10x its density
    across every bump support, and ``sup_ratio`` zooms in from those
    samples.  Equality and hashing see only the spec, the jump, the
    support and the check grid, never the cached metrics.
    """

    spec: ProfileSpec
    total_jump: float
    support: tuple[float, float]
    check_grid: Grid1D

    @functools.cached_property
    def _sampled(self) -> tuple[np.ndarray, np.ndarray]:
        """The sample points, the check grid plus 10x its density across
        every bump support, and rho at them."""
        per_bump = max(101, 10 * self.check_grid.n // max(1, len(self.spec.bumps)))
        samples = np.concatenate(
            [self.check_grid.points(), _dense_support_samples(self.spec, per_bump)]
        )
        return samples, self.rho(samples)

    @functools.cached_property
    def inf_rho(self) -> float:
        base = self.spec.base_density
        return float(min(self._sampled[1].min(), base, base + self.total_jump))

    @functools.cached_property
    def sup_rho(self) -> float:
        base = self.spec.base_density
        return float(max(self._sampled[1].max(), base, base + self.total_jump))

    @functools.cached_property
    def sup_ratio(self) -> float:
        samples, rho_s = self._sampled
        return _polished_sup_ratio(self, samples, self.drho(samples) / rho_s)

    def drho(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for b in self.spec.bumps:
            out += b.amplitude * _bump_shape((x - b.center) / b.half_width)
        return out

    def rho(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.spec.base_density)
        for b in self.spec.bumps:
            out += b.amplitude * b.half_width * _bump_cdf((x - b.center) / b.half_width)
        return out

    def ratio(self, x) -> np.ndarray:
        """Pointwise drho/rho."""
        return self.drho(x) / self.rho(x)


def _support_interval(spec: ProfileSpec) -> tuple[float, float]:
    lo = min(b.center - b.half_width for b in spec.bumps)
    hi = max(b.center + b.half_width for b in spec.bumps)
    return lo, hi


def _dense_support_samples(spec: ProfileSpec, per_bump: int) -> np.ndarray:
    """The sorted distinct points of per_bump even samples across each support.

    Sorting and dropping repeats by hand does what ``np.unique`` does, without
    the ``numpy.ma`` import that ``np.unique`` pulls in.
    """
    pieces = [
        np.linspace(b.center - b.half_width, b.center + b.half_width, per_bump)
        for b in spec.bumps
    ]
    x = np.sort(np.concatenate(pieces))
    fresh = np.empty(x.shape, dtype=bool)
    fresh[:1] = True
    np.not_equal(x[1:], x[:-1], out=fresh[1:])
    return x[fresh]


def _positivity_floor(spec: ProfileSpec) -> tuple[float, float]:
    """A lower bound on rho, and the rounding margin it must clear.

    Each bump adds a * w * cdf with cdf in [0, BUMP_INTEGRAL], so rho is at
    least base + BUMP_INTEGRAL * sum(min(a, 0) * w) everywhere.
    """
    floor = spec.base_density + BUMP_INTEGRAL * sum(
        min(b.amplitude, 0.0) * b.half_width for b in spec.bumps
    )
    scale = spec.base_density + BUMP_INTEGRAL * sum(
        abs(b.amplitude) * b.half_width for b in spec.bumps
    )
    return floor, 1e-9 * scale


def build_profile(spec: ProfileSpec, check_grid: Grid1D) -> DensityProfile:
    """Validate a profile spec on the given grid; its metrics wait for a read.

    Raises NoUnstableRegion if no bump has positive amplitude and
    NonPositiveDensity if rho dips to zero or below anywhere sampled.  When
    the positivity floor clears its rounding margin, rho is positive
    everywhere and nothing is sampled; otherwise ``inf_rho`` decides.
    """
    if not any(b.amplitude > 0 for b in spec.bumps):
        raise NoUnstableRegion("profile needs a bump with positive amplitude")

    support = _support_interval(spec)
    half = 0.5 * check_grid.half_length
    if not (-half < support[0] and support[1] < half):
        raise ValueError(
            f"bump support [{support[0]:g}, {support[1]:g}] must sit strictly "
            f"inside [-Lz/2, Lz/2] = [{-half:g}, {half:g}] so a decay region exists"
        )
    total_jump = BUMP_INTEGRAL * sum(b.amplitude * b.half_width for b in spec.bumps)
    profile = DensityProfile(
        spec=spec, total_jump=total_jump, support=support, check_grid=check_grid
    )
    floor, margin = _positivity_floor(spec)
    if floor <= margin and profile.inf_rho <= 0:
        raise NonPositiveDensity(f"min rho = {profile.inf_rho:.6g} <= 0")
    return profile


_ZOOM_POINTS = 65  # ratio evaluations per zoom round
_ZOOM_XTOL = 1e-13  # final bracket width


def _polished_sup_ratio(
    profile: DensityProfile, samples: np.ndarray, r: np.ndarray
) -> float:
    """sup of drho/rho from its values ``r`` at ``samples``, then a bracket zoom.

    The bracket of the sample argmax is sampled at ``_ZOOM_POINTS`` even
    points and shrunk to the two neighbours of their argmax, until it is at
    most ``_ZOOM_XTOL`` wide (or as narrow as floating point allows).  The
    result is the largest ratio evaluated anywhere; near a smooth maximum
    the ratio is flat to roundoff across the last bracket, which makes the
    cached value an upper envelope for the ratio at any later evaluation
    grid and keeps sup-based bounds exact.
    """
    k = int(np.argmax(r))
    best = float(r[k])
    if best <= 0.0:
        # positive bump guarantees a positive ratio somewhere; keep sample max
        return max(best, 0.0)
    lo = samples[max(0, k - 1)]
    hi = samples[min(len(samples) - 1, k + 1)]
    while hi - lo > _ZOOM_XTOL:
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        r = profile.ratio(x)
        k = int(np.argmax(r))
        best = max(best, float(r[k]))
        lo_next, hi_next = x[max(0, k - 1)], x[min(_ZOOM_POINTS - 1, k + 1)]
        if hi_next - lo_next >= hi - lo:
            break  # the bracket is a few ulps wide
        lo, hi = lo_next, hi_next
    return best


def profile_metrics(profile: DensityProfile) -> dict:
    """Cached scalar metrics as a plain dict."""
    return {
        "total_jump": profile.total_jump,
        "sup_ratio": profile.sup_ratio,
        "inf_rho": profile.inf_rho,
        "sup_rho": profile.sup_rho,
    }
