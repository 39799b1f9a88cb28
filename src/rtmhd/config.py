"""Run configuration: a JSON file with one section per subsystem.

Every invariant of the referenced modules is validated at load time, before
any computation starts; an invalid file raises ConfigError.

The run setup (the ``profile``, ``params``, ``mag`` and ``grid`` sections)
has one JSON format, written by ``setup_dict`` and read by ``read_setup``:
the config, the stamp of a sweep and an exported mode all carry it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .artifacts import read_json
from .dispersion import default_sweep_radius
from .errors import ConfigError, RtmhdError
from .profiles import (
    Bump,
    DensityProfile,
    Grid1D,
    MagneticConfig,
    Orientation,
    PhysicalParams,
    ProfileSpec,
    build_profile,
)

__all__ = [
    "MAX_GRID_N",
    "MAX_LATTICE_POINTS",
    "RunConfig",
    "config_from_dict",
    "load_config",
    "read_config",
    "read_setup",
    "setup_dict",
]

# Fixed bounds on the work one config may ask for, checked before any
# array is built: the grid size, and the lattice disc pi (radius L)^2 of
# the sweep and the threshold table.
MAX_GRID_N = 20_001
MAX_LATTICE_POINTS = 50_000


@dataclass
class RunConfig:
    profile_spec: ProfileSpec
    params: PhysicalParams
    mag: MagneticConfig
    grid: Grid1D
    sweep_radius: float | None
    verify_dt: float | None
    verify_T: float | None
    seeds: tuple[int, ...]
    output_dir: str
    profile: DensityProfile = field(init=False)

    def __post_init__(self):
        try:
            self.profile = build_profile(self.profile_spec, self.grid)
        except (RtmhdError, ValueError) as exc:
            raise ConfigError(f"profile rejected: {exc}") from exc
        if self.sweep_radius is not None and not 0 < self.sweep_radius < math.inf:
            raise ConfigError("sweep radius must be positive and finite")
        side = self.radius * self.params.L
        lattice = math.pi * side * side  # inf, not OverflowError, when huge
        if lattice > MAX_LATTICE_POINTS:
            raise ConfigError(
                f"sweep lattice pi (radius L)^2 = {lattice:.6g} exceeds the cap "
                f"{MAX_LATTICE_POINTS} points"
            )
        if self.verify_dt is not None and not 0 < self.verify_dt < math.inf:
            raise ConfigError("verify dt must be positive and finite")
        if self.verify_T is not None and not 0 < self.verify_T < math.inf:
            raise ConfigError("verify T must be positive and finite")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for k, seed in enumerate(self.seeds):
            if seed < 0:
                raise ConfigError(f"seed {seed} is negative")
            if seed in self.seeds[:k]:
                raise ConfigError(f"seed {seed} is listed twice")

    @property
    def radius(self) -> float:
        if self.sweep_radius is not None:
            return self.sweep_radius
        return default_sweep_radius(self.profile)

    def to_dict(self) -> dict:
        return {
            **setup_dict(self.profile_spec, self.params, self.mag, self.grid),
            "sweep": {"radius": self.sweep_radius},
            "verify": {"dt": self.verify_dt, "T": self.verify_T, "seeds": list(self.seeds)},
            "output_dir": self.output_dir,
        }


def setup_dict(
    spec: ProfileSpec, params: PhysicalParams, mag: MagneticConfig, grid: Grid1D
) -> dict:
    """The ``profile``, ``params``, ``mag`` and ``grid`` sections of a setup,
    which ``read_setup`` reads back bitwise."""
    bumps = [
        {"amp": b.amplitude, "center": b.center, "half_width": b.half_width}
        for b in spec.bumps
    ]
    return {
        "profile": {"base_density": spec.base_density, "bumps": bumps},
        "params": {"mu": params.mu, "g": params.g, "L": params.L},
        "mag": {"orientation": mag.orientation.value, "magnitude": mag.magnitude},
        "grid": {"half_length": grid.half_length, "n": grid.n},
    }


_TOP_KEYS = ("profile", "params", "mag", "grid", "sweep", "verify", "output_dir")
_BUMP_KEYS = ("amp", "center", "half_width")


def _known_keys(obj, keys: tuple[str, ...], where: str) -> dict:
    """obj, which must be a JSON object with no key outside keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return obj


def _section(raw: dict, key: str, keys: tuple[str, ...], required: bool = True) -> dict:
    """The config section ``key``, a JSON object with no key outside keys."""
    if key not in raw:
        if required:
            raise ConfigError(f"missing key '{key}' in config")
        return {}
    return _known_keys(raw[key], keys, f"config section '{key}'")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """``value`` as a float; a string or a boolean is rejected rather than
    coerced."""
    if not _is_number(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """``value`` as an int; a string, a boolean or a number with a
    fractional part is rejected rather than coerced or truncated."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not _is_number(value) or fractional:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _optional_number(section: dict, key: str, what: str) -> float | None:
    value = section.get(key)
    return None if value is None else _number(value, what)


# a malformed value that the checks above let through fails in a constructor
# or a lookup; OverflowError: an integer too large for float
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def read_setup(raw: dict) -> tuple[ProfileSpec, PhysicalParams, MagneticConfig, Grid1D]:
    """The records of the setup sections of ``raw``, the format ``setup_dict``
    writes.  ConfigError unless each section and each bump is a JSON object
    of known keys, every value a finite JSON number the record accepts,
    ``grid.n`` an integer of at most ``MAX_GRID_N``, and the orientation
    one of the field's."""
    try:
        p = _section(raw, "profile", ("base_density", "bumps"))
        bumps = []
        for k, b in enumerate(p["bumps"]):
            _known_keys(b, _BUMP_KEYS, f"bump {k}")
            bumps.append(Bump(*(_number(b[key], f"bump {k} {key}") for key in _BUMP_KEYS)))
        spec = ProfileSpec(_number(p["base_density"], "base_density"), tuple(bumps))
        q = _section(raw, "params", ("mu", "g", "L"))
        params = PhysicalParams(*(_number(q[key], key) for key in ("mu", "g", "L")))
        m = _section(raw, "mag", ("orientation", "magnitude"))
        mag = MagneticConfig(
            Orientation(m["orientation"]), _number(m["magnitude"], "magnitude")
        )
        g = _section(raw, "grid", ("half_length", "n"))
        grid = Grid1D(
            _number(g["half_length"], "half_length"), _integer(g["n"], "grid n")
        )
    except _MALFORMED as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if grid.n > MAX_GRID_N:
        raise ConfigError(f"grid n = {grid.n} exceeds the cap {MAX_GRID_N}")
    return spec, params, mag, grid


def config_from_dict(raw: dict) -> RunConfig:
    _known_keys(raw, _TOP_KEYS, "config")
    spec, params, mag, grid = read_setup(raw)
    try:
        sweep = _section(raw, "sweep", ("radius",), required=False)
        radius = _optional_number(sweep, "radius", "sweep radius")
        verify = _section(raw, "verify", ("dt", "T", "seeds"), required=False)
        dt = _optional_number(verify, "dt", "verify dt")
        T = _optional_number(verify, "T", "verify T")
        seeds = tuple(_integer(s, "seed") for s in verify.get("seeds", [0, 1, 2, 3, 4]))
    except _MALFORMED as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    try:  # the OS takes neither a NUL nor a lone surrogate in a path
        if b"\0" in os.fsencode(output_dir):
            raise ValueError("embedded null byte")
    except ValueError as exc:
        raise ConfigError(f"output_dir {output_dir!r} is not a path: {exc}") from exc
    return RunConfig(
        profile_spec=spec,
        params=params,
        mag=mag,
        grid=grid,
        sweep_radius=radius,
        verify_dt=dt,
        verify_T=T,
        seeds=seeds,
        output_dir=output_dir,
    )


def read_config(path: str) -> dict:
    """The raw JSON object of a config file, before any validation."""
    try:
        return read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not a JSON object: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_config(path))
