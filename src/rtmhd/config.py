"""Run configuration: a JSON file with one section per subsystem.

Every invariant of the referenced modules is validated at load time, before
any computation starts; an invalid file raises ConfigError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .dispersion import default_sweep_radius
from .errors import ConfigError, RtmhdError
from .profiles import (
    DensityProfile,
    Grid1D,
    MagneticConfig,
    Orientation,
    PhysicalParams,
    ProfileSpec,
    _known_keys,
    build_profile,
)

__all__ = [
    "MAX_GRID_N",
    "MAX_LATTICE_POINTS",
    "RunConfig",
    "config_from_dict",
    "load_config",
    "read_config",
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
        if self.grid.n > MAX_GRID_N:
            raise ConfigError(f"grid n = {self.grid.n} exceeds the cap {MAX_GRID_N}")
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
            if seed in self.seeds[:k]:
                raise ConfigError(f"seed {seed} is listed twice")

    @property
    def radius(self) -> float:
        if self.sweep_radius is not None:
            return self.sweep_radius
        return default_sweep_radius(self.profile)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile_spec.to_dict(),
            "params": {"mu": self.params.mu, "g": self.params.g, "L": self.params.L},
            "mag": {
                "orientation": self.mag.orientation.value,
                "magnitude": self.mag.magnitude,
            },
            "grid": {"half_length": self.grid.half_length, "n": self.grid.n},
            "sweep": {"radius": self.sweep_radius},
            "verify": {"dt": self.verify_dt, "T": self.verify_T, "seeds": list(self.seeds)},
            "output_dir": self.output_dir,
        }


_TOP_KEYS = ("profile", "params", "mag", "grid", "sweep", "verify", "output_dir")


def _section(
    raw: dict, key: str, keys: tuple[str, ...] | None, required: bool = True
) -> dict:
    """The config section ``key``, a JSON object with no key outside keys
    (None: its reader checks them)."""
    if key not in raw:
        if required:
            raise ConfigError(f"missing key '{key}' in config")
        return {}
    if not isinstance(raw[key], dict):
        raise ConfigError(f"config section '{key}' must be a JSON object")
    if keys is None:
        return raw[key]
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


def config_from_dict(raw: dict) -> RunConfig:
    try:
        _known_keys(raw, _TOP_KEYS, "config")
        spec = ProfileSpec.from_dict(_section(raw, "profile", None))
        p = _section(raw, "params", ("mu", "g", "L"))
        params = PhysicalParams(
            _number(p["mu"], "mu"), _number(p["g"], "g"), _number(p["L"], "L")
        )
        m = _section(raw, "mag", ("orientation", "magnitude"))
        mag = MagneticConfig(
            Orientation(m["orientation"]), _number(m["magnitude"], "magnitude")
        )
        g = _section(raw, "grid", ("half_length", "n"))
        grid = Grid1D(
            _number(g["half_length"], "half_length"), _integer(g["n"], "grid n")
        )
        sweep = _section(raw, "sweep", ("radius",), required=False)
        radius = _optional_number(sweep, "radius", "sweep radius")
        verify = _section(raw, "verify", ("dt", "T", "seeds"), required=False)
        dt = _optional_number(verify, "dt", "verify dt")
        T = _optional_number(verify, "T", "verify T")
        seeds = verify.get("seeds", [0, 1, 2, 3, 4])
        seeds = tuple(_integer(s, "seed") for s in seeds)
        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for float
        raise ConfigError(f"malformed config: {exc}") from exc
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
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_config(path))
