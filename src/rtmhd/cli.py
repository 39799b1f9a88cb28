"""Batch front end: parse a config, dispatch one command, write artifacts.

Exit codes: 0 success, 2 configuration error, 3 computation error, 4 I/O
error.  On failure a machine-readable JSON object {"error", "message"} is
printed to stdout.  All artifacts are deterministic functions of the
effective configuration (random seeds are listed in the config).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dispersion, modes, verify
from .artifacts import fmt, read_json, write_csv, write_json
from .config import RunConfig, config_from_dict, read_config, setup_dict
from .errors import ConfigError, RtmhdError
from .forms import assemble_forms
from .growth import GrowthResult, growth_rate
from .profiles import Frequency, Grid1D, MagneticConfig, Orientation, profile_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4


def _parse_xi(text: str) -> Frequency:
    try:
        a, b = text.split(",")
        return Frequency(float(a), float(b))
    except ValueError as exc:
        raise ConfigError(f"--xi expects 'a,b', got {text!r}") from exc


def _effective_config(args) -> RunConfig:
    """The config file with the command-line overrides, built once."""
    raw = read_config(args.config)
    overrides = (
        ("mag", "magnitude", args.M),
        ("grid", "n", args.n),
        ("grid", "half_length", args.Lz),
        ("sweep", "radius", args.radius),
    )
    try:
        for section, key, value in overrides:
            if value is not None:
                raw.setdefault(section, {})[key] = value
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    out = args.out if args.out is not None else os.environ.get("RTMHD_OUT")
    if out is not None:
        raw["output_dir"] = out
    return config_from_dict(raw)


def _target_xi(args) -> Frequency:
    if args.xi is None:
        raise ConfigError("this command requires --xi a,b")
    xi = _parse_xi(args.xi)
    # |xi|^2 overflows or is NaN unless both components are finite
    if not np.isfinite(xi.norm2):
        raise ConfigError(f"--xi must have a finite |xi|^2, got {args.xi!r}")
    if xi.is_zero():
        raise ConfigError(f"--xi must have a nonzero |xi|^2, got {args.xi!r}")
    return xi


def cmd_profile(cfg: RunConfig, args) -> int:
    grid = cfg.grid
    xs = np.concatenate(([-grid.half_length], grid.points(), [grid.half_length]))
    rho = cfg.profile.rho(xs)
    drho = cfg.profile.drho(xs)
    rows = zip(xs.tolist(), rho.tolist(), drho.tolist())
    write_csv(os.path.join(cfg.output_dir, "profile.csv"), ("x3", "rho", "drho"), rows)
    write_json(
        os.path.join(cfg.output_dir, "profile_metrics.json"),
        profile_metrics(cfg.profile),
    )
    print(f"total_jump={fmt(cfg.profile.total_jump)}")
    return EXIT_OK


def cmd_critical(cfg: RunConfig, args) -> int:
    result = dispersion.critical_number_auto(
        cfg.profile, lz0=cfg.grid.half_length, n0=cfg.grid.n, g=cfg.params.g
    )
    trace_path = os.path.join(cfg.output_dir, "critical_trace.csv")
    write_csv(trace_path, ("Lz", "value"), result.trace)
    payload = {
        "kind": "infinite" if result.is_infinite else "finite",
        "value": result.value,
    }
    write_json(os.path.join(cfg.output_dir, "critical.json"), payload)
    print("M_c=INF" if result.is_infinite else f"M_c={fmt(result.value)}")
    for lz, v in result.trace:
        print(f"  Lz={fmt(lz)} value={fmt(v)}")
    return EXIT_OK


def cmd_freq_thresholds(cfg: RunConfig, args) -> int:
    if cfg.mag.orientation is Orientation.HORIZONTAL:
        rows = dispersion.threshold_rows(
            cfg.profile,
            cfg.grid,
            cfg.mag.magnitude,
            cfg.radius,
            cfg.params.L,
            g=cfg.params.g,
        )
        path = os.path.join(cfg.output_dir, "thresholds.csv")
        write_csv(path, ("xi1", "xi2", "S"), ((xi.xi1, xi.xi2, s) for xi, s in rows))
        print(f"wrote {path}")
    else:
        xi_vc = dispersion.critical_freq_vertical(
            cfg.profile, cfg.grid, cfg.mag.magnitude, g=cfg.params.g
        )
        payload = {"xi_vc": xi_vc, "M": cfg.mag.magnitude}
        write_json(os.path.join(cfg.output_dir, "thresholds.json"), payload)
        print(f"xi_vc={fmt(xi_vc)}")
    return EXIT_OK


def cmd_growth(cfg: RunConfig, args) -> int:
    xi = _target_xi(args)
    forms = assemble_forms(cfg.profile, cfg.grid, xi, cfg.mag, cfg.params)
    result = growth_rate(forms)
    payload = {"xi": [xi.xi1, xi.xi2], "growing": result is not None}
    if result is not None:
        payload |= {
            "lambda": result.lam,
            "s_star": result.s_star,
            "alpha": result.alpha_at_s,
            "bracket_width": result.bracket_width,
            "s_frontier": result.s_frontier,
        }
    write_json(os.path.join(cfg.output_dir, "growth.json"), payload)
    print("no growing mode" if result is None else f"lambda={fmt(result.lam)}")
    return EXIT_OK


def _sweep_stamp(cfg: RunConfig) -> dict:
    """The effective config a sweep's results depend on."""
    return {
        **setup_dict(cfg.profile_spec, cfg.params, cfg.mag, cfg.grid),
        "radius": cfg.radius,
    }


def cmd_sweep(cfg: RunConfig, args) -> int:
    table = dispersion.lattice_sweep(
        cfg.profile, cfg.grid, cfg.mag, cfg.params, cfg.radius
    )
    top = dispersion.sup_rate(table)
    dispersion.write_table(os.path.join(cfg.output_dir, "dispersion.csv"), table)
    payload = {
        "Lambda": top.lam_max,
        "Lambda_star": top.lam_star,
        "xi1": [top.xi_pair[0].xi1, top.xi_pair[0].xi2],
        "on_boundary": top.on_boundary,
        "radius": cfg.radius,
        "config": _sweep_stamp(cfg),
    }
    write_json(os.path.join(cfg.output_dir, "sweep_summary.json"), payload)
    if top.on_boundary:
        print("warning: maximum sits on the sweep boundary; increase the radius")
    print(f"Lambda={fmt(top.lam_max)}")
    print(f"xi1={fmt(top.xi_pair[0].xi1)},{fmt(top.xi_pair[0].xi2)}")
    return EXIT_OK


def _growth_at(cfg: RunConfig, xi: Frequency) -> GrowthResult:
    result = growth_rate(assemble_forms(cfg.profile, cfg.grid, xi, cfg.mag, cfg.params))
    if result is None:
        raise RtmhdError(f"xi = ({xi.xi1:g}, {xi.xi2:g}) admits no growing mode")
    return result


def cmd_mode(cfg: RunConfig, args) -> int:
    mode = modes.build_mode(_growth_at(cfg, _target_xi(args)))
    stem = os.path.join(cfg.output_dir, "mode")
    modes.export_mode(mode, stem)
    print(f"lambda={fmt(mode.lam)}")
    for name in ("eq1", "eq2", "eq3", "div"):
        print(f"residual_{name}={mode.residuals[name]:.3e}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    summary_path = os.path.join(cfg.output_dir, "sweep_summary.json")
    table_path = os.path.join(cfg.output_dir, "dispersion.csv")
    if os.path.exists(summary_path) and os.path.exists(table_path):
        # the summary is read for its stamp alone; the table is read back
        try:
            if read_json(summary_path).get("config") != _sweep_stamp(cfg):
                raise ValueError("the summary carries no stamp of this config")
            table = dispersion.read_table(table_path, cfg.radius, cfg.params, cfg.profile)
        except ValueError as exc:
            raise ConfigError(
                f"{summary_path} and {table_path} are not a sweep of this config "
                f"({exc}); rerun sweep with it or choose another output directory"
            ) from exc
    else:
        table = dispersion.lattice_sweep(
            cfg.profile, cfg.grid, cfg.mag, cfg.params, cfg.radius
        )
    xi1, _ = dispersion.sup_rate(table).xi_pair
    check = verify.cross_check(
        _growth_at(cfg, xi1), table, cfg.seeds, cfg.verify_dt, cfg.verify_T
    )
    series_path = os.path.join(cfg.output_dir, "timeseries.csv")
    verify.write_series(series_path, check.times, check.norms)
    write_json(os.path.join(cfg.output_dir, "verify.json"), check.rate)
    print(f"lambda_pred={fmt(check.rate['lambda_pred'])}")
    print(f"lambda_meas={fmt(check.rate['lambda_meas'])}")
    print(f"rel_err={check.rate['rel_err']:.3e}")
    if check.failure is not None:
        raise check.failure
    write_json(os.path.join(cfg.output_dir, "sharpness.json"), check.sharpness)
    print(f"sharpness_max={fmt(check.sharpness['max_measured_rate'])}")
    return EXIT_OK


_COMMANDS = {
    "profile": cmd_profile,
    "critical": cmd_critical,
    "freq-thresholds": cmd_freq_thresholds,
    "growth": cmd_growth,
    "sweep": cmd_sweep,
    "mode": cmd_mode,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtmhd",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--xi", help="target frequency 'a,b' (growth/mode)")
    parser.add_argument("--M", type=float, help="override field magnitude")
    parser.add_argument("--n", type=int, help="override grid point count")
    parser.add_argument("--Lz", type=float, help="override grid half length")
    parser.add_argument("--radius", type=float, help="override sweep radius")
    parser.add_argument("--out", help="override output directory (or env RTMHD_OUT)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_json(
            os.path.join(cfg.output_dir, "effective_config.json"), cfg.to_dict()
        )
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_CONFIG
    except RtmhdError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_COMPUTE
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
