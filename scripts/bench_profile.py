#!/usr/bin/env python3
"""Time and trace the memory of the density-profile build and of one large
ratio evaluation, for one or two source trees.

For each profile spec (the canonical one and the negative-jump one) and
each grid size, two numbers are timed, each with the points at which rho
is evaluated: ``build_profile`` alone (a load), and ``build_profile`` plus
the first read of ``inf_rho``, ``sup_rho`` and ``sup_ratio``; a tree that
computes the metrics at load shows the same work twice, one that defers
them shows it moved into the read.  The tracemalloc peak is that of the
load plus the read.  ``critical_number_auto`` on the negative-jump profile
(Lz0 = 8, g = 1), with its load, is timed at n0 = 2 049 and 20 001.
``ratio`` is timed and traced on 200 001 points across [-8, 8].  One
``assemble_forms`` call, which reads the profile, is timed at n = 201 and
801 (M = 0, the mean over 16 lattice frequencies).  Each tree is measured
in its own child process, with its ``src`` directory on PYTHONPATH and one
BLAS thread.  With ``--before``, the two trees run in rounds that
alternate which tree goes first, and each number is the median over the
rounds.

Usage:
    python scripts/bench_profile.py [--before OTHER/src] [--out FILE]
"""

import argparse
import json
import os
import platform
import tracemalloc
from pathlib import Path

from bench_cn_step import _cpu_model, _median, _run_rounds, _run_tree, _timed

SIZES = (201, 801, 20001)
SPECS = {
    "canonical": (1.0, ((0.5, 0.0, 1.0),)),
    "jump-neg": (5.0, ((0.6, 1.0, 0.5), (-1.8, -1.0, 0.5))),
}
CRITICAL_N0 = (2049, 20001)
RATIO_POINTS = 200_001
RATIO_GRID_N = 801
ASSEMBLY_SIZES = (201, 801)
REPEAT = 5
METRICS = ("inf_rho", "sup_rho", "sup_ratio")


def _peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MB (10^6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure() -> dict:
    """The numbers of the rtmhd on this process's path."""
    import numpy as np

    import rtmhd
    from rtmhd.forms import assemble_forms

    specs = {
        name: rtmhd.ProfileSpec(base, tuple(rtmhd.Bump(*b) for b in bumps))
        for name, (base, bumps) in SPECS.items()
    }
    rho = rtmhd.DensityProfile.rho
    counted = {"points": 0}

    def counting_rho(self, x):
        counted["points"] += np.size(x)
        return rho(self, x)

    def counts(fn) -> int:
        """The rho points of one call."""
        rtmhd.DensityProfile.rho = counting_rho
        counted["points"] = 0
        try:
            fn()
        finally:
            rtmhd.DensityProfile.rho = rho
        return counted["points"]

    builds = {}
    for name, spec in specs.items():
        for n in SIZES:
            grid = rtmhd.Grid1D(8.0, n)

            def load():
                return rtmhd.build_profile(spec, grid)

            def load_read():
                profile = rtmhd.build_profile(spec, grid)
                return [getattr(profile, metric) for metric in METRICS]

            load_read()
            builds[f"{name} n={n}"] = {
                "load_ms": 1e3 * _timed(load, REPEAT),
                "load_rho_points": counts(load),
                "load_read_ms": 1e3 * _timed(load_read, REPEAT),
                "load_read_rho_points": counts(load_read),
                "peak_mb": _peak_mb(load_read),
            }

    critical = {}
    for n0 in CRITICAL_N0:

        def load_critical():
            profile = rtmhd.build_profile(specs["jump-neg"], rtmhd.Grid1D(8.0, n0))
            return rtmhd.critical_number_auto(profile, lz0=8.0, n0=n0, g=1.0)

        load_critical()
        critical[f"n0={n0}"] = {
            "ms": 1e3 * _timed(load_critical, REPEAT),
            "rho_points": counts(load_critical),
        }

    spec = specs["canonical"]
    profile = rtmhd.build_profile(spec, rtmhd.Grid1D(8.0, RATIO_GRID_N))
    x = np.linspace(-8.0, 8.0, RATIO_POINTS)
    profile.ratio(x)
    ratio = {
        "ms": 1e3 * _timed(lambda: profile.ratio(x), REPEAT),
        "peak_mb": _peak_mb(lambda: profile.ratio(x)),
    }

    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    params = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
    xis = [rtmhd.Frequency(i, j) for i in range(1, 5) for j in range(4)]
    assembly = {}
    for n in ASSEMBLY_SIZES:
        grid = rtmhd.Grid1D(8.0, n)
        profile = rtmhd.build_profile(spec, grid)

        def assemble_all():
            for xi in xis:
                assemble_forms(profile, grid, xi, mag, params)

        assemble_all()
        assembly[f"n={n}"] = {"ms": 1e3 * _timed(assemble_all, REPEAT) / len(xis)}
    return {
        "build_profile": builds,
        "critical_number_auto": critical,
        "ratio": ratio,
        "assemble_forms": assembly,
    }


def _merge(rounds: list[dict]) -> dict:
    """Median of every number over the rounds; the point counts are equal in each."""

    def median_rows(section: str) -> dict:
        rows = rounds[0][section]
        return {
            key: {field: _median([r[section][key][field] for r in rounds]) for field in row}
            for key, row in rows.items()
        }

    return {
        "build_profile": median_rows("build_profile"),
        "critical_number_auto": median_rows("critical_number_auto"),
        "ratio": {
            field: _median([r["ratio"][field] for r in rounds])
            for field in rounds[0]["ratio"]
        },
        "assemble_forms": median_rows("assemble_forms"),
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--before", type=Path, help="src directory of the tree to compare with"
    )
    parser.add_argument("--out", default="BENCH_profile.json", help="default: %(default)s")
    parser.add_argument("--rounds", type=int, default=5, help="default: %(default)s")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return

    script = Path(__file__).resolve()
    trees = {"after": script.parent.parent / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    rounds = _run_rounds(trees, args.rounds, lambda src: _run_tree(src, script))
    import numpy
    import scipy

    report = {
        "machine": {
            "cpu": _cpu_model(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "setup": {
            "specs": {
                "canonical": "base 1.0, one bump (amp 0.5, center 0, half_width 1)",
                "jump-neg": "base 5.0, bumps (0.6, 1.0, 0.5) and (-1.8, -1.0, 0.5) "
                "as (amp, center, half_width)",
            },
            "half_length": 8.0,
            "sizes": list(SIZES),
            "load": "build_profile alone",
            "load_read": "build_profile, then the first read of " + ", ".join(METRICS),
            "critical": "build_profile and critical_number_auto on jump-neg, "
            "Lz0 = 8, g = 1",
            "critical_n0": list(CRITICAL_N0),
            "ratio_points": RATIO_POINTS,
            "ratio_grid_n": RATIO_GRID_N,
            "assembly_sizes": list(ASSEMBLY_SIZES),
            "assembly": "M = 0 horizontal, mean over xi = (i, j), i = 1..4, j = 0..3",
            "repeat": REPEAT,
            "rounds": max(1, args.rounds),
            "statistic": "median",
            "peak": "tracemalloc peak of one call, MB = 10^6 bytes",
        },
        **{label: _merge(r) for label, r in rounds.items()},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for label in trees:
        print(f"{label}:")
        for key, row in report[label]["build_profile"].items():
            print(
                f"  build_profile {key:18s} load {row['load_ms']:8.2f} ms "
                f"({row['load_rho_points']} rho points)  + read "
                f"{row['load_read_ms']:8.2f} ms ({row['load_read_rho_points']} points)"
                f"  peak {row['peak_mb']:7.2f} MB"
            )
        for key, row in report[label]["critical_number_auto"].items():
            print(
                f"  critical_number_auto {key:9s} {row['ms']:8.2f} ms  "
                f"rho at {row['rho_points']} points"
            )
        row = report[label]["ratio"]
        print(
            f"  ratio on {RATIO_POINTS} points {row['ms']:8.2f} ms  "
            f"peak {row['peak_mb']:7.2f} MB"
        )
        for key, row in report[label]["assemble_forms"].items():
            print(f"  assemble_forms {key:8s} {row['ms']:8.3f} ms")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
