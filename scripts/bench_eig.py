#!/usr/bin/env python3
"""Time and count the eigen-solves: one cold and one warm solve of the
energy pencil, one growth rate (its banded Cholesky tests, banded solves
and alpha solves), the thresholds' M_c trace, and two cold solves that take
the second pass (the |xi|_vc pencil and a small-spectrum random pencil), for
one or two source trees.

Each tree is measured in its own child process, with its ``src`` directory
on PYTHONPATH and one BLAS thread.  With ``--before``, the two trees run in
rounds that alternate which tree goes first, and each time is the median
over the rounds; iteration counts are deterministic and equal in every
round.

Usage:
    python scripts/bench_eig.py [--before OTHER/src] [--out FILE]
"""

import argparse
import json
import os
import platform
from pathlib import Path

from bench_cn_step import _cpu_model, _median, _run_rounds, _run_tree, _timed

ROOT = Path(__file__).resolve().parent.parent
SIZES = (201, 801)
XI = (1.0, 1.0)
S_COLD = 1e-8  # times the rate cap sqrt(g sup rho'/rho), as growth_rate's s_lo
S_WARM = 0.1  # the warm solve starts from the cold solve's vector
CRITICAL_N0 = 17  # the thresholds workload's M_c trace
CRITICAL_LZ0 = 8.0
VERTICAL_N = 801
M_HALF_CRITICAL = 0.5 * 0.5938125387139516  # half of JUMP_NEG_SPEC's M_c
SMALL_SCALE = 1e-3  # A of the random pencil, so its spectrum is narrower than 1e-3
SMALL_SEED, SMALL_N, SMALL_P = 0, 60, 2


def measure() -> dict:
    """The numbers of the rtmhd on this process's path."""
    import numpy as np

    import rtmhd
    import rtmhd.dispersion as dispersion
    import rtmhd.eig as eig
    import rtmhd.growth as growth
    from rtmhd.eig import min_generalized_eig
    from rtmhd.forms import assemble_forms

    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
    params = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    cases = {}
    for n in SIZES:
        grid = rtmhd.Grid1D(8.0, n)
        profile = rtmhd.build_profile(spec, grid)
        forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI), mag, params)
        cap = float(np.sqrt(params.g * profile.sup_ratio))
        cold_a, warm_a = forms.energy(S_COLD * cap), forms.energy(S_WARM * cap)
        cold = min_generalized_eig(cold_a, forms.j)
        warm = min_generalized_eig(warm_a, forms.j, start=cold.vec)
        cases[f"cold n={n}"] = {
            "ms": 1e3 * _timed(lambda: min_generalized_eig(cold_a, forms.j), 21),
            "iterations": cold.iterations,
            "value": cold.value,
        }
        cases[f"warm n={n}"] = {
            "ms": 1e3 * _timed(
                lambda: min_generalized_eig(warm_a, forms.j, start=cold.vec), 21
            ),
            "iterations": warm.iterations,
            "value": warm.value,
        }

    # one growth rate at n = 201, its work counted at the LAPACK names eig.py
    # calls (banded Cholesky tests and banded solves) and its alpha solves
    grid = rtmhd.Grid1D(8.0, SIZES[0])
    profile = rtmhd.build_profile(spec, grid)
    forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI), mag, params)
    wrapped = [(eig, name) for name in ("dpbtrf", "dgbsv", "dgtsv")]
    wrapped.append((growth, "min_generalized_eig"))
    counts = dict.fromkeys((name for _, name in wrapped), 0)
    originals = [getattr(module, name) for module, name in wrapped]

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for (module, name), real in zip(wrapped, originals):
        setattr(module, name, counted(name, real))
    try:
        result = growth.growth_rate(forms)
    finally:
        for (module, name), real in zip(wrapped, originals):
            setattr(module, name, real)
    cases[f"growth_rate n={SIZES[0]}"] = {
        "ms": 1e3 * _timed(lambda: growth.growth_rate(forms), 11),
        **counts,
        "value": result.lam,
    }

    # the M_c trace of the thresholds workload: tridiagonal pencils, the
    # grid doubling from n0 until the trace settles
    neg = rtmhd.ProfileSpec(
        5.0, (rtmhd.Bump(0.6, 1.0, 0.5), rtmhd.Bump(-1.8, -1.0, 0.5))
    )
    critical_profile = rtmhd.build_profile(neg, rtmhd.Grid1D(CRITICAL_LZ0, CRITICAL_N0))
    counts = {"solves": 0, "iterations": 0, "largest_n": 0}
    solve = dispersion.max_generalized_eig

    def counted_max(a, b, *args, **kwargs):
        pair = solve(a, b, *args, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += pair.iterations
        counts["largest_n"] = max(counts["largest_n"], a.shape[1])
        return pair

    def trace():
        return dispersion.critical_number_auto(
            critical_profile, lz0=CRITICAL_LZ0, n0=CRITICAL_N0, g=1.0
        )

    dispersion.max_generalized_eig = counted_max
    try:
        critical = trace()
    finally:
        dispersion.max_generalized_eig = solve
    cases["M_c trace"] = {
        "ms": 1e3 * _timed(trace, 5),
        **counts,
        "value": critical.value,
    }

    # cold solves that fail the first pass's certificate and take the second
    # pass: the ill-conditioned |xi|_vc pencil, and a random pencil whose
    # whole spectrum is narrower than the coarse bracket width
    def second_passes(solve):
        widths = []
        bisect = eig._bisect

        def recording(a, b, lo, hi, width):
            widths.append(width)
            return bisect(a, b, lo, hi, width)

        eig._bisect = recording
        try:
            pair = solve()
        finally:
            eig._bisect = bisect
        return pair, len(widths) - 1

    grid = rtmhd.Grid1D(CRITICAL_LZ0, VERTICAL_N)
    vertical_profile = rtmhd.build_profile(neg, grid)
    counts = {"solves": 0, "iterations": 0, "largest_n": 0}

    def vertical():
        return dispersion.critical_freq_vertical(
            vertical_profile, grid, M_HALF_CRITICAL, g=1.0
        )

    dispersion.max_generalized_eig = counted_max
    try:
        xi_vc, passes = second_passes(vertical)
    finally:
        dispersion.max_generalized_eig = solve
    cases[f"|xi|_vc n={VERTICAL_N}"] = {
        "ms": 1e3 * _timed(vertical, 11),
        **counts,
        "second_passes": passes,
        "value": xi_vc,
    }

    rng = np.random.default_rng(SMALL_SEED)
    a = rng.standard_normal((SMALL_P + 1, SMALL_N)) * SMALL_SCALE
    b = rng.standard_normal((SMALL_P + 1, SMALL_N)) * 0.3
    b[0] = np.abs(b[0]) + SMALL_P + 1.5  # diagonally dominant -> SPD
    small, passes = second_passes(lambda: min_generalized_eig(a, b))
    cases[f"cold A*{SMALL_SCALE:g} n={SMALL_N}"] = {
        "ms": 1e3 * _timed(lambda: min_generalized_eig(a, b), 21),
        "iterations": small.iterations,
        "second_passes": passes,
        "value": small.value,
    }
    return cases


def _merge(rounds: list[dict]) -> dict:
    """Median of every time over the rounds; counts and values are equal in each."""
    return {
        key: {**row, "ms": _median([r[key]["ms"] for r in rounds])}
        for key, row in rounds[0].items()
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--before", type=Path, help="src directory of the tree to compare with"
    )
    parser.add_argument("--out", default="BENCH_eig.json", help="default: %(default)s")
    parser.add_argument("--rounds", type=int, default=3, help="default: %(default)s")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return

    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    script = Path(__file__).resolve()
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
            "profile": "configs/canonical.json's, half length 8, M = 0",
            "xi": list(XI),
            "s_cold": f"{S_COLD} * rate cap",
            "s_warm": f"{S_WARM} * rate cap, started from the cold vector",
            "critical": f"JUMP_NEG_SPEC, n0 = {CRITICAL_N0}, Lz0 = {CRITICAL_LZ0}",
            "vertical": f"JUMP_NEG_SPEC, vertical field M = {M_HALF_CRITICAL!r}",
            "small_spectrum": (
                f"seed {SMALL_SEED}, n = {SMALL_N}, p = {SMALL_P}, "
                f"A scaled by {SMALL_SCALE:g}"
            ),
            "rounds": max(1, args.rounds),
            "statistic": "median",
        },
        **{label: _merge(r) for label, r in rounds.items()},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for label in trees:
        print(f"{label}:")
        for key, row in report[label].items():
            work = {k: v for k, v in row.items() if k not in ("ms", "value")}
            print(f"  {key:22s} {row['ms']:8.3f} ms  {work}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
