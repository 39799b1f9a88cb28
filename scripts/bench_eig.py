#!/usr/bin/env python3
"""Time the eigen-solves and count their LAPACK calls (banded Cholesky tests,
dpbtrf, and banded solves, dgbsv and dgtsv, at the names ``rtmhd.eig``
calls): one cold and one warm top root of the energy pencil, one growth
rate, the thresholds commands' solves (the M_c trace, |xi|_vc and the S(xi)
rows) and a cold solve on a random pencil whose spectrum is narrower than
1e-3, for one or two source trees.

Each tree is measured in its own child process, with its ``src`` directory
on PYTHONPATH and one BLAS thread.  With ``--before``, the two trees run in
rounds that alternate which tree goes first, and each time is the median
over the rounds; the counts are deterministic and equal in every round.

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
THRESHOLD_M = 0.3  # the thresholds workload's field, n and S(xi) radius
THRESHOLD_N = 201
THRESHOLD_RADIUS = 4.0
VERTICAL_N = (201, 801)
SMALL_SCALE = 1e-3  # A of the random pencil, so its spectrum is narrower than 1e-3
SMALL_SEED, SMALL_N, SMALL_P = 0, 60, 2
LAPACK = ("dpbtrf", "dgbsv", "dgtsv")


def _top_root(eig):
    """eig.top_root; on a tree from before it, the top root of T(s) = C0 +
    s C1 as the largest eigenvalue of the pencil (-C0, C1)."""
    if hasattr(eig, "top_root"):
        return eig.top_root
    from rtmhd.operators import band_combine

    def top_root(terms, metric, lo, start=None):
        c0, c1 = terms
        return eig.max_generalized_eig(band_combine([(-1.0, c0)]), c1, start=start)

    return top_root


def measure() -> dict:
    """The numbers of the rtmhd on this process's path."""
    import numpy as np

    import rtmhd
    import rtmhd.dispersion as dispersion
    import rtmhd.eig as eig
    import rtmhd.growth as growth
    from rtmhd.forms import assemble_forms

    top_root = _top_root(eig)
    originals = {name: getattr(eig, name) for name in LAPACK}
    counts = dict.fromkeys(LAPACK, 0)

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return call

    def case(fn, repeat):
        """fn's median time over repeat calls, its LAPACK calls (counted on
        one more call) and its value."""
        ms = 1e3 * _timed(fn, repeat)
        counts.update(dict.fromkeys(LAPACK, 0))
        for name in LAPACK:
            setattr(eig, name, counted(name))
        try:
            value = fn()
        finally:
            for name in LAPACK:
                setattr(eig, name, originals[name])
        return {"ms": ms, **counts, "lapack": sum(counts.values()), "value": value}

    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
    params = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    cases = {}
    for n in SIZES:
        # alpha(s) < 0 at both s, so its negative is the top root above 0
        grid = rtmhd.Grid1D(8.0, n)
        profile = rtmhd.build_profile(spec, grid)
        forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI), mag, params)
        cap = float(np.sqrt(params.g * profile.sup_ratio))
        cold_t = (forms.energy(S_COLD * cap), forms.j)
        warm_t = (forms.energy(S_WARM * cap), forms.j)
        start = top_root(cold_t, forms.j, 0.0).vec
        cases[f"cold n={n}"] = case(
            lambda: float(top_root(cold_t, forms.j, 0.0).value), 21
        )
        cases[f"warm n={n}"] = case(
            lambda: float(top_root(warm_t, forms.j, 0.0, start=start).value), 21
        )

    grid = rtmhd.Grid1D(8.0, SIZES[0])
    profile = rtmhd.build_profile(spec, grid)
    forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI), mag, params)
    cases[f"growth_rate n={SIZES[0]}"] = case(lambda: growth.growth_rate(forms).lam, 11)

    # the thresholds workload's three commands: the M_c trace (tridiagonal
    # pencils, the grid doubling from n0 until the trace settles), |xi|_vc
    # and the S(xi) rows
    neg = rtmhd.ProfileSpec(
        5.0, (rtmhd.Bump(0.6, 1.0, 0.5), rtmhd.Bump(-1.8, -1.0, 0.5))
    )
    critical_profile = rtmhd.build_profile(neg, rtmhd.Grid1D(CRITICAL_LZ0, CRITICAL_N0))
    cases["M_c trace"] = case(
        lambda: dispersion.critical_number_auto(
            critical_profile, lz0=CRITICAL_LZ0, n0=CRITICAL_N0, g=1.0
        ).value,
        5,
    )
    for n in VERTICAL_N:
        grid = rtmhd.Grid1D(CRITICAL_LZ0, n)
        vertical_profile = rtmhd.build_profile(neg, grid)
        cases[f"|xi|_vc n={n}"] = case(
            lambda: dispersion.critical_freq_vertical(
                vertical_profile, grid, THRESHOLD_M, g=1.0
            ),
            11,
        )
    grid = rtmhd.Grid1D(CRITICAL_LZ0, THRESHOLD_N)
    rows_profile = rtmhd.build_profile(neg, grid)
    cases[f"S(xi) rows n={THRESHOLD_N}"] = case(
        lambda: sum(
            s
            for _, s in dispersion.threshold_rows(
                rows_profile, grid, THRESHOLD_M, THRESHOLD_RADIUS, 1.0, 1.0
            )
            if s is not None
        ),
        5,
    )

    rng = np.random.default_rng(SMALL_SEED)
    a = rng.standard_normal((SMALL_P + 1, SMALL_N)) * SMALL_SCALE
    b = rng.standard_normal((SMALL_P + 1, SMALL_N)) * 0.3
    b[0] = np.abs(b[0]) + SMALL_P + 1.5  # diagonally dominant -> SPD
    lo = -float(np.min(a[0] / b[0])) - 1e-9  # minus a Rayleigh quotient, less a margin
    cases[f"cold A*{SMALL_SCALE:g} n={SMALL_N}"] = case(
        lambda: -float(top_root((a, b), b, lo).value), 21
    )
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
            "s_cold": f"{S_COLD} * rate cap; value is -alpha, the top root",
            "s_warm": f"{S_WARM} * rate cap, started from the cold vector",
            "critical": f"JUMP_NEG_SPEC, n0 = {CRITICAL_N0}, Lz0 = {CRITICAL_LZ0}",
            "vertical": f"JUMP_NEG_SPEC, vertical field M = {THRESHOLD_M}",
            "rows": (
                f"JUMP_NEG_SPEC, horizontal field M = {THRESHOLD_M}, radius "
                f"{THRESHOLD_RADIUS}; value is the sum of the thresholds"
            ),
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
