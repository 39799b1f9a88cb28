#!/usr/bin/env python3
"""Time and count every layer rtmhd computes its linear modes with, for one
or two source trees: start-up, profile build and form assembly, one
definiteness test, one top-root solve, one sweep point, mode reconstruction,
one Crank-Nicolson factor and step, and the M_c truncation trace.

Each case reports the median time of its repeats, after one warm-up call,
and the work counts of one more call: the LAPACK calls at the names
``rtmhd.eig`` calls (dpbtrf, dgbsv, dgtsv), Crank-Nicolson factors and
steps, the points at which rho is evaluated, and the profiles, form sets
and normal modes built.  Start-up counts the modules a fresh process loads.
Each tree is measured in its own child process, with its ``src`` directory
on PYTHONPATH and one BLAS thread.  With ``--before``, the two trees run in
rounds that alternate which tree goes first; every time is the median over
the rounds, and every count must be equal in every round.

Usage:
    python scripts/bench_layers.py [--before OTHER/src] [--rounds N] [--out FILE]
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# (spec name) -> (base density, bumps as (amp, center, half_width))
SPECS = {
    "canonical": (1.0, ((0.5, 0.0, 1.0),)),
    "jump-neg": (5.0, ((0.6, 1.0, 0.5), (-1.8, -1.0, 0.5))),
}
HALF_LENGTH = 8.0
PROFILE_SIZES = (201, 801, 20001)
METRICS = ("inf_rho", "sup_rho", "sup_ratio")
RATIO_POINTS, RATIO_GRID_N = 200_001, 801
SOLVE_SIZES = (201, 801)  # assembly, definiteness, top roots, CN
LOAD_N0 = (2049, 20001)  # critical_number_auto with its load
XI_EIG = (1.0, 1.0)
S_COLD = 1e-8  # times the rate cap sqrt(g sup rho'/rho), as growth_rate's s_lo
S_WARM = 0.1  # the warm solve starts from the cold solve's vector
CRITICAL_N0 = 17  # the thresholds workload's M_c trace, at Lz0 = HALF_LENGTH
THRESHOLD_M, THRESHOLD_N, THRESHOLD_RADIUS = 0.3, 201, 4.0
G_NEG = 1.0  # g of the jump-neg cases, as in the thresholds workload
NARROW = (0, 60, 2, 1e-3)  # seed, n, half bandwidth and the scale of A
XI_POINT = (1.0, 0.0)  # the sweep point and its mode
POINT_N = 201
POINT_SETUPS = (("canonical", 0.0), ("anisotropic", 0.3))  # horizontal M
CN_CASES = (("h-M0", "horizontal", 0.0), ("h-M0.3", "horizontal", 0.3),
            ("v-M0.3", "vertical", 0.3))
XI_CN, DT, COLUMNS = (1.0, 2.0), 0.01, 5
# every constant above, as the report's setup
SETUP = {name.lower(): value for name, value in list(globals().items()) if name.isupper()}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "configs" / "canonical.json"

# (module, attribute, count): the names the package does its work through,
# counted on one call of a case.  A renamed name raises AttributeError here
# instead of counting 0.
WORK = (
    ("rtmhd.eig", "dpbtrf", "dpbtrf"),
    ("rtmhd.eig", "dgbsv", "dgbsv"),
    ("rtmhd.eig", "dgtsv", "dgtsv"),
    ("rtmhd.verify", "LinearEvolver.__init__", "cn_factors"),
    ("rtmhd.verify", "LinearEvolver.step", "cn_steps"),
    ("rtmhd.profiles", "DensityProfile.rho", "rho_points"),
    ("rtmhd.profiles", "DensityProfile.__init__", "profiles"),
    ("rtmhd.forms", "FormSet.__init__", "forms"),
    ("rtmhd.modes", "NormalMode.__init__", "modes"),
)

# a cold start: timed in the child from before the first rtmhd import to
# after the canonical config (and with it the profile) is loaded
STARTUP = """
import json, sys, time
t0 = time.perf_counter()
import rtmhd.cli
from rtmhd.config import load_config
load_config(sys.argv[1])
elapsed = time.perf_counter() - t0
print(json.dumps({
    "import_s": elapsed,
    "counts": {
        "modules": len(sys.modules),
        "scipy_modules": sum(m.split(".")[0] == "scipy" for m in sys.modules),
    },
    "scipy_subpackages": sorted(
        m[6:] for m, mod in sys.modules.items()
        if m.count(".") == 1 and m.startswith("scipy.") and not m.startswith("scipy._")
        and hasattr(mod, "__path__")
    ),
}))
"""


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MB (10^6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _counted(fn) -> dict:
    """The work counts of one call of fn."""
    import numpy as np

    counts = dict.fromkeys((count for *_, count in WORK), 0)
    saved = []
    try:
        for module, attr, count in WORK:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)

            def call(*args, _original=original, _count=count, **kwargs):
                counts[_count] += int(np.size(args[1])) if _count == "rho_points" else 1
                return _original(*args, **kwargs)

            setattr(owner, name, call)
            saved.append((owner, name, original))
        fn()
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    return counts


def _env(pythonpath: str) -> dict:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _startup() -> dict:
    """One cold start of the rtmhd this process would import; s is the wall
    time of the whole child process."""
    src = Path(importlib.util.find_spec("rtmhd").origin).parent.parent
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP, str(CONFIG)],
        env=_env(str(src)), capture_output=True, text=True, check=True,
    )
    return {"s": time.perf_counter() - t0, **json.loads(proc.stdout)}


def measure(quick: bool = False) -> dict:
    """Every case of the rtmhd on this process's path: its median time s
    over its repeats after one warm-up call, and the work counts of one more
    call.  ``quick`` runs each case once, counted, at its smallest sizes."""
    cases = {"startup": _startup()}

    import numpy as np

    import rtmhd
    from rtmhd import dispersion, eig, growth, modes, profiles, verify
    from rtmhd.cli import main as cli
    from rtmhd.forms import assemble_forms

    def sizes(values):
        return values[:1] if quick else values

    def case(name, fn, repeat, peak=False):
        if not quick:
            fn()
        t0 = time.perf_counter()
        counts = _counted(fn)
        times = [time.perf_counter() - t0] if quick else [_seconds(fn) for _ in range(repeat)]
        cases[name] = {"counts": counts, "s": _median(times)}
        if peak:
            cases[name]["peak_mb"] = _peak_mb(fn)

    specs = {
        name: rtmhd.ProfileSpec(base, tuple(rtmhd.Bump(*b) for b in bumps))
        for name, (base, bumps) in SPECS.items()
    }
    canonical, jump_neg = specs["canonical"], specs["jump-neg"]
    params = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)

    def horizontal(M):
        return rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, M)

    def setup(spec, n):
        grid = rtmhd.Grid1D(HALF_LENGTH, n)
        return grid, profiles.build_profile(spec, grid)

    # profile build and form assembly: a load alone, a load plus the first
    # read of every metric, one large ratio, and 16 form sets
    for name, spec in specs.items():
        for n in sizes(PROFILE_SIZES):
            grid = rtmhd.Grid1D(HALF_LENGTH, n)
            case(f"profile.load {name} n={n}",
                 lambda: profiles.build_profile(spec, grid), 5)

            def load_read():
                profile = profiles.build_profile(spec, grid)
                return [getattr(profile, metric) for metric in METRICS]

            case(f"profile.load_read {name} n={n}", load_read, 5, peak=True)
    _, profile = setup(canonical, RATIO_GRID_N)
    x = np.linspace(-HALF_LENGTH, HALF_LENGTH, RATIO_POINTS)
    case(f"profile.ratio {RATIO_POINTS} points", lambda: profile.ratio(x), 5, peak=True)
    xis = [rtmhd.Frequency(i, j) for i in range(1, 5) for j in range(4)]
    for n in sizes(SOLVE_SIZES):
        grid, profile = setup(canonical, n)
        case(f"forms.assemble 16 xi n={n}",
             lambda: [assemble_forms(profile, grid, xi, horizontal(0.0), params)
                      for xi in xis], 5)

    # one definiteness test: canonical E0 at the membership test's shift
    for n in sizes(SOLVE_SIZES):
        grid, profile = setup(canonical, n)
        forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI_POINT),
                               horizontal(0.0), params)
        shift = -1e-12 * params.g * profile.sup_ratio
        case(f"definite E0 n={n}", lambda: eig.definite(forms.e0, forms.mass, shift), 21)

    # one top-root solve: alpha(s) < 0 at both s, so -alpha is the top root
    # of the energy pencil above 0; a growth rate; the thresholds commands'
    # |xi|_vc and S(xi) rows; a pencil whose spectrum is narrower than 1e-3
    for n in sizes(SOLVE_SIZES):
        grid, profile = setup(canonical, n)
        forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI_EIG),
                               horizontal(0.0), params)
        cap = math.sqrt(params.g * profile.sup_ratio)
        cold = (forms.energy(S_COLD * cap), forms.j)
        warm = (forms.energy(S_WARM * cap), forms.j)
        start = eig.top_root(cold, forms.j, 0.0).vec
        case(f"top_root.cold n={n}", lambda: eig.top_root(cold, forms.j, 0.0), 21)
        case(f"top_root.warm n={n}",
             lambda: eig.top_root(warm, forms.j, 0.0, start=start), 21)
        if n == SOLVE_SIZES[0]:
            case(f"top_root.growth_rate n={n}", lambda: growth.growth_rate(forms), 11)
    for n in sizes(SOLVE_SIZES):
        grid, profile = setup(jump_neg, n)
        case(f"top_root.xi_vc n={n}", lambda: dispersion.critical_freq_vertical(
            profile, grid, THRESHOLD_M, g=G_NEG), 11)
    grid, profile = setup(jump_neg, THRESHOLD_N)
    case(f"top_root.S_rows n={THRESHOLD_N}", lambda: list(dispersion.threshold_rows(
        profile, grid, THRESHOLD_M, THRESHOLD_RADIUS, 1.0, G_NEG)), 5)
    seed, n, p, scale = NARROW
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p + 1, n)) * scale
    b = rng.standard_normal((p + 1, n)) * 0.3
    b[0] = np.abs(b[0]) + p + 1.5  # diagonally dominant -> SPD
    lo = -float(np.min(a[0] / b[0])) - 1e-9  # minus a Rayleigh quotient, less a margin
    case(f"top_root.narrow n={n}", lambda: eig.top_root((a, b), b, lo), 21)

    # one sweep point as lattice_sweep solves a form key, and its mode (the
    # residual gate is not part of the reconstruction, so it is not applied)
    for label, M in POINT_SETUPS:
        grid, profile = setup(canonical, POINT_N)

        def point():
            forms = assemble_forms(profile, grid, rtmhd.Frequency(*XI_POINT),
                                   horizontal(M), params)
            return dispersion.in_growing_domain(forms) and growth.growth_rate(forms)

        case(f"sweep_point {label} n={POINT_N}", point, 11)
        rate = point()
        case(f"mode {label} n={POINT_N}",
             lambda: modes.build_mode(rate, mode_tol=math.inf), 11)

    # one Crank-Nicolson factor and one step of COLUMNS seeded states, and
    # the whole canonical verify after its sweep
    for n in sizes(SOLVE_SIZES):
        grid, profile = setup(canonical, n)
        xi = rtmhd.Frequency(*XI_CN)
        z = verify._seed_block(grid, xi, [verify._seed_profiles(grid, s)
                                          for s in range(COLUMNS)])
        for label, orientation, M in CN_CASES:
            mag = rtmhd.MagneticConfig(rtmhd.Orientation(orientation), M)

            def factor():
                return verify.LinearEvolver(profile, mag, params, grid, xi, DT)

            stepper = factor()
            case(f"cn.factor {label} n={n}", factor, 7)
            case(f"cn.step {label} n={n}", lambda: stepper.step(z), 100)
    with tempfile.TemporaryDirectory() as out:

        def run(command):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli([command, str(CONFIG), "--out", out])
            if code != 0:
                raise SystemExit(f"canonical {command} exited {code}")

        run("sweep")
        case("cn.verify canonical", lambda: run("verify"), 1)

    # the M_c truncation trace of the thresholds workload, and with its load
    # at large n0
    grid, profile = setup(jump_neg, CRITICAL_N0)
    case(f"mc_trace n0={CRITICAL_N0}", lambda: dispersion.critical_number_auto(
        profile, lz0=HALF_LENGTH, n0=CRITICAL_N0, g=G_NEG), 5)
    for n0 in sizes(LOAD_N0):
        case(f"mc_trace.load n0={n0}", lambda: dispersion.critical_number_auto(
            setup(jump_neg, n0)[1], lz0=HALF_LENGTH, n0=n0, g=G_NEG), 5)
    return cases


def _measure_tree(src: Path) -> dict:
    """``measure()`` of the tree whose source directory is ``src``, in a
    child process with one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, bench_layers; print(json.dumps(bench_layers.measure()))"],
        cwd=HERE, env=_env(str(src)), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"measuring {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _merge(rounds: list[dict]) -> dict:
    """The median of every time over the rounds; every other field must be
    equal in every round."""
    merged = {}
    for name, first in rounds[0].items():
        merged[name] = {}
        for field, value in first.items():
            values = [r[name][field] for r in rounds]
            if isinstance(value, float):
                value = _median(values)
            elif any(v != value for v in values):
                raise SystemExit(f"{name}: {field} differs between rounds: {values}")
            merged[name][field] = value
    return merged


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
            cpu,
        )
    return {
        "cpu": cpu,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--before", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--rounds", type=int, default=5, help="default: %(default)s")
    parser.add_argument("--out", default="BENCH_layers.json", help="default: %(default)s")
    args = parser.parse_args()

    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    rounds = max(1, args.rounds)
    results = {label: [] for label in trees}
    order = list(trees.items())
    for r in range(rounds):
        for label, src in order if r % 2 == 0 else order[::-1]:
            results[label].append(_measure_tree(src))
    merged = {label: _merge(rs) for label, rs in results.items()}
    report = {
        "machine": _machine(),
        "setup": {
            **SETUP, "config": "configs/canonical.json", "rounds": rounds,
            "statistic": "median", "peak": "tracemalloc peak of one call, MB = 10^6 bytes",
        },
        **merged,
    }
    if "before" in merged:
        report["count_changes"] = {
            name: {"before": row["counts"], "after": merged["after"][name]["counts"]}
            for name, row in merged["before"].items()
            if row["counts"] != merged["after"][name]["counts"]
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    labels = list(trees)
    print(f"{'case':34s}" + "".join(f"{label:>12s}" for label in labels) + "  counts")
    for name, row in merged["after"].items():
        times = "".join(f"{1e3 * merged[label][name]['s']:10.3f}ms" for label in labels)
        work = {k: v for k, v in row["counts"].items() if v}
        print(f"{name:34s}{times}  {work}")
    if "before" in merged:
        changed = report["count_changes"]
        print(f"counts differ between trees in {sorted(changed)}" if changed
              else "every count is equal between the trees")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
