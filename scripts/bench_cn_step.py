#!/usr/bin/env python3
"""Time one Crank-Nicolson factor and one 5-column step, and count the
factors and steps of one canonical verify, for one or two source trees.

Each tree is measured in its own child process, with its ``src`` directory
on PYTHONPATH and one BLAS thread.  With ``--before``, the two trees run in
alternating rounds and each number is the median over the rounds.

Usage:
    python scripts/bench_cn_step.py [--before OTHER/src] [--out FILE]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = (
    ("h-M0", "horizontal", 0.0),
    ("h-M0.3", "horizontal", 0.3),
    ("v-M0.3", "vertical", 0.3),
)
SIZES = (201, 801)
COLUMNS = 5
XI = (1.0, 2.0)
DT = 0.01


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _timed(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _median(times)


def measure() -> dict:
    """The numbers of the rtmhd on this process's path."""
    import numpy as np

    import rtmhd
    import rtmhd.verify as verify
    from rtmhd.cli import main

    spec = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
    params = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
    xi = rtmhd.Frequency(*XI)
    cases = {}
    for n in SIZES:
        grid = rtmhd.Grid1D(8.0, n)
        profile = rtmhd.build_profile(spec, grid)
        for name, orientation, M in CASES:
            mag = rtmhd.MagneticConfig(rtmhd.Orientation(orientation), M)

            def factor():
                return verify.LinearEvolver(profile, mag, params, grid, xi, DT)

            stepper = factor()
            if hasattr(verify, "_seed_block"):
                profiles = [verify._seed_profiles(grid, s) for s in range(COLUMNS)]
                z = verify._seed_block(grid, xi, profiles)
            else:
                # trees before the 7n state packed a random state with the
                # stepper's pack
                states = [
                    verify.random_divfree_state(profile, grid, xi, s)
                    for s in range(COLUMNS)
                ]
                z = np.stack([stepper.pack(state) for state in states], axis=1)
            # a step forms no pressure; trees before the split formed q in
            # every step
            stepper.step(z)
            cases[f"{name} n={n}"] = {
                "factor_ms": 1e3 * _timed(factor, 7),
                "step_us": 1e6 * _timed(lambda: stepper.step(z), 100),
                "state_rows": int(z.shape[0]),
            }

    counts = {"factors": 0, "steps": 0}
    init, step = verify.LinearEvolver.__init__, verify.LinearEvolver.step

    def counted_init(self, *args, **kwargs):
        counts["factors"] += 1
        init(self, *args, **kwargs)

    def counted_step(self, z):
        counts["steps"] += 1
        return step(self, z)

    config = str(ROOT / "configs" / "canonical.json")
    with tempfile.TemporaryDirectory() as out:
        if main(["sweep", config, "--out", out]) != 0:
            raise SystemExit("canonical sweep failed")
        verify.LinearEvolver.__init__ = counted_init
        verify.LinearEvolver.step = counted_step
        t0 = time.perf_counter()
        code = main(["verify", config, "--out", out])
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"canonical verify exited {code}")
    return {
        "cases": cases,
        "canonical_verify": {"s": elapsed, **counts},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run_tree(src: Path, script: Path = Path(__file__).resolve()) -> dict:
    """The ``--measure`` output of ``script`` on the tree whose source
    directory is ``src``, in a child process with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(script), "--measure"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_rounds(trees: dict, rounds: int, run) -> dict:
    """``run(src)`` for every tree in each of ``rounds`` rounds.  Odd rounds
    take the trees in reverse order, so neither tree always runs first."""
    results = {label: [] for label in trees}
    order = list(trees.items())
    for r in range(max(1, rounds)):
        for label, src in order if r % 2 == 0 else order[::-1]:
            results[label].append(run(src))
    return results


def _merge(rounds: list[dict]) -> dict:
    """Median of every timing over the rounds; counts are equal in each."""
    first = rounds[0]
    cases = {
        key: {
            field: _median([r["cases"][key][field] for r in rounds])
            for field in first["cases"][key]
        }
        for key in first["cases"]
    }
    run = dict(first["canonical_verify"])
    run["s"] = _median([r["canonical_verify"]["s"] for r in rounds])
    return {"cases": cases, "canonical_verify": run}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--before", type=Path, help="src directory of the tree to compare with"
    )
    parser.add_argument("--out", default="BENCH_cn_step.json", help="default: %(default)s")
    parser.add_argument("--rounds", type=int, default=3, help="default: %(default)s")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return

    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    rounds = _run_rounds(trees, args.rounds, _run_tree)
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
            "xi": list(XI),
            "dt": DT,
            "columns": COLUMNS,
            "config": "configs/canonical.json",
            "rounds": max(1, args.rounds),
            "statistic": "median",
        },
        **{label: _merge(r) for label, r in rounds.items()},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for label in trees:
        run = report[label]["canonical_verify"]
        print(f"{label}: canonical verify {run['s']:.3f} s, "
              f"{run['factors']} factors, {run['steps']} steps")
        for key, row in report[label]["cases"].items():
            print(
                f"  {key:14s} factor {row['factor_ms']:6.2f} ms  "
                f"step {row['step_us']:7.1f} us"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
