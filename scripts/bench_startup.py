#!/usr/bin/env python3
"""Time the cold start of an rtmhd process, for one or two source trees.

A cold start is a fresh interpreter that imports ``rtmhd.cli`` and loads
``configs/canonical.json`` (which builds the density profile); every rtmhd
command pays it before any compute.  Each start runs in its own child
process, with the tree's ``src`` directory on PYTHONPATH and one BLAS
thread.  With ``--before``, the two trees start in alternating rounds and
each time is the median over the rounds.  The report also records how many
modules the start loads, how many of them are scipy's, and which scipy
subpackages are among them.

Usage:
    python scripts/bench_startup.py [--before OTHER/src] [--out FILE]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_cn_step import _cpu_model, _median, _run_rounds

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "canonical.json"

# timed from before the first rtmhd import to after the config is loaded
CHILD = """
import json, sys, time
t0 = time.perf_counter()
import rtmhd.cli
from rtmhd.config import load_config
load_config(sys.argv[1])
elapsed = time.perf_counter() - t0
scipy = sorted(
    m[6:] for m, mod in sys.modules.items()
    if m.count(".") == 1 and m.startswith("scipy.") and hasattr(mod, "__path__")
)
scipy_modules = sum(m.split(".")[0] == "scipy" for m in sys.modules)
print(json.dumps({
    "import_s": elapsed, "modules": len(sys.modules), "scipy_modules": scipy_modules,
    "scipy": scipy,
}))
"""


def _start(src: Path) -> dict:
    """One cold start of the tree whose source directory is ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(CONFIG)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    wall = time.perf_counter() - t0
    return {"process_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def _merge(starts: list[dict]) -> dict:
    """Median times over the rounds; the module counts are equal in each."""
    first = starts[0]
    return {
        "process_s": _median([s["process_s"] for s in starts]),
        "import_s": _median([s["import_s"] for s in starts]),
        "modules": first["modules"],
        "scipy_modules": first["scipy_modules"],
        "scipy_subpackages": [m for m in first["scipy"] if not m.startswith("_")],
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--before", type=Path, help="src directory of the tree to compare with"
    )
    parser.add_argument("--out", default="BENCH_startup.json", help="default: %(default)s")
    parser.add_argument("--rounds", type=int, default=8, help="default: %(default)s")
    args = parser.parse_args()

    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    rounds = max(1, args.rounds)
    starts = _run_rounds(trees, rounds, _start)
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
            "start": "import rtmhd.cli; load_config(configs/canonical.json)",
            "import_s": "in the child, from before the import to after the load",
            "process_s": "wall time of the whole child process",
            "rounds": rounds,
            "statistic": "median",
        },
        **{label: _merge(s) for label, s in starts.items()},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for label in trees:
        row = report[label]
        print(
            f"{label}: import+load {row['import_s']:.3f} s, process "
            f"{row['process_s']:.3f} s, {row['modules']} modules "
            f"({row['scipy_modules']} of scipy), scipy subpackages "
            f"{', '.join(row['scipy_subpackages']) or 'none'}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
