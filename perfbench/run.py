#!/usr/bin/env python3
"""rtmhd benchmark: CLI pipelines timed end to end, or layer by layer.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/rtmhd``.  Every command
goes through ``rtmhd.cli.main(argv)`` inside this one process.  Rounds of the
workload's commands repeat until the next round would overrun ``--seconds``;
each command is checked after it returns, outside the timed region.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the untraced
command times and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: the run stays within the machine's 2 cores and timings do
# not depend on how busy the other core is.  Set before numpy is imported.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
COMMANDS = ("sweep", "verify", "critical", "thresholds")

# A fresh interpreter pays this before any solve: import rtmhd, then load
# (validate and build the profile of) each of the workload's configs.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from rtmhd.config import load_config
for path in sys.argv[2:]:
    load_config(path)
"""


def measure_setup(paths: list[Path]) -> float:
    """Median wall time of SETUP_REPEATS fresh set-up processes."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, paths)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed; an operation is one CLI command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 but its outputs failed the checks

    def record(self, label: str, rc: int | None, problems: list[str]) -> None:
        self.attempted += 1
        if rc != 0 or problems:
            self.failed += 1
            self.wrong += rc == 0
            print(f"FAILED {label}: exit {rc}; {problems}", file=sys.stderr)


def perform(op, cli, tracer, tally: Tally) -> float:
    """Run one command, then check it; returns the command's wall time."""
    captured = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                rc = tracer.call(f"cli.{op.label}", cli.main, op.argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc()
    elapsed = time.perf_counter() - t0
    problems = []
    if rc == 0:
        try:
            problems = op.check()
        except Exception as exc:  # unreadable or missing artifacts
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        print(captured.getvalue()[-2000:], file=sys.stderr)
    tally.record(op.label, rc, problems)
    return elapsed


def layer_metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over traced rounds of per-round totals."""

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0) for s in summaries)

    def ratio(num: str, den: str) -> float:
        d = med(den)
        return med(num) / d if d else 0.0

    return {
        "eig.solves": (med("eig.solve.count"), "count"),
        "eig.solve_s": (med("eig.solve.busy_s"), "s"),
        "eig.iterations": (med("eig.solve.iterations"), "count"),
        "eig.iterations_per_solve": (ratio("eig.solve.iterations", "eig.solve.count"), "iter/solve"),
        "eig.points": (med("eig.solve.points"), "count"),
        "growth.rates": (med("growth.rate.count"), "count"),
        "growth.rate_s": (med("growth.rate.busy_s"), "s"),
        "growth.alpha_evals": (med("growth.alpha.count"), "count"),
        "growth.alpha_per_rate": (ratio("growth.alpha.count", "growth.rate.count"), "alpha/rate"),
        "dispersion.membership_tests": (med("dispersion.membership.count"), "count"),
        "dispersion.membership_s": (med("dispersion.membership.busy_s"), "s"),
        "dispersion.critical_s": (med("dispersion.critical.busy_s"), "s"),
        "dispersion.truncations": (med("dispersion.critical.truncations"), "count"),
        "dispersion.threshold_s": (med("dispersion.threshold.busy_s"), "s"),
        "forms.assemblies": (med("forms.assemble.count"), "count"),
        "forms.assemble_s": (med("forms.assemble.busy_s"), "s"),
        "modes.builds": (med("modes.build.count"), "count"),
        "modes.build_s": (med("modes.build.busy_s"), "s"),
        "verify.evolutions": (med("verify.evolve.count"), "count"),
        "verify.cn_factors": (med("verify.cn_factor.count"), "count"),
        "verify.cn_factor_s": (med("verify.cn_factor.busy_s"), "s"),
        "verify.cn_steps": (med("verify.cn_step.count"), "count"),
        "verify.cn_step_s": (med("verify.cn_step.busy_s"), "s"),
        "profiles.builds": (med("profiles.build.count"), "count"),
        "profiles.build_s": (med("profiles.build.busy_s"), "s"),
        "cli.self_s": (med("cli.self_s"), "s"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import rtmhd
    from rtmhd import cli
    from rtmhd.config import load_config

    if Path(rtmhd.__file__).resolve().parent != SRC / "rtmhd":
        raise SystemExit(f"imported rtmhd from {rtmhd.__file__}, not from {SRC}")
    from spans import Tracer, round_summary
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload]
    run_dir = OUT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        paths = {}
        for stem, cfg in wl.configs(seed).items():
            paths[stem] = run_dir / f"{stem}.json"
            paths[stem].write_text(json.dumps(cfg, indent=1))
        cfgs = {stem: load_config(str(p)) for stem, p in paths.items()}
        setup_s = measure_setup(list(paths.values())) if not trace else None

        tally = Tally()
        tracer = Tracer() if trace else None
        plain: list[dict[str, float]] = []  # per untraced round: label -> seconds
        traced: list[float] = []
        summaries: list[dict] = []
        round_walls: list[float] = []
        t_start = time.perf_counter()
        k = 0
        while True:
            t_round = time.perf_counter()
            # in a trace run, odd rounds are traced and even rounds are not
            with_trace = trace and k % 2 == 1
            pick = random.Random(seed * 1_000_003 + k)
            ops = wl.round(paths, cfgs, run_dir / f"r{k}", pick)
            times: dict[str, float] = {}
            if with_trace:
                tracer.round = k
                tracer.install()
            try:
                for op in ops:
                    dt = perform(op, cli, tracer if with_trace else None, tally)
                    times[op.label] = times.get(op.label, 0.0) + dt
            finally:
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                traced.append(sum(times.values()))
                summaries.append(round_summary(tracer.spans, k))
            else:
                plain.append(times)
            shutil.rmtree(run_dir / f"r{k}", ignore_errors=True)
            kind = "traced" if with_trace else "plain"
            detail = " ".join(f"{lbl}={t:.3f}" for lbl, t in times.items())
            print(f"round {k} ({kind}): {detail}", file=sys.stderr)
            k += 1
            round_walls.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_start
            enough = k >= (2 if trace else 1)
            if enough and elapsed + statistics.median(round_walls) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    pipeline = [sum(t.values()) for t in plain]
    metrics: dict[str, tuple[float, str]]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (statistics.median(pipeline), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(summaries)
        for label in COMMANDS:
            metrics[f"cli.{label}_s"] = (
                statistics.median(t.get(label, 0.0) for t in plain),
                "s",
            )
        overhead = statistics.median(traced) / statistics.median(pipeline) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{workload}-s{seed}.jsonl"))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rtmhd" / "__init__.py").is_file():
        print(f"no rtmhd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
