#!/usr/bin/env python3
"""Self-test of the benchmark's checks: tampered outputs must count as failed.

    python3 perfbench/selftest.py

Runs a small canonical sweep and verify (radius 1.5, one sharpness seed) through the benchmark's own operations, confirms that both pass, then
tampers with their outputs and re-judges the same operations:

  - a perturbed Lambda in sweep_summary.json (alone, and together with the
    matching rows of dispersion.csv, so that only the dense fixed-point
    check can see it);
  - a flipped member flag in dispersion.csv;
  - a stale verify.json, left over from a sweep at another field strength.

Each must add one failed operation.  Exits 0 when all do.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

from rtmhd import cli  # noqa: E402
from rtmhd.config import load_config  # noqa: E402

import workloads  # noqa: E402
from workloads import Operation  # noqa: E402


def _edit_json(path: Path, key: str, fn) -> None:
    data = json.loads(path.read_text())
    data[key] = fn(data[key])
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, fn) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + [fn(line) for line in lines[1:]]) + "\n")


def main() -> int:
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        return _selftest(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _selftest(base: Path) -> int:
    raw = workloads._config(
        workloads.CANON_PROFILE, 9.8, "horizontal", 0.0, workloads.SWEEP_N, 1.5, seeds=(7,)
    )
    path = base / "small.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    out = base / "r0"
    sweep, verify = workloads._canonical_round({"canonical": path}, {"canonical": cfg}, out, random.Random(0))
    tally = run.Tally()
    for op in (sweep, verify):
        run.perform(op, cli, None, tally)
    if tally.failed:
        print(f"selftest: the untampered pipeline failed {tally.failed} operation(s)")
        return 1
    pristine = {p.name: p.read_text() for p in out.iterdir() if p.is_file()}

    def restore() -> None:
        for name, text in pristine.items():
            (out / name).write_text(text)

    summary, table = out / "sweep_summary.json", out / "dispersion.csv"
    lam = json.loads(pristine["sweep_summary.json"])["Lambda"]
    bumped = lam * (1.0 + 1e-6)

    def bump_rows(line: str) -> str:
        x1, x2, member, value = line.split(",")
        hit = value and float(value) == lam
        return ",".join([x1, x2, member, repr(bumped) if hit else value])

    def drop_orbit(line: str) -> str:
        # every sign copy of the (1, 0) orbit reads as a non-member, which is
        # how a point whose solve raised appears in dispersion.csv today
        x1, x2, member, value = line.split(",")
        if abs(float(x1)) == 1.0 and float(x2) == 0.0:
            return ",".join([x1, x2, "0", ""])
        return line

    def stale_verify() -> None:
        # a later sweep at M = 0.3 into the same directory leaves verify.json stale
        resweep = Operation(
            "sweep", ["sweep", str(path), "--out", str(out), "--M", "0.3"], lambda: []
        )
        run.perform(resweep, cli, None, run.Tally())

    cases = [
        ("perturbed Lambda in the summary", sweep,
         lambda: _edit_json(summary, "Lambda", lambda v: v * (1.0 + 1e-6))),
        ("perturbed Lambda in summary and table", sweep,
         lambda: (_edit_json(summary, "Lambda", lambda v: bumped), _edit_csv(table, bump_rows))),
        ("flipped member flag", sweep, lambda: _edit_csv(table, drop_orbit)),
        ("stale verify.json", verify, stale_verify),
    ]
    missed = []
    for name, op, tamper in cases:
        restore()
        tamper()
        before = tally.failed
        tally.record(op.label, 0, op.check())
        caught = tally.failed == before + 1
        print(f"selftest: {name}: {'counted as failed' if caught else 'NOT caught'}")
        if not caught:
            missed.append(name)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
