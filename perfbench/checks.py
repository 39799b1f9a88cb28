"""Correctness checks on the artifacts of one CLI command.

Every check recomputes what it compares against (dense LAPACK eigensolves
of the assembled pencils, the paper's rate bound, the classification rule)
and returns a list of problems; an empty list means the outputs hold.  No
check reads stored reference output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from rtmhd.config import RunConfig
from rtmhd.forms import assemble_forms
from rtmhd.operators import band_to_dense, grad_stiffness_band, mass_band
from rtmhd.profiles import Frequency, Grid1D

# the fixed-point tolerance of the acceptance suite (criterion 3)
FIXED_POINT_TOL = 1e-8
# dense and banded eigenvalues agree to the banded bisection tolerance
DENSE_RTOL = 1e-8
RATE_RTOL = 0.02  # verify: |measured - predicted| / predicted
SHARPNESS_MAX = 1.02
THRESHOLD_OFFSET = 1e-4  # relative step either side of |xi|_vc and S(xi)
DENSE_TRUNCATIONS = 3  # leading critical-trace rows recomputed densely
S_ROWS = 3  # S(xi) table rows checked per round


def dense_eigs(a_band: np.ndarray, b_band: np.ndarray) -> np.ndarray:
    return eigh(band_to_dense(a_band), band_to_dense(b_band), eigvals_only=True)


def _read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _lattice(radius: float, L: float) -> set[tuple[int, int]]:
    k = int(math.floor(radius * L + 1e-12))
    return {
        (i, j)
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
        if (i or j) and math.hypot(i, j) <= radius * L + 1e-12
    }


def rate_cap(cfg: RunConfig) -> float:
    """sqrt(g sup rho'/rho) with the sup taken on a fine sample of the support."""
    lo, hi = cfg.profile.support
    x = np.linspace(lo, hi, 200001)
    return math.sqrt(cfg.params.g * float(np.max(cfg.profile.ratio(x))))


def check_sweep(out: Path, cfg: RunConfig, pick: random.Random) -> list[str]:
    """Lambda bound, membership against dense E0 signs, fixed point at 3 orbits.

    The fixed point is checked where the rate is: the dense f(s) must change
    sign within 1e-8 * max(1, lambda) of the reported lambda.  The residual
    lambda^2 + alpha(lambda) is not a usable gauge, because f' = 1 + |phi'|
    reaches 17 on these inputs and scales it far past the rate's error.
    """
    summary = _read_json(out / "sweep_summary.json")
    rows = _read_csv(out / "dispersion.csv")
    L = cfg.params.L
    problems = []

    table: dict[tuple[int, int], tuple[bool, float | None]] = {}
    for r in rows:
        key = (round(float(r["xi1"]) * L), round(float(r["xi2"]) * L))
        lam = float(r["lambda"]) if r["lambda"] else None
        table[key] = (r["member"] == "1", lam)
    expected = _lattice(cfg.radius, L)
    if set(table) != expected:
        problems.append(
            f"dispersion.csv covers {len(table)} lattice points, expected {len(expected)}"
        )
        return problems

    orbits: dict[tuple[int, int], set] = {}
    for (i, j), value in table.items():
        orbits.setdefault((abs(i), abs(j)), set()).add(value)
    members = []
    for (i, j), values in sorted(orbits.items()):
        if len(values) != 1:
            problems.append(f"orbit ({i},{j}) has differing sign copies {values}")
            continue
        member, lam = next(iter(values))
        forms = assemble_forms(
            cfg.profile, cfg.grid, Frequency.lattice(i, j, L), cfg.mag, cfg.params
        )
        e0_min = float(dense_eigs(forms.e0, forms.mass)[0])
        if member != (e0_min < 0.0):
            problems.append(
                f"orbit ({i},{j}): member={int(member)} but dense min eig of "
                f"(E0, mass) is {e0_min:.3e}"
            )
        if member:
            if lam is None or not lam > 0.0:
                problems.append(f"orbit ({i},{j}) is a member without a positive rate")
            else:
                members.append(((i, j), lam, forms))

    if not members:
        problems.append("no member orbit")
        return problems
    lam_max = max(lam for _, lam, _ in members)
    Lam = float(summary["Lambda"])
    cap = rate_cap(cfg)
    if not 0.0 < Lam <= cap * (1.0 + 1e-6):
        problems.append(f"Lambda = {Lam!r} outside (0, sqrt(g sup rho'/rho) = {cap!r}]")
    if Lam != lam_max:
        problems.append(f"Lambda = {Lam!r} but the largest swept rate is {lam_max!r}")
    xi1 = tuple(round(v * L) for v in summary["xi1"])
    top = (abs(xi1[0]), abs(xi1[1]))
    if table.get(xi1) != (True, Lam):
        problems.append(f"xi1 = {summary['xi1']} is not a member with rate Lambda")

    # lambda is the root of f(s) = s - sqrt(-alpha(s)) to criterion 3's
    # tolerance: f, strictly increasing, changes sign across lambda -+ tol
    others = [m for m in members if m[0] != top]
    chosen = [m for m in members if m[0] == top]
    chosen += pick.sample(others, min(2, len(others)))
    for (i, j), lam, forms in chosen:
        tol = FIXED_POINT_TOL * max(1.0, lam)
        f_lo, f_hi = (
            s - math.sqrt(max(-float(dense_eigs(forms.energy(s), forms.j)[0]), 0.0))
            for s in (lam - tol, lam + tol)
        )
        if not f_lo < 0.0 < f_hi:
            problems.append(
                f"orbit ({i},{j}): f(lambda -+ {tol:.0e}) = {f_lo:.3e}, {f_hi:.3e} "
                "does not bracket the fixed point"
            )
    return problems


def check_verify(out: Path, cfg: RunConfig) -> list[str]:
    """Rate check, sharpness ratio and agreement with this sweep's summary."""
    summary = _read_json(out / "sweep_summary.json")
    ver = _read_json(out / "verify.json")
    sharp = _read_json(out / "sharpness.json")
    problems = []
    pred, meas = float(ver["lambda_pred"]), float(ver["lambda_meas"])
    rel = abs(meas - pred) / pred
    if not (rel <= RATE_RTOL and abs(rel - float(ver["rel_err"])) <= 1e-12):
        problems.append(f"rel_err = {ver['rel_err']!r} (recomputed {rel!r})")
    if list(ver["xi"]) != list(summary["xi1"]):
        problems.append(f"verify.json xi {ver['xi']} != sweep xi1 {summary['xi1']}")
    Lam = float(summary["Lambda"])
    if not abs(pred - Lam) <= DENSE_RTOL * Lam:
        problems.append(f"lambda_pred = {pred!r} but this sweep's Lambda = {Lam!r}")
    ratio = float(sharp["max_measured_rate"]) / float(sharp["Lambda"])
    if not ratio <= SHARPNESS_MAX:
        problems.append(f"sharpness ratio {ratio!r} > {SHARPNESS_MAX}")
    if float(sharp["Lambda"]) != Lam or list(sharp["seeds"]) != list(cfg.seeds):
        problems.append("sharpness.json does not belong to this sweep and config")
    return problems


def _critical_dense(cfg: RunConfig, grid: Grid1D) -> float:
    x = grid.points()
    a = mass_band(grid, cfg.params.g * cfg.profile.drho(x))
    b = grad_stiffness_band(grid)
    return math.sqrt(float(dense_eigs(a, b)[-1]))


def check_critical(out: Path, cfg: RunConfig) -> list[str]:
    """Finite M_c, a settled trace, first truncations against dense eigh."""
    crit = _read_json(out / "critical.json")
    trace = [(float(r["Lz"]), float(r["value"])) for r in _read_csv(out / "critical_trace.csv")]
    problems = []
    value = crit.get("value")
    if crit.get("kind") != "finite" or value is None or not math.isfinite(value):
        return [f"critical.json is {crit} for a negative total jump"]
    if len(trace) < 3 or value != trace[-1][1]:
        return [f"critical value {value!r} is not the last of {len(trace)} trace rows"]
    v = [t[1] for t in trace]
    if not abs(v[-1] - v[-2]) <= 1e-4 * abs(v[-1]):
        problems.append("trace has not settled to 1e-4 at its last doubling")
    lz0, n0 = cfg.grid.half_length, cfg.grid.n
    for k, (lz, val) in enumerate(trace[:DENSE_TRUNCATIONS]):
        if lz != lz0 * 2**k:
            problems.append(f"trace row {k} has Lz = {lz!r}, expected {lz0 * 2**k!r}")
            continue
        ref = _critical_dense(cfg, Grid1D(lz, (n0 + 1) * 2**k - 1))
        if not abs(val - ref) <= DENSE_RTOL * ref:
            problems.append(f"trace row Lz={lz:g}: {val!r} vs dense {ref!r}")
    return problems


def _e0_min(cfg: RunConfig, xi: Frequency) -> float:
    forms = assemble_forms(cfg.profile, cfg.grid, xi, cfg.mag, cfg.params)
    return float(dense_eigs(forms.e0, forms.mass)[0])


def check_vertical(out: Path, cfg: RunConfig) -> list[str]:
    """Dense min eig of vertical (E0, mass) changes sign across |xi|_vc."""
    xi_vc = float(_read_json(out / "thresholds.json")["xi_vc"])
    if not (math.isfinite(xi_vc) and xi_vc > 0.0):
        return [f"|xi|_vc = {xi_vc!r}"]
    below = _e0_min(cfg, Frequency(0.0, xi_vc * (1.0 - THRESHOLD_OFFSET)))
    above = _e0_min(cfg, Frequency(0.0, xi_vc * (1.0 + THRESHOLD_OFFSET)))
    if below >= 0.0 and above < 0.0:
        return []
    return [f"E0 min eig {below:.3e} below and {above:.3e} above |xi|_vc = {xi_vc!r}"]


def check_horizontal(out: Path, cfg: RunConfig, pick: random.Random) -> list[str]:
    """Dense min eig of horizontal (E0, mass) changes sign across S(xi)."""
    table = _read_csv(out / "thresholds.csv")
    L = cfg.params.L
    got = {(round(float(r["xi1"]) * L), round(float(r["xi2"]) * L)) for r in table}
    want = {(i, j) for i, j in _lattice(cfg.radius, L) if i >= 1 and j >= 0}
    if got != want:
        return [f"thresholds.csv has {len(got)} rows, expected {len(want)}"]
    with_s = [r for r in table if r["S"]]
    if not with_s:
        return ["thresholds.csv has no S(xi) value"]
    problems = []
    for r in pick.sample(with_s, min(S_ROWS, len(with_s))):
        xi = Frequency(float(r["xi1"]), float(r["xi2"]))
        s_val = float(r["S"])
        lo, hi = (s_val * (1.0 + d) / xi.norm for d in (-THRESHOLD_OFFSET, THRESHOLD_OFFSET))
        below = _e0_min(cfg, Frequency(lo * xi.xi1, lo * xi.xi2))
        above = _e0_min(cfg, Frequency(hi * xi.xi1, hi * xi.xi2))
        if not (below < 0.0 <= above):
            problems.append(
                f"S({xi.xi1:g},{xi.xi2:g}) = {s_val!r}: E0 min eig {below:.3e} "
                f"below, {above:.3e} above"
            )
    return problems
