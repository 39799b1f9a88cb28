"""The benchmark's workloads: generated configs and the CLI commands of a round.

A round is the command sequence a CLI user runs for one result; each command
is one operation, checked after it returns.  All workloads are closed loop:
one client, one command at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    check_critical,
    check_horizontal,
    check_sweep,
    check_verify,
    check_vertical,
)

# configs/canonical.json's profile: one positive bump on a unit background
CANON_PROFILE = {
    "base_density": 1.0,
    "bumps": [{"amp": 0.5, "center": 0.0, "half_width": 1.0}],
}
# tests/conftest.py's JUMP_NEG_SPEC: negative total jump, so M_c is finite
JUMP_NEG_PROFILE = {
    "base_density": 5.0,
    "bumps": [
        {"amp": 0.6, "center": 1.0, "half_width": 0.5},
        {"amp": -1.8, "center": -1.0, "half_width": 0.5},
    ],
}

SWEEP_N = 201  # canonical ships n = 801; 201 keeps a round near 10 s
SWEEP_RADIUS = 2.0  # 5 sign orbits; 3 distinct |xi| among them
SHARPNESS_SEEDS = 5  # as many as configs/canonical.json lists
CRITICAL_N0 = 17  # base grid of the doubling-Lz trace (criterion 5 uses 129)
THRESHOLD_N = 201
THRESHOLD_M = 0.3
THRESHOLD_RADIUS = 4.0


def _config(profile, g, orientation, M, n, radius=None, seeds=(0,)) -> dict:
    return {
        "profile": profile,
        "params": {"mu": 1.0, "g": g, "L": 1.0},
        "mag": {"orientation": orientation, "magnitude": M},
        "grid": {"half_length": 8.0, "n": n},
        "sweep": {"radius": radius},
        "verify": {"dt": None, "T": None, "seeds": list(seeds)},
        "output_dir": "out",
    }


@dataclass
class Operation:
    label: str  # the command whose wall time this adds to
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    name: str
    configs: Callable[[int], dict[str, dict]]
    # (config paths, loaded configs, round directory, check picks) -> operations
    round: Callable[[dict, dict, Path, random.Random], list[Operation]]


def _canonical_configs(seed: int) -> dict[str, dict]:
    seeds = random.Random(seed).sample(range(1, 2**31), SHARPNESS_SEEDS)
    return {
        "canonical": _config(CANON_PROFILE, 9.8, "horizontal", 0.0, SWEEP_N, SWEEP_RADIUS, seeds)
    }


def _canonical_round(paths, cfgs, rd, pick) -> list[Operation]:
    path, cfg = str(paths["canonical"]), cfgs["canonical"]
    return [
        Operation("sweep", ["sweep", path, "--out", str(rd)], lambda: check_sweep(rd, cfg, pick)),
        Operation("verify", ["verify", path, "--out", str(rd)], lambda: check_verify(rd, cfg)),
    ]


def _anisotropic_configs(seed: int) -> dict[str, dict]:
    return {
        "anisotropic": _config(CANON_PROFILE, 9.8, "horizontal", 0.3, SWEEP_N, SWEEP_RADIUS)
    }


def _anisotropic_round(paths, cfgs, rd, pick) -> list[Operation]:
    path, cfg = str(paths["anisotropic"]), cfgs["anisotropic"]
    return [
        Operation("sweep", ["sweep", path, "--out", str(rd)], lambda: check_sweep(rd, cfg, pick)),
    ]


def _thresholds_configs(seed: int) -> dict[str, dict]:
    return {
        "critical": _config(JUMP_NEG_PROFILE, 1.0, "vertical", THRESHOLD_M, CRITICAL_N0),
        "vertical": _config(JUMP_NEG_PROFILE, 1.0, "vertical", THRESHOLD_M, THRESHOLD_N),
        "horizontal": _config(
            JUMP_NEG_PROFILE, 1.0, "horizontal", THRESHOLD_M, THRESHOLD_N, THRESHOLD_RADIUS
        ),
    }


def _thresholds_round(paths, cfgs, rd, pick) -> list[Operation]:
    crit, vert, hor = rd / "critical", rd / "vertical", rd / "horizontal"
    return [
        Operation(
            "critical",
            ["critical", str(paths["critical"]), "--out", str(crit)],
            lambda: check_critical(crit, cfgs["critical"]),
        ),
        Operation(
            "thresholds",
            ["freq-thresholds", str(paths["vertical"]), "--out", str(vert)],
            lambda: check_vertical(vert, cfgs["vertical"]),
        ),
        Operation(
            "thresholds",
            ["freq-thresholds", str(paths["horizontal"]), "--out", str(hor)],
            lambda: check_horizontal(hor, cfgs["horizontal"], pick),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("canonical", _canonical_configs, _canonical_round),
        Workload("sweep-anisotropic", _anisotropic_configs, _anisotropic_round),
        Workload("thresholds", _thresholds_configs, _thresholds_round),
    )
}
