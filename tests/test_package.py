import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rtmhd
from rtmhd import stats
from rtmhd.cli import main

from .conftest import CANON_PARAMS, CANON_SPEC, JUMP_NEG_SPEC

MODULES = sorted(m.name for m in pkgutil.iter_modules(rtmhd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    # a stale name in __all__ breaks ``from rtmhd.<module> import *``
    module = importlib.import_module(f"rtmhd.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name
)
def test_script_help_runs_nothing(script, tmp_path):
    # --help prints usage; it is not an output directory to run into
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")
    assert list(tmp_path.iterdir()) == []


def test_rate_verification_script_runs_the_whole_chain(tmp_path):
    # sweep -> rate -> mode -> export -> snapshot -> march, into tmp_path
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rate_verification.py"), str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("mode.json", "mode.csv", "snapshot_t0.csv", "timeseries.csv"):
        assert (out / name).is_file(), name
    rel = re.search(r"relative error ([^)]+)\)", proc.stdout).group(1)
    assert float(rel) <= rtmhd.verify.RATE_RTOL


def test_dispersion_survey_tables_read_back_as_a_fresh_sweep(tmp_path):
    out = tmp_path / "out"
    script = ROOT / "scripts" / "dispersion_survey.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the script's own setup, read from the file without running it
    spec = importlib.util.spec_from_file_location("dispersion_survey", script)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.VERTICAL, 0.3)
    profile = rtmhd.build_profile(survey.SPEC, survey.GRID)
    table = rtmhd.lattice_sweep(profile, survey.GRID, mag, survey.PARAMS, radius=4.0)
    path = str(out / "dispersion_vertical_M0.3.csv")
    back = rtmhd.dispersion.read_table(path, 4.0, survey.PARAMS, profile)
    assert repr(back) == repr(table)  # bitwise: repr tells any two floats apart


def test_layer_benchmark_times_and_counts_every_case():
    # every case once, at its smallest sizes: a name of the package that the
    # harness calls and that is renamed fails here
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "scripts" / "bench_layers.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench.measure(quick=True)
    layers = {name.split()[0].split(".")[0] for name in cases}
    assert layers == {
        "startup", "profile", "forms", "definite", "top_root", "sweep_point", "mode",
        "cn", "mc_trace",
    }
    for name, row in cases.items():
        assert row["s"] > 0, name
        assert sum(row["counts"].values()) > 0, name
    assert cases["cn.verify canonical"]["counts"]["cn_steps"] > 0
    assert cases["sweep_point canonical n=201"]["counts"]["dpbtrf"] > 0


def test_work_record_counts_each_solve_as_the_solve_does(tmp_path, monkeypatch, lapack_calls):
    # a growth rate and |xi|_vc each add their EigenPair's iterations, a
    # membership test one Cholesky test, and a default canonical verify
    # steps 20 times per factorization
    grid = rtmhd.Grid1D(8.0, 201)
    canon = rtmhd.build_profile(CANON_SPEC, grid)
    jump_neg = rtmhd.build_profile(JUMP_NEG_SPEC, grid)
    mag = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.0)
    xi = rtmhd.Frequency(1.0, 0.0)
    forms = rtmhd.assemble_forms(canon, grid, xi, mag, CANON_PARAMS)
    lapack_calls()
    rate = rtmhd.growth_rate(forms)
    assert sum(lapack_calls().values()) == rate.psi.iterations > 0

    pairs, solve = [], rtmhd.dispersion.top_root

    def recording(*args, **kwargs):
        pairs.append(solve(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(rtmhd.dispersion, "top_root", recording)
    rtmhd.critical_freq_vertical(jump_neg, grid, 0.3, g=1.0)
    [pair] = pairs
    assert sum(lapack_calls().values()) == pair.iterations > 0

    assert rtmhd.in_growing_domain(forms)
    assert lapack_calls() == {"dpbtrf": 1, "dgbsv": 0, "dgtsv": 0}

    before = dict(stats.counts)
    config = str(ROOT / "configs" / "canonical.json")
    assert main(["verify", config, "--n", "201", "--out", str(tmp_path)]) == 0
    work = stats.since(before)
    assert work["cn_steps"] == 20 * work["cn_factors"] > 0


def _child(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_start_loads_no_heavy_scipy_subpackage():
    # a fresh process, because pytest and the oracles may have loaded these;
    # of scipy only the compiled LAPACK extension is loaded, not even
    # scipy.linalg or scipy.sparse
    code = (
        "import sys\n"
        "import rtmhd.cli\n"
        "from rtmhd.config import load_config\n"
        "load_config('configs/canonical.json')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _child(code) == "['scipy.linalg._flapack']"


def test_profile_metrics_load_no_numpy_ma():
    # np.unique imports numpy.ma; the profile's sample set is deduplicated
    # without it, so a fresh command does not pay for that import
    code = (
        "import sys\n"
        "from rtmhd.config import load_config\n"
        "profile = load_config('configs/canonical.json').profile\n"
        "profile.inf_rho, profile.sup_rho, profile.sup_ratio\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _child(code) == "False"


# One definiteness test and one eigen-solve of each LAPACK route (dgbsv on
# the canonical energy pencil, dgtsv on stiffness against mass), printed
# bit for bit, with _lapack on the route the arguments name.
_ROUTE_CHILD = """
import importlib.util, json, sys

order, route = sys.argv[1:]
refused = []
if order == "scipy-first":
    import scipy.linalg
if route == "fallback":
    # the path load fails, and no loaded extension is there to reuse
    saved = sys.modules.pop("scipy.linalg._flapack", None)
    real_find_spec = importlib.util.find_spec

    def refuse(name, *args, **kwargs):
        if name == "scipy":
            refused.append(name)
            raise ImportError("path load refused")
        return real_find_spec(name, *args, **kwargs)

    importlib.util.find_spec = refuse
import rtmhd
from rtmhd import _lapack
if route == "fallback":
    importlib.util.find_spec = real_find_spec
    if saved is not None:
        sys.modules["scipy.linalg._flapack"] = saved
loaded_linalg = "scipy.linalg" in sys.modules

from rtmhd.config import load_config
from rtmhd.eig import definite, top_root
from rtmhd.operators import grad_stiffness_band, mass_band

cfg = load_config("configs/canonical.json")
grid = rtmhd.Grid1D(cfg.grid.half_length, 201)
profile = rtmhd.build_profile(cfg.profile_spec, grid)
forms = rtmhd.assemble_forms(profile, grid, rtmhd.Frequency(1.0, 0.0), cfg.mag, cfg.params)
energy = forms.energy(1.0)
# the smallest eigenvalue of a pencil (A, B) is minus the top root of A + s B
banded = top_root((energy, forms.j), forms.j, -100.0)
mass = mass_band(grid)
tridiagonal = top_root((grad_stiffness_band(grid), mass), mass, -1e6)
smallest = -banded.value
sigmas = [smallest + d * max(1.0, abs(smallest)) for d in (-1e-3, 0.0, 1e-3)]

import scipy.linalg.lapack as lapack
print(json.dumps({
    "loaded_linalg": loaded_linalg,
    "refused": len(refused),
    "same_routines": all(
        getattr(_lapack, f) is getattr(lapack, f) for f in ("dpbtrf", "dgtsv", "dgbsv")
    ),
    "definite": [definite(energy, forms.j, s) for s in sigmas],
    "pairs": [
        [p.value.hex(), p.vec.tobytes().hex(), p.iterations]
        for p in (banded, tridiagonal)
    ],
}))
"""


def test_lapack_fallback_gives_the_same_bits_in_either_import_order():
    runs = {
        (order, route): json.loads(_child(_ROUTE_CHILD, order, route))
        for order in ("rtmhd-first", "scipy-first")
        for route in ("path", "fallback")
    }
    # the path load leaves scipy.linalg unloaded; the fallback imports it
    assert not runs["rtmhd-first", "path"]["loaded_linalg"]
    assert runs["rtmhd-first", "fallback"]["loaded_linalg"]
    for order in ("rtmhd-first", "scipy-first"):
        assert runs[order, "fallback"]["refused"] == 1
    reference = runs["rtmhd-first", "path"]
    # definite just below the smallest eigenvalue, not just above it
    assert reference["definite"][0] and not reference["definite"][2]
    for run in runs.values():
        assert run["same_routines"]
        assert run["definite"] == reference["definite"]
        assert run["pairs"] == reference["pairs"]
