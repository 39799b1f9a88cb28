import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rtmhd

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


def test_cli_start_loads_no_heavy_scipy_subpackage():
    # a fresh process, because pytest and the oracles may have loaded these
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys\n"
        "import rtmhd.cli\n"
        "from rtmhd.config import load_config\n"
        "load_config('configs/canonical.json')\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special', 'scipy.fft')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
