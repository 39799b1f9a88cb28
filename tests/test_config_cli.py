import contextlib
import io
import json
import math
import os
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rtmhd
from rtmhd import stats
from rtmhd.cli import _growth_at, main
from rtmhd.config import load_config, setup_dict
from rtmhd.dispersion import critical_freq_vertical
from rtmhd.errors import ConfigError
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate

from .conftest import CANON_SPEC, JUMP_NEG_SPEC
from .oracles import run_rate


def _write_config(path, **overrides):
    raw = {
        "profile": {
            "base_density": 1.0,
            "bumps": [{"amp": 0.5, "center": 0.0, "half_width": 1.0}],
        },
        "params": {"mu": 1.0, "g": 9.8, "L": 1.0},
        "mag": {"orientation": "horizontal", "magnitude": 0.0},
        "grid": {"half_length": 8.0, "n": 401},
        "sweep": {"radius": 2.0},
        "verify": {"dt": None, "T": None, "seeds": [0, 1]},
        "output_dir": str(path.parent / "out"),
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return str(path)


def test_load_and_validate(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json"))
    assert cfg.params.g == 9.8
    assert cfg.profile.total_jump > 0
    assert cfg.radius == 2.0


def test_invalid_configs_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path / "a.json", params={"mu": -1, "g": 1, "L": 1}))
    with pytest.raises(ConfigError):
        load_config(
            _write_config(
                tmp_path / "b.json",
                profile={"base_density": 1.0, "bumps": [{"amp": -0.5, "center": 0, "half_width": 1}]},
            )
        )
    with pytest.raises(ConfigError):
        # support not strictly inside [-Lz/2, Lz/2]
        load_config(
            _write_config(
                tmp_path / "c.json",
                profile={"base_density": 1.0, "bumps": [{"amp": 0.5, "center": 0, "half_width": 4.5}]},
            )
        )
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path / "d.json", verify={"dt": float("nan")}))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_cli_rejects_bad_config_with_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path / "bad.json", params={"mu": -1, "g": 1, "L": 1})
    code = main(["profile", path])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "config"
    # an override into a section that is not a JSON object
    path = _write_config(tmp_path / "flat.json", mag="horizontal")
    code = main(["profile", path, "--M", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "config"
    # optional sections that are present but not JSON objects
    for section, value in (("sweep", None), ("verify", None), ("sweep", [])):
        path = _write_config(tmp_path / "section.json", **{section: value})
        with pytest.raises(ConfigError):
            load_config(path)
        code = main(["profile", path])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "config"
    # an output directory that is not a path: no string, or one that holds a
    # NUL or a lone surrogate, which os.makedirs raised ValueError on
    for value in (5, None, "a\0b", "\ud800"):
        path = _write_config(tmp_path / "outdir.json", output_dir=value)
        code = main(["profile", path])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "config"
    # a target frequency that is not finite
    path = _write_config(tmp_path / "c.json")
    for xi in ("nan,1", "inf,1"):
        code = main(["growth", path, "--xi", xi])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "config"


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["profile", str(path)]) == 2
    [line] = capsys.readouterr().out.splitlines()
    assert json.loads(line)["error"] == "config"


@pytest.mark.parametrize("command", ["growth", "mode"])
@pytest.mark.parametrize("xi", ["1e-200,0", "0,-1e-200", "1e160,0", "1e160,1e160"])
def test_cli_rejects_a_xi_whose_square_is_zero_or_infinite(tmp_path, capsys, command, xi):
    # finite components whose |xi|^2 underflows to 0 or overflows
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 33})
    assert main([command, path, f"--xi={xi}"]) == 2
    [line] = capsys.readouterr().out.splitlines()
    err = json.loads(line)
    assert err == {"error": "config", "message": err["message"]}
    assert "|xi|^2" in err["message"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("profile", "base_density"),
        ("bump", "amp"),
        ("bump", "center"),
        ("bump", "half_width"),
        ("params", "mu"),
        ("params", "g"),
        ("params", "L"),
        ("mag", "magnitude"),
        ("grid", "half_length"),
        ("grid", "n"),
    ],
)
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, section, key, value):
    path = tmp_path / "c.json"
    raw = json.loads(open(_write_config(path)).read())
    target = raw["profile"]["bumps"][0] if section == "bump" else raw[section]
    target[key] = value
    path.write_text(json.dumps(raw))
    code = main(["profile", str(path)])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config"


@pytest.mark.parametrize(
    "section, key",
    [
        ("profile", "base_density"),
        ("bump", "amp"),
        ("params", "mu"),
        ("mag", "magnitude"),
        ("grid", "half_length"),
        ("sweep", "radius"),
    ],
)
def test_cli_rejects_integers_too_large_for_float(tmp_path, capsys, section, key):
    # json reads a 400-digit integer as an int, which float() cannot convert
    path = tmp_path / "c.json"
    raw = json.loads(open(_write_config(path)).read())
    target = raw["profile"]["bumps"][0] if section == "bump" else raw[section]
    target[key] = 10**400
    path.write_text(json.dumps(raw))
    code = main(["profile", str(path)])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grid", "n", 201.9),
        ("grid", "n", 33.5),
        ("grid", "n", True),
        ("verify", "seeds", [1.9, 2.2]),
        ("verify", "seeds", [0, True]),
    ],
)
def test_cli_rejects_non_integral_counts(tmp_path, capsys, section, key, value):
    # a fractional grid size or seed was truncated, a boolean read as 0 or 1
    path = tmp_path / "c.json"
    raw = json.loads(open(_write_config(path)).read())
    raw[section][key] = value
    path.write_text(json.dumps(raw))
    code = main(["profile", str(path)])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config"
    assert "integer" in err["message"]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grid", "n", "33"),
        ("verify", "seeds", ["3"]),
        ("params", "mu", "1.0"),
        ("params", "mu", True),
        ("params", "g", False),
        ("params", "L", "1"),
        ("mag", "magnitude", "0.3"),
        ("mag", "magnitude", True),
        ("grid", "half_length", "8"),
        ("sweep", "radius", "2"),
        ("verify", "T", "3"),
        ("verify", "dt", "0.01"),
        ("verify", "dt", True),
        ("profile", "base_density", "1.0"),
        ("bump", "amp", "0.5"),
        ("bump", "center", "0"),
        ("bump", "half_width", True),
        ("verify", "dt", "abc"),
    ],
)
def test_cli_rejects_strings_and_booleans_for_numbers(
    tmp_path, capsys, section, key, value
):
    # float() and int() coerced numeric strings, a boolean read as 0 or 1,
    # and a non-numeric verify dt escaped as a ValueError
    path = tmp_path / "c.json"
    raw = json.loads(open(_write_config(path, grid={"half_length": 8.0, "n": 33})).read())
    target = raw["profile"]["bumps"][0] if section == "bump" else raw[section]
    target[key] = value
    path.write_text(json.dumps(raw))
    code = main(["profile", str(path)])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config"


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        (None, "extra", 1, "'extra'"),
        ("profile", "base", 1.0, "'base'"),
        ("bump", "width", 1.0, "'width'"),
        ("params", "mu2", 1.0, "'mu2'"),
        ("mag", "angle", 0.0, "'angle'"),
        ("grid", "lz", 8.0, "'lz'"),
        ("sweep", "r", 2.0, "'r'"),
        ("verify", "tt", 3.0, "'tt'"),
        ("verify", "seeds", [1, 1], "seed 1"),
        ("verify", "seeds", [0, -1], "seed -1"),
    ],
)
def test_cli_rejects_unknown_keys_and_duplicate_seeds(
    tmp_path, capsys, section, key, value, named
):
    # a misspelt key ran with its default, a repeated seed ran twice, and a
    # negative seed failed in the random generator once verify reached it
    path = tmp_path / "c.json"
    raw = json.loads(open(_write_config(path, grid={"half_length": 8.0, "n": 33})).read())
    if section is None:
        target = raw
    elif section == "bump":
        target = raw["profile"]["bumps"][0]
    else:
        target = raw[section]
    target[key] = value
    path.write_text(json.dumps(raw))
    code = main(["profile", str(path)])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config"
    assert named in err["message"]


def test_integral_floats_are_counts(tmp_path):
    path = _write_config(
        tmp_path / "c.json",
        grid={"half_length": 8.0, "n": 201.0},
        verify={"seeds": [3.0, 1]},
    )
    cfg = load_config(path)
    assert cfg.grid.n == 201 and isinstance(cfg.grid.n, int)
    assert cfg.seeds == (3, 1)


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"sweep": {"radius": 1e4}}, "lattice"),
        ({"sweep": {"radius": 1e300}, "params": {"mu": 1.0, "g": 9.8, "L": 1e300}}, "lattice"),
        ({"grid": {"half_length": 8.0, "n": 10**6}}, "grid n"),
    ],
    ids=["radius", "radius-overflow", "n"],
)
def test_cli_caps_the_work_up_front(tmp_path, capsys, overrides, named):
    # a radius of 1e4 swept for many seconds, 1e300 overflowed to exit 1,
    # and n = 10^6 built its profile before anything bounded it
    path = _write_config(tmp_path / "c.json", **overrides)
    t0 = time.perf_counter()
    code = main(["sweep", path])
    elapsed = time.perf_counter() - t0
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert err["error"] == "config" and named in err["message"]
    assert elapsed < 1.0
    assert not os.path.exists(tmp_path / "out" / "sweep_summary.json")


def test_caps_admit_the_largest_lattice_and_grid(tmp_path):
    from rtmhd.config import MAX_GRID_N, MAX_LATTICE_POINTS

    radius = math.sqrt(MAX_LATTICE_POINTS / math.pi)
    cfg = load_config(
        _write_config(
            tmp_path / "c.json",
            grid={"half_length": 8.0, "n": MAX_GRID_N},
            sweep={"radius": radius},
        )
    )
    assert cfg.grid.n == MAX_GRID_N and cfg.radius == radius
    with pytest.raises(ConfigError, match="lattice"):
        load_config(_write_config(tmp_path / "d.json", sweep={"radius": 1.001 * radius}))


def test_critical_at_the_largest_grid_is_fast(tmp_path):
    # the trace doubles n from MAX_GRID_N up to about 1.3e9 nodes; only the
    # support's nodes are solved on
    from rtmhd.config import MAX_GRID_N

    path = _write_config(
        tmp_path / "c.json",
        profile={
            "base_density": 5.0,
            "bumps": [
                {"amp": 0.6, "center": 1.0, "half_width": 0.5},
                {"amp": -1.8, "center": -1.0, "half_width": 0.5},
            ],
        },
        params={"mu": 1.0, "g": 1.0, "L": 1.0},
        grid={"half_length": 8.0, "n": MAX_GRID_N},
    )
    t0 = time.perf_counter()
    code = main(["critical", path])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 2.0
    critical = json.loads((tmp_path / "out" / "critical.json").read_text())
    assert critical["kind"] == "finite" and critical["value"] > 0


def _verify_outputs(tmp_path, verify):
    path = _write_config(
        tmp_path / "c.json",
        grid={"half_length": 8.0, "n": 201},
        verify={**verify, "seeds": [0]},
    )
    assert main(["verify", path]) == 0
    out = load_config(path).output_dir
    report = json.load(open(os.path.join(out, "verify.json")))
    times = np.loadtxt(os.path.join(out, "timeseries.csv"), delimiter=",", skiprows=1)
    return report, times[:, 0]


def test_cli_verify_default_schedule(tmp_path, capsys):
    # neither dt nor T: to T = 3/lambda in the 20 steps that keep the rate
    # error within its budget, each one sampled
    report, t = _verify_outputs(tmp_path, {"dt": None, "T": None})
    lam, dt, T = report["lambda_pred"], report["dt"], report["T"]
    assert T == 3.0 / lam and dt == T / 20
    assert report["steps"] == 20
    budget = rtmhd.verify.CN_RATE_BUDGET
    assert report["cn_rate_err"] == (lam * dt) ** 2 / 12 <= budget
    assert report["rel_err"] <= 2 * budget
    np.testing.assert_allclose(t, np.arange(21) * T / 20, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "verify, steps",
    [
        ({"dt": 0.05, "T": None}, 160),
        ({"dt": None, "T": 6.0}, 15),
        ({"dt": None, "T": 1.0}, 9),
    ],
    ids=["dt", "T", "short-T"],
)
def test_cli_verify_explicit_dt_or_T_keeps_fixed_schedule(
    tmp_path, capsys, verify, steps
):
    # an explicit dt or T: T = 3/lambda unless set, dt the default schedule
    # to T unless set (a short T still gets the 9 steps a rate fit needs),
    # and a sample every steps // 20 steps (20 the steps of a default run)
    # and at the end
    report, t = _verify_outputs(tmp_path, verify)
    lam = report["lambda_pred"]
    T = verify["T"] or 3.0 / lam
    dt = verify["dt"] or rtmhd.verify.default_schedule(lam, T)
    assert (report["dt"], report["T"], report["steps"]) == (dt, T, steps)
    assert report["cn_rate_err"] == (lam * dt) ** 2 / 12
    every = max(1, steps // 20)
    assert len(t) == 1 + steps // every + (steps % every > 0)
    np.testing.assert_allclose(t[1:3], [every * dt, 2 * every * dt], rtol=1e-13)


def test_cli_failed_sweep_leaves_nothing_verify_accepts(tmp_path, capsys):
    # a vertical field above M_c grows at no frequency: sweep exits 3 with
    # EmptyDomain before it writes a table, a summary or its effective
    # config, so a fresh directory holds none, and another config's good
    # sweep is left as it was, which verify of the failed config refuses as
    # not its sweep
    good, failed = tmp_path / "good.json", tmp_path / "failed.json"
    good.write_text(json.dumps(_small_config(CANON_SPEC, 9.8, "horizontal", 0.0, 65, 2.0)))
    failed.write_text(json.dumps(_small_config(JUMP_NEG_SPEC, 1.0, "vertical", 1.2, 65, 2.0)))
    good, failed = str(good), str(failed)
    sweep_files = ("sweep_summary.json", "dispersion.csv", "effective_config.json")

    def run(*argv):
        code = main(list(argv))
        lines = capsys.readouterr().out.splitlines()
        return code, json.loads(lines[-1]) if code else None

    fresh = tmp_path / "fresh"
    code, err = run("sweep", failed, "--out", str(fresh))
    assert (code, err["error"]) == (3, "EmptyDomain")
    assert not any((fresh / name).exists() for name in sweep_files)

    stale = tmp_path / "stale"
    assert run("sweep", good, "--out", str(stale)) == (0, None)
    before = [(stale / name).read_bytes() for name in sweep_files]
    code, err = run("sweep", failed, "--out", str(stale))
    assert (code, err["error"]) == (3, "EmptyDomain")
    assert [(stale / name).read_bytes() for name in sweep_files] == before
    code, err = run("verify", failed, "--out", str(stale))
    assert (code, err["error"]) == (2, "config")
    assert "are not a sweep of this config" in err["message"]
    assert [(stale / name).read_bytes() for name in sweep_files] == before


def test_cli_failed_verify_writes_its_config_beside_its_run(tmp_path, capsys):
    # verify writes its run before its verdicts; a RateMismatch (lambda dt = 1,
    # where Crank-Nicolson measures the rate log 3 = 1.0986 lambda) leaves the
    # run beside its own effective config and no sharpness report, in a fresh
    # directory and in one that held another config's verify
    setup = _small_config(CANON_SPEC, 9.8, "horizontal", 0.0, 201, 2.0, seeds=[0])
    good, failed = tmp_path / "good.json", tmp_path / "failed.json"
    good.write_text(json.dumps(setup))
    reused = tmp_path / "reused"
    assert main(["verify", str(good), "--out", str(reused)]) == 0
    assert (reused / "sharpness.json").exists()
    lam = json.loads((reused / "verify.json").read_text())["lambda_pred"]
    dt, T = 1.0 / lam, 10.0 / lam
    failed.write_text(json.dumps({**setup, "verify": {"dt": dt, "T": T, "seeds": [0]}}))
    for out in (tmp_path / "fresh", reused):
        capsys.readouterr()
        code = main(["verify", str(failed), "--out", str(out)])
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (code, err["error"]) == (3, "RateMismatch")
        config = json.loads((out / "effective_config.json").read_text())
        assert config == load_config(str(failed)).to_dict() | {"output_dir": str(out)}
        report = json.loads((out / "verify.json").read_text())
        assert (report["dt"], report["T"], report["steps"]) == (dt, T, 10)
        assert len((out / "timeseries.csv").read_text().splitlines()) == 12
        assert not (out / "sharpness.json").exists()


def test_cli_verify_short_horizon_exits_2_before_stepping(tmp_path, capsys):
    # too few steps for the rate fit is a config error found before stepping
    before = dict(stats.counts)
    grid = {"half_length": 8.0, "n": 201}
    for verify in ({"dt": 0.1, "T": 0.3}, {"dt": 1.0}):
        path = _write_config(tmp_path / "c.json", grid=grid, verify=verify)
        code = main(["verify", path])
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        assert err["error"] == "config"
        assert "steps" in err["message"] and "T = " in err["message"]
        assert stats.since(before)["cn_steps"] == 0


@pytest.mark.parametrize(
    "verify", [{"dt": 1e-300}, {"dt": 1e-300, "T": 1e300}], ids=["tiny-dt", "infinite"]
)
def test_cli_verify_caps_the_steps_before_factoring(tmp_path, capsys, verify):
    # T/dt above MAX_STEPS, or not finite, is a config error found before any
    # factorization; it used to step for ever, or overflow in round(T/dt)
    before = dict(stats.counts)
    path = _write_config(
        tmp_path / "c.json", grid={"half_length": 8.0, "n": 201}, verify=verify
    )
    code = main(["verify", path])
    [line] = capsys.readouterr().out.splitlines()
    err = json.loads(line)
    assert code == 2
    assert err["error"] == "config"
    assert f"{rtmhd.verify.MAX_STEPS} steps" in err["message"]
    work = stats.since(before)
    assert work["cn_factors"] == work["cn_steps"] == 0


def test_cli_verify_overflowing_horizon_exits_2_before_factoring(tmp_path, capsys):
    # lambda T = 0.374 * 1e4 e-folds would overflow the norms: a config error
    # found before any factorization, with no numpy overflow warning; it used
    # to step 20 000 times and exit 3 calling the series non-positive
    before = dict(stats.counts)
    path = _write_config(
        tmp_path / "c.json",
        grid={"half_length": 8.0, "n": 201},
        verify={"dt": 0.5, "T": 1e4},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", path])
    [line] = capsys.readouterr().out.splitlines()
    err = json.loads(line)
    assert code == 2
    assert err["error"] == "config"
    assert "e-folds" in err["message"] and "T = 10000" in err["message"]
    work = stats.since(before)
    assert work["cn_factors"] == work["cn_steps"] == 0


@pytest.mark.parametrize("M", [0.0, 0.3], ids=["M0", "vertical-M0.3"])
@pytest.mark.parametrize("dt", [None, 0.05], ids=["default", "dt"])
def test_cli_verify_norm_march_matches_the_state_route(tmp_path, capsys, dt, M):
    # the command marches the eigenmode column joined to the sharpness runs;
    # joining them must not change it from the column marched alone.  A
    # vertical field induces N at every xi.
    path = _write_config(
        tmp_path / "c.json",
        mag={"orientation": "vertical", "magnitude": M},
        grid={"half_length": 8.0, "n": 201},
        verify={"dt": dt, "T": None, "seeds": [0, 1]},
    )
    assert main(["verify", path]) == 0
    cfg = load_config(path)
    report = json.load(open(os.path.join(cfg.output_dir, "verify.json")))
    series = np.loadtxt(
        os.path.join(cfg.output_dir, "timeseries.csv"), delimiter=",", skiprows=1
    )
    _check_series_is_the_column_alone(cfg, report, series)
    assert (M > 0) == bool(series[1:, 3].all())


def _check_series_is_the_column_alone(cfg, report, series):
    """The verify command's rate and norm series are those of the eigenmode
    column marched alone."""
    growth = _growth_at(cfg, rtmhd.Frequency(*report["xi"]))
    mode = rtmhd.build_mode(growth, mode_tol=rtmhd.verify.MODE_TOL)
    z = rtmhd.verify.eigenmode_column(mode)
    est, times, norms = run_rate(
        cfg.profile, cfg.mag, cfg.params, cfg.grid, mode.forms.xi, z,
        report["dt"], report["T"],
    )
    assert abs(report["lambda_meas"] - est.rate) <= 1e-12 * abs(est.rate)
    assert np.array_equal(series[:, 0], times)
    np.testing.assert_allclose(series[:, 1:], norms, rtol=1e-12, atol=0.0)


def test_cli_verify_factors_once_per_stepped_problem(tmp_path, capsys):
    # at M = 0 the eigenmode run steps the sharpness problem of its own
    # orbit, so it adds no factorization; an explicit dt makes it its own
    problems = []
    for dt in (None, 0.05):
        path = _write_config(
            tmp_path / "c.json",
            grid={"half_length": 8.0, "n": 201},
            verify={"dt": dt, "T": None, "seeds": [0, 1]},
        )
        before = dict(stats.counts)
        assert main(["verify", path]) == 0
        out = load_config(path).output_dir
        sharp = json.load(open(os.path.join(out, "sharpness.json")))
        # one stepped problem per |xi|^2 at M = 0, for rates read off |xi|
        problems.append(len({x1 * x1 + x2 * x2 for x1, x2 in sharp["frequencies"]}))
        assert stats.since(before)["cn_factors"] == problems[-1] + (dt is not None)
    assert problems[0] == problems[1] > 1


def test_cli_verify_eigenmode_joins_the_run_of_the_opposite_field(tmp_path, capsys):
    # a horizontal field rotated onto xi1 = (0, -1) is the negative of the
    # one rotated onto its orbit's (0, 1); the step is the same under b -> -b
    # with N -> -N, so the eigenmode run adds no factorization
    path = _write_config(
        tmp_path / "c.json", mag={"orientation": "horizontal", "magnitude": 0.3}
    )
    before = dict(stats.counts)
    assert main(["verify", path]) == 0
    cfg = load_config(path)
    report = json.load(open(os.path.join(cfg.output_dir, "verify.json")))
    sharp = json.load(open(os.path.join(cfg.output_dir, "sharpness.json")))
    assert report["xi"] == [0.0, -1.0] and [0.0, 1.0] in sharp["frequencies"]
    # each sharpness frequency is a problem of its own, and the eigenmode
    # run joins the one of (0, 1)
    assert stats.since(before)["cn_factors"] == len(sharp["frequencies"]) == 5
    series = np.loadtxt(
        os.path.join(cfg.output_dir, "timeseries.csv"), delimiter=",", skiprows=1
    )
    _check_series_is_the_column_alone(cfg, report, series)


def test_cli_verify_rate_miss_exits_3(tmp_path, capsys):
    # lambda dt ~ 0.9: the eigenmode's measured rate misses lambda by ~8 %
    path = _write_config(
        tmp_path / "c.json",
        grid={"half_length": 8.0, "n": 201},
        verify={"dt": 2.5, "T": 30, "seeds": [0]},
    )
    out = load_config(path).output_dir
    code = main(["verify", path])
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3
    assert err["error"] == "RateMismatch"
    report = json.load(open(os.path.join(out, "verify.json")))
    assert report["rel_err"] > 0.02
    assert f"{report['rel_err']:.3e}" in err["message"]
    assert not os.path.exists(os.path.join(out, "sharpness.json"))


def test_cli_growth_matches_library(tmp_path, capsys):
    path = _write_config(tmp_path / "c.json")
    code = main(["growth", path, "--xi", "0,1"])
    captured = capsys.readouterr()
    assert code == 0
    line = [l for l in captured.out.splitlines() if l.startswith("lambda=")][0]
    lam_cli = float(line.split("=")[1])

    cfg = load_config(path)
    forms = assemble_forms(
        cfg.profile, cfg.grid, rtmhd.Frequency(0.0, 1.0), cfg.mag, cfg.params
    )
    lam_lib = growth_rate(forms).lam
    assert lam_cli == lam_lib  # bit-exact: CLI is a thin dispatch

    payload = json.load(open(os.path.join(cfg.output_dir, "growth.json")))
    assert payload["lambda"] == lam_lib


def test_cli_sweep_then_verify_pipeline(tmp_path, capsys):
    path = _write_config(tmp_path / "c.json")
    assert main(["sweep", path]) == 0
    out = load_config(path).output_dir
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    assert summary["Lambda"] > 0
    assert main(["verify", path]) == 0
    report = json.load(open(os.path.join(out, "verify.json")))
    assert report["xi"] == summary["xi1"]
    assert report["rel_err"] <= 0.02
    assert os.path.exists(os.path.join(out, "timeseries.csv"))
    header = open(os.path.join(out, "timeseries.csv")).readline().strip()
    assert header == "t,norm_rho,norm_u,norm_N"
    sharp = json.load(open(os.path.join(out, "sharpness.json")))
    assert sharp["max_measured_rate"] <= sharp["Lambda"] * 1.02
    assert sharp["seeds"] == [0, 1]


def test_cli_freq_thresholds(tmp_path, capsys):
    path = _write_config(
        tmp_path / "h.json", mag={"orientation": "horizontal", "magnitude": 1.0}
    )
    assert main(["freq-thresholds", path]) == 0
    out = load_config(path).output_dir
    lines = open(os.path.join(out, "thresholds.csv")).read().strip().splitlines()
    assert lines[0] == "xi1,xi2,S"
    assert len(lines) > 1
    path_v = _write_config(
        tmp_path / "v.json", mag={"orientation": "vertical", "magnitude": 0.3}
    )
    assert main(["freq-thresholds", path_v]) == 0
    out_v = load_config(path_v).output_dir
    payload = json.load(open(os.path.join(out_v, "thresholds.json")))
    assert payload["xi_vc"] == 0.0  # positive total jump


def test_cli_freq_thresholds_rows_cover_the_lattice_disc(tmp_path, capsys):
    # (29, 0), (21, 28) and (28, 21) lie on the circle, but 0.29 * 100 is
    # 28.999999999999996 and |(0.21, 0.28)| is 0.35000000000000003 in
    # floating point; the rows use the sweep's lattice tolerance
    for radius, on_circle in ((0.29, {(29, 0)}), (0.35, {(21, 28), (28, 21)})):
        path = _write_config(
            tmp_path / f"r{radius}.json",
            params={"mu": 1.0, "g": 9.8, "L": 100.0},
            mag={"orientation": "horizontal", "magnitude": 1.0},
            grid={"half_length": 8.0, "n": 31},
            sweep={"radius": radius},
            output_dir=str(tmp_path / f"out{radius}"),
        )
        assert main(["freq-thresholds", path]) == 0
        table = open(tmp_path / f"out{radius}" / "thresholds.csv").read()
        got = [
            (round(float(x1) * 100), round(float(x2) * 100))
            for x1, x2, _ in (line.split(",") for line in table.split()[1:])
        ]
        k = round(radius * 100)
        want = [
            (i, j)
            for i in range(1, k + 1)
            for j in range(k + 1)
            if i * i + j * j <= k * k
        ]
        assert got == want
        assert on_circle <= set(got)


def test_cli_freq_thresholds_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    # only OutOfRange means "no threshold"; a failed solve must not look like one
    import rtmhd.dispersion
    from rtmhd.errors import FactorizationBreakdown

    def failing(*args, **kwargs):
        raise FactorizationBreakdown("injected eigen-solve failure")

    monkeypatch.setattr(rtmhd.dispersion, "top_root", failing)
    path = _write_config(
        tmp_path / "h.json",
        mag={"orientation": "horizontal", "magnitude": 1.0},
        grid={"half_length": 8.0, "n": 201},
    )
    code = main(["freq-thresholds", path])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.out.strip().splitlines()[-1])
    assert err["error"] == "FactorizationBreakdown"
    out = load_config(path).output_dir
    assert not os.path.exists(os.path.join(out, "thresholds.csv"))


def test_cli_sweep_artifacts_deterministic(tmp_path):
    path = _write_config(tmp_path / "c.json")
    out = load_config(path).output_dir
    assert main(["sweep", path]) == 0
    first = open(os.path.join(out, "dispersion.csv"), "rb").read()
    first_summary = open(os.path.join(out, "sweep_summary.json"), "rb").read()
    assert main(["sweep", path]) == 0
    assert open(os.path.join(out, "dispersion.csv"), "rb").read() == first
    assert open(os.path.join(out, "sweep_summary.json"), "rb").read() == first_summary


def test_cli_profile_and_critical(tmp_path, capsys):
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 129})
    assert main(["profile", path]) == 0
    out = load_config(path).output_dir
    lines = open(os.path.join(out, "profile.csv")).read().strip().splitlines()
    assert lines[0] == "x3,rho,drho"
    assert main(["critical", path]) == 0
    captured = capsys.readouterr()
    assert "M_c=INF" in captured.out
    trace = open(os.path.join(out, "critical_trace.csv")).read().splitlines()
    assert trace[0] == "Lz,value"
    assert len(trace) >= 4


def test_cli_overrides_change_effective_config(tmp_path):
    path = _write_config(tmp_path / "c.json")
    out_dir = str(tmp_path / "elsewhere")
    code = main(
        ["profile", path, "--n", "257", "--Lz", "10", "--M", "0.7",
         "--radius", "1.5", "--out", out_dir]
    )
    assert code == 0
    eff = json.load(open(os.path.join(out_dir, "effective_config.json")))
    assert eff["grid"]["n"] == 257
    assert eff["grid"]["half_length"] == 10.0
    assert eff["mag"]["magnitude"] == 0.7
    assert eff["sweep"]["radius"] == 1.5
    assert eff["output_dir"] == out_dir
    # everything else untouched
    assert eff["params"] == {"mu": 1.0, "g": 9.8, "L": 1.0}


def test_cli_io_failure_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    path = _write_config(tmp_path / "c.json", output_dir=str(blocker / "out"))
    code = main(["profile", path])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "io"


def test_cli_mode_command(tmp_path, capsys):
    path = _write_config(tmp_path / "c.json")
    code = main(["mode", path, "--xi", "1,0"])
    assert code == 3  # coarse default grid: residual gate fires
    path2 = _write_config(tmp_path / "fine.json", grid={"half_length": 8.0, "n": 2001})
    # widen the profile so the residual tolerance is met at n = 2001
    cfgram = json.loads(open(path2).read())
    cfgram["profile"]["bumps"][0]["half_width"] = 3.98
    cfgram["params"]["L"] = 0.9
    open(path2, "w").write(json.dumps(cfgram))
    code = main(["mode", path2, "--xi", "1.1111111111111112,0"])
    captured = capsys.readouterr()
    assert code == 0
    out = load_config(path2).output_dir
    assert os.path.exists(os.path.join(out, "mode.json"))
    assert os.path.exists(os.path.join(out, "mode.csv"))


def test_cli_env_var_output(tmp_path, monkeypatch):
    path = _write_config(tmp_path / "c.json")
    env_out = str(tmp_path / "envout")
    monkeypatch.setenv("RTMHD_OUT", env_out)
    assert main(["profile", path]) == 0
    assert os.path.exists(os.path.join(env_out, "profile.csv"))


def test_canonical_config_ships_with_repo():
    root = os.path.join(os.path.dirname(__file__), "..", "configs", "canonical.json")
    cfg = load_config(root)
    assert cfg.radius == 4.0


def test_cli_sweep_point_failure_exits_3(tmp_path, capsys, monkeypatch):
    import rtmhd.dispersion
    from rtmhd.errors import BracketFailure

    real = rtmhd.dispersion.growth_rate

    def failing(forms, **kwargs):
        if (forms.xi.xi1, forms.xi.xi2) == (1.0, 0.0):
            raise BracketFailure("injected failure at xi = (1, 0)")
        return real(forms, **kwargs)

    monkeypatch.setattr(rtmhd.dispersion, "growth_rate", failing)
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 201})
    code = main(["sweep", path])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.out.strip().splitlines()[-1])
    assert err["error"] == "BracketFailure"
    out = load_config(path).output_dir
    assert not os.path.exists(os.path.join(out, "sweep_summary.json"))


def test_cli_builds_profile_once(tmp_path):
    path = _write_config(tmp_path / "c.json")
    before = dict(stats.counts)
    assert main(["profile", path, "--n", "257", "--M", "0.7"]) == 0
    assert stats.since(before)["profiles"] == 1


JUMP_NEG_PROFILE = {
    "base_density": 5.0,
    "bumps": [
        {"amp": 0.6, "center": 1.0, "half_width": 0.5},
        {"amp": -1.8, "center": -1.0, "half_width": 0.5},
    ],
}
CANONICAL_PROFILE = {
    "base_density": 1.0,
    "bumps": [{"amp": 0.5, "center": 0.0, "half_width": 1.0}],
}
CANONICAL_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "canonical.json"


def _count_rho_points(monkeypatch) -> list[int]:
    """Sizes of every rho evaluation from here on."""
    points = []
    rho = rtmhd.DensityProfile.rho

    def counting(self, x):
        points.append(np.size(x))
        return rho(self, x)

    monkeypatch.setattr(rtmhd.DensityProfile, "rho", counting)
    return points


@pytest.mark.parametrize("n, samples", [(17, 219), (201, 2211)])
def test_load_config_evaluates_no_rho_on_a_positive_floor(tmp_path, monkeypatch, n, samples):
    # the positivity floor base + I sum(min(a, 0) w) certifies both profiles,
    # so loading samples nothing; the metrics wait for their first read
    paths = [
        str(CANONICAL_CONFIG),
        _write_config(
            tmp_path / "neg.json",
            profile=JUMP_NEG_PROFILE,
            mag={"orientation": "vertical", "magnitude": 0.3},
            grid={"half_length": 8.0, "n": n},
        ),
    ]
    points = _count_rho_points(monkeypatch)
    cfgs = [load_config(path) for path in paths]
    assert points == []
    # the first read samples rho once: the grid plus 10x its density across
    # every bump support (801 + 8010 points for the shipped config)
    for cfg in cfgs:
        assert cfg.profile.sup_rho >= cfg.profile.inf_rho > 0
    assert points == [8811, samples]
    # the ratio zoom reuses those samples and adds only its own points
    assert all(cfg.profile.sup_ratio > 0 for cfg in cfgs)
    assert set(points[2:]) == {rtmhd.profiles._ZOOM_POINTS}


def _count_zooms(monkeypatch) -> list[int]:
    """One entry per sup_ratio zoom from here on."""
    calls = []
    real = rtmhd.profiles._polished_sup_ratio
    monkeypatch.setattr(
        rtmhd.profiles,
        "_polished_sup_ratio",
        lambda *args: calls.append(1) or real(*args),
    )
    return calls


@pytest.mark.parametrize(
    "command, profile, orientation, n, zooms",
    [
        ("critical", JUMP_NEG_PROFILE, "vertical", 17, 0),
        ("freq-thresholds", JUMP_NEG_PROFILE, "vertical", 201, 0),
        ("freq-thresholds", JUMP_NEG_PROFILE, "horizontal", 201, 0),
        ("sweep", CANONICAL_PROFILE, "horizontal", 201, 0),
        ("growth", CANONICAL_PROFILE, "horizontal", 201, 0),
        ("verify", CANONICAL_PROFILE, "horizontal", 201, 0),
        ("profile", CANONICAL_PROFILE, "horizontal", 201, 1),
    ],
)
def test_only_commands_that_read_sup_ratio_zoom_it(
    tmp_path, monkeypatch, command, profile, orientation, n, zooms
):
    # a rate is bracketed by the grid's own drho/rho, so only profile's
    # metrics read sup_ratio; verify reads a sweep's table back, whose rate
    # cap is that bound too
    calls = _count_zooms(monkeypatch)
    path = _write_config(
        tmp_path / "c.json",
        profile=profile,
        mag={"orientation": orientation, "magnitude": 0.3},
        grid={"half_length": 8.0, "n": n},
    )
    if command == "verify":
        assert main(["sweep", path]) == 0
    extra = ["--xi", "1,0"] if command == "growth" else []
    assert main([command, path, *extra]) == 0
    assert len(calls) == zooms


def test_cli_grid_between_the_positive_drho_grows_nothing(tmp_path, monkeypatch, capsys):
    # the bump's support [0.2, 0.8] lies between the nodes 0 and 8/9 of the
    # n = 17 grid, so drho = 0 at every node: the grid bound is 0, E0 = 0,
    # and no frequency grows, as under the sup drho/rho bracket, with no zoom
    zooms = _count_zooms(monkeypatch)
    path = _write_config(
        tmp_path / "c.json",
        profile={"base_density": 1.0,
                 "bumps": [{"amp": 0.5, "center": 0.5, "half_width": 0.3}]},
        grid={"half_length": 8.0, "n": 17},
    )
    assert main(["sweep", path]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "EmptyDomain"
    assert main(["growth", path, "--xi", "1,0"]) == 0
    assert capsys.readouterr().out == "no growing mode\n"
    assert zooms == []


def test_cli_verify_refuses_another_configs_sweep(tmp_path, capsys):
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 201})
    out = load_config(path).output_dir
    assert main(["sweep", path, "--M", "0.3"]) == 0
    capsys.readouterr()
    assert main(["verify", path]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not os.path.exists(os.path.join(out, "verify.json"))

    # a summary without the stamp is refused too
    assert main(["sweep", path]) == 0
    summary_path = os.path.join(out, "sweep_summary.json")
    summary = json.load(open(summary_path))
    assert summary["config"]["mag"]["magnitude"] == 0.0
    assert summary["config"]["radius"] == 2.0
    del summary["config"]
    with open(summary_path, "w") as f:
        json.dump(summary, f)
    capsys.readouterr()
    assert main(["verify", path]) == 2


def _drop_fourth_line(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:3] + lines[4:])


def _third_row(edit):
    """The table with the fields x1, x2, member, lambda of its third row
    replaced by edit(fields)."""

    def malform(text):
        lines = text.splitlines(keepends=True)
        lines[3] = ",".join(edit(lines[3].strip().split(","))) + "\n"
        return "".join(lines)

    return malform


# file of the sweep's output directory -> its malformed text
MALFORMED_SWEEPS = {
    "truncated-summary": ("sweep_summary.json", lambda text: '{"config": '),
    "list-summary": ("sweep_summary.json", lambda text: "[1,2]"),
    "garbage-row": ("dispersion.csv", lambda text: text + "garbage\n"),
    "deleted-row": ("dispersion.csv", _drop_fourth_line),
    "infinite-rate": ("dispersion.csv", _third_row(lambda f: f[:3] + ["inf"])),
    "nan-rate": ("dispersion.csv", _third_row(lambda f: f[:3] + ["nan"])),
    "negative-rate": ("dispersion.csv", _third_row(lambda f: f[:3] + ["-0.5"])),
    "rate-above-the-cap": ("dispersion.csv", _third_row(lambda f: f[:3] + ["1e300"])),
    "rate-of-a-non-member": ("dispersion.csv", _third_row(lambda f: f[:2] + ["0", f[3]])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SWEEPS))
def test_cli_verify_refuses_a_malformed_sweep(tmp_path, capsys, case):
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 201})
    out = Path(load_config(path).output_dir)
    assert main(["sweep", path]) == 0
    name, malform = MALFORMED_SWEEPS[case]
    (out / name).write_text(malform((out / name).read_text()))
    capsys.readouterr()
    assert main(["verify", path]) == 2
    [line] = capsys.readouterr().out.splitlines()
    err = json.loads(line)
    assert set(err) == {"error", "message"} and err["error"] == "config"
    assert not (out / "verify.json").exists()


def test_cli_verify_singular_step_system_exits_3(tmp_path, capsys, monkeypatch):
    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(rtmhd.verify, "splu", singular)
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 201})
    assert main(["verify", path]) == 3
    [line] = capsys.readouterr().out.splitlines()
    err = json.loads(line)
    assert err["error"] == "SolverSingular" and "exactly singular" in err["message"]
    assert not os.path.exists(os.path.join(load_config(path).output_dir, "verify.json"))


def test_cli_verify_skips_members_without_a_rate_with_or_without_a_sweep(
    tmp_path, capsys
):
    # just above |xi|_vc the smallest lattice |xi| is a member whose rate is
    # unresolved; verify leaves it out of its table whether it sweeps in
    # process or reads a sweep's dispersion.csv, and both runs agree
    grid = rtmhd.Grid1D(8.0, 801)
    prof = rtmhd.build_profile(JUMP_NEG_SPEC, grid)
    L = 1.0 / (critical_freq_vertical(prof, grid, 0.3, g=1.0) * (1.0 + 1e-9))
    runs = {}
    for label in ("in_process", "from_sweep"):
        out = tmp_path / label
        path = _write_config(
            tmp_path / f"{label}.json",
            **setup_dict(
                JUMP_NEG_SPEC,
                rtmhd.PhysicalParams(mu=1.0, g=1.0, L=L),
                rtmhd.MagneticConfig(rtmhd.Orientation.VERTICAL, 0.3),
                grid,
            ),
            sweep={"radius": 2.0 / L},
            output_dir=str(out),
        )
        if label == "from_sweep":
            assert main(["sweep", path]) == 0
            rows = (out / "dispersion.csv").read_text().splitlines()[1:]
            assert sum(row.endswith(",1,") for row in rows) == 4
        capsys.readouterr()
        code = main(["verify", path])
        runs[label] = code, capsys.readouterr().out, (out / "timeseries.csv").read_text()
    assert runs["in_process"] == runs["from_sweep"]


def test_cli_verify_covers_distinct_sign_orbits(tmp_path):
    path = _write_config(tmp_path / "c.json", grid={"half_length": 8.0, "n": 201})
    out = load_config(path).output_dir
    assert main(["sweep", path]) == 0
    assert main(["verify", path]) == 0
    member_orbits = set()
    with open(os.path.join(out, "dispersion.csv")) as f:
        next(f)
        for line in f:
            x1, x2, member, _ = line.strip().split(",")
            if member == "1":
                member_orbits.add((abs(float(x1)), abs(float(x2))))
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    sharp = json.load(open(os.path.join(out, "sharpness.json")))
    orbits = [(abs(x1), abs(x2)) for x1, x2 in sharp["frequencies"]]
    assert len(set(orbits)) == len(orbits)
    assert len(orbits) == min(8, len(member_orbits))
    assert set(orbits) <= member_orbits
    assert tuple(abs(v) for v in summary["xi1"]) in orbits


# what a hand-edited config may hold where a value belongs
_ODD_VALUES = [
    0, -1, 0.5, 17.0, 17.5, 1e-300, 1e300, 10**400, math.nan, math.inf,
    True, "1.0", "vertical", None, [], {},
]
_XI_TEXTS = st.one_of(
    st.sampled_from(["1,0", "0,0", "1e-200,0", "1e160,0", "nan,1", "1", "a,b", "1,2,3", ""]),
    st.builds("{!r},{!r}".format, st.floats(), st.floats()),
)

# --out below a fresh directory holding the config c.json: a missing nested
# path, a path through the config file, the file itself, a non-ASCII name, a
# name too long for the file system, a NUL and a lone surrogate
_OUT_TEXTS = st.one_of(
    st.sampled_from(
        ["out", "a/b/c", "c.json/out", "c.json", "\u00fc-\u4e2d", "x" * 300, "a\0b", "\ud800"]
    ),
    st.text(alphabet="a\u00e9\u4e2d -/", min_size=1, max_size=12),
)


# verify's own inputs: negative, tiny and huge steps, horizons and seeds
_VERIFY_DT = [None, -1.0, 1e-300, 0.05, 1.0, 1e300]
_VERIFY_T = [None, -1.0, 1e-300, 5.0, 1e300]
_SEED_LISTS = st.lists(st.sampled_from([-1, 0, 7, 2**64]), min_size=1, max_size=2)


def _small_config(spec, g, orientation, M, n, radius, dt=None, T=None, seeds=(0, 1)):
    return {
        **setup_dict(
            spec,
            rtmhd.PhysicalParams(mu=1.0, g=g, L=1.0),
            rtmhd.MagneticConfig(rtmhd.Orientation(orientation), M),
            rtmhd.Grid1D(8.0, n),
        ),
        "sweep": {"radius": radius},
        "verify": {"dt": dt, "T": T, "seeds": list(seeds)},
    }


def _paths(node, path=()):
    """The path of every value in a JSON tree, each before its children."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


@st.composite
def _mutated_small_configs(draw):
    """A config with n = 17-33, radius <= 2 and drawn verify inputs, then at
    most one value set to an odd one, deleted or given an unknown sibling
    key."""
    raw = _small_config(
        draw(st.sampled_from([CANON_SPEC, JUMP_NEG_SPEC])),
        draw(st.sampled_from([1.0, 9.8])),
        draw(st.sampled_from(["horizontal", "vertical"])),
        draw(st.sampled_from([0.0, 0.3, 1.2])),
        draw(st.integers(17, 33)),
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        draw(st.sampled_from(_VERIFY_DT)),
        draw(st.sampled_from(_VERIFY_T)),
        draw(_SEED_LISTS),
    )
    *parent, key = draw(st.sampled_from(list(_paths(raw))))
    node = raw
    for step in parent:
        node = node[step]
    action = draw(st.sampled_from(["keep", "set", "delete", "add"]))
    if action == "set":
        node[key] = draw(st.sampled_from(_ODD_VALUES))
    elif action == "delete":
        del node[key]
    elif action == "add" and isinstance(node, dict):
        node["extra"] = 1.0
    return raw


_SMALL = _small_config(CANON_SPEC, 9.8, "horizontal", 0.3, 33, 2.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    raw=_mutated_small_configs(),
    command=st.sampled_from(
        ["critical", "freq-thresholds", "growth", "mode", "profile", "sweep", "verify"]
    ),
    xi=st.one_of(st.none(), _XI_TEXTS),
    out=_OUT_TEXTS,
)
@example(raw=_SMALL, command="growth", xi="1e-200,0", out="out")
@example(raw=_SMALL, command="mode", xi="1e160,0", out="out")
@example(
    raw={**_SMALL, "verify": {"dt": 1e-300, "seeds": [0]}}, command="verify", xi=None, out="out"
)
@example(
    raw={**_SMALL, "verify": {"T": 1e300, "seeds": [0]}}, command="verify", xi=None, out="out"
)
@example(raw={**_SMALL, "verify": {"seeds": [-1]}}, command="verify", xi=None, out="out")
@example(raw=_SMALL, command="profile", xi=None, out="a\0b")
@example(raw=_SMALL, command="profile", xi=None, out="c.json/out")
def test_cli_input_surface_exits_with_a_code_and_one_error_line(raw, command, xi, out):
    # every input ends in a documented exit code, a failure prints exactly
    # one JSON error object, and no exception escapes main.  verify checks
    # its step count before the mode's residual gate, so a dt, T or seed
    # that it cannot run with exits 2 here, before any time step
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(raw))
        argv = [command, str(path), "--out", f"{tmp}/{out}"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv if xi is None else [*argv, f"--xi={xi}"])
    assert code in (0, 2, 3, 4)
    errors = [line for line in stdout.getvalue().splitlines() if line.startswith("{")]
    assert len(errors) == (code != 0)
    if errors:
        assert set(json.loads(errors[0])) == {"error", "message"}
