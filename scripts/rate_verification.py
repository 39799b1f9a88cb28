#!/usr/bin/env python3
"""End-to-end demonstration: find the fastest-growing lattice mode, rebuild
the full normal mode, and confirm its rate by evolving the linearized
equations in time.

Usage:
    python scripts/rate_verification.py [output_dir]
"""

import argparse
import os

import rtmhd
from rtmhd.dispersion import lattice_sweep, sup_rate
from rtmhd.forms import assemble_forms
from rtmhd.growth import growth_rate
from rtmhd.modes import assemble_real_solution, build_mode, export_mode, export_snapshot
from rtmhd.verify import (
    default_schedule,
    eigenmode_column,
    march_norms,
    measured_rate,
    write_series,
)

SPEC = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
GRID = rtmhd.Grid1D(8.0, 801)
MAG = rtmhd.MagneticConfig(rtmhd.Orientation.HORIZONTAL, 0.3)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "output_dir",
        nargs="?",
        default="out/verification",
        help="default: %(default)s",
    )
    out = parser.parse_args().output_dir
    os.makedirs(out, exist_ok=True)
    profile = rtmhd.build_profile(SPEC, GRID)

    table = lattice_sweep(profile, GRID, MAG, PARAMS, radius=4.0)
    top = sup_rate(table)
    xi1 = top.xi_pair[0]
    print(f"Lambda = {top.lam_max:.8f} at xi1 = ({xi1.xi1:g}, {xi1.xi2:g})")

    forms = assemble_forms(profile, GRID, xi1, MAG, PARAMS)
    result = growth_rate(forms)
    mode = build_mode(result, mode_tol=1e-3)
    export_mode(mode, os.path.join(out, "mode"))
    snap = assemble_real_solution(mode, 0.0)
    export_snapshot(snap, os.path.join(out, "snapshot_t0.csv"))

    lam = result.lam
    T = 3.0 / lam
    init = eigenmode_column(mode)
    run = (xi1, default_schedule(lam, T), T, init[:, None])
    [(times, norms)] = march_norms(profile, MAG, PARAMS, GRID, [run])
    est = measured_rate(list(zip(times, norms[:, 1, 0])))
    write_series(os.path.join(out, "timeseries.csv"), times, norms[:, :, 0])
    rel = abs(est.rate - lam) / lam
    print(f"predicted rate  {lam:.8f}")
    print(f"measured rate   {est.rate:.8f}   (relative error {rel:.2e})")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
