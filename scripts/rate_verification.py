#!/usr/bin/env python3
"""End-to-end demonstration: find the fastest-growing lattice mode, rebuild
the full normal mode, and confirm its rate, and that random data grows no
faster than the sweep's largest rate, by evolving the linearized equations
in time.

Usage:
    python scripts/rate_verification.py [output_dir]
"""

import argparse
import os

import rtmhd
from rtmhd.modes import export_snapshot
from rtmhd.verify import write_series

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

    table = rtmhd.lattice_sweep(profile, GRID, MAG, PARAMS, radius=4.0)
    top = rtmhd.sup_rate(table)
    xi1 = top.xi_pair[0]
    print(f"Lambda = {top.lam_max:.8f} at xi1 = ({xi1.xi1:g}, {xi1.xi2:g})")

    result = rtmhd.growth_rate(rtmhd.assemble_forms(profile, GRID, xi1, MAG, PARAMS))
    mode = rtmhd.build_mode(result, mode_tol=1e-3)
    rtmhd.export_mode(mode, os.path.join(out, "mode"))
    snap = rtmhd.assemble_real_solution(mode, 0.0)
    export_snapshot(snap, os.path.join(out, "snapshot_t0.csv"))

    check = rtmhd.cross_check(result, table, seeds=[0])
    write_series(os.path.join(out, "timeseries.csv"), check.times, check.norms)
    print(f"predicted rate  {result.lam:.8f}")
    print(f"measured rate   {check.rate['lambda_meas']:.8f}", end="   ")
    print(f"(relative error {check.rate['rel_err']:.2e})")
    if check.failure is not None:
        raise check.failure
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
