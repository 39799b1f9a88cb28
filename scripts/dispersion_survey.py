#!/usr/bin/env python3
"""Survey growth-rate curves over the frequency lattice for several field
strengths and write one CSV per configuration.

Usage:
    python scripts/dispersion_survey.py [output_dir]
"""

import argparse
import os

import rtmhd
from rtmhd.dispersion import lattice_sweep, sup_rate, write_table

SPEC = rtmhd.ProfileSpec(1.0, (rtmhd.Bump(0.5, 0.0, 1.0),))
PARAMS = rtmhd.PhysicalParams(mu=1.0, g=9.8, L=1.0)
GRID = rtmhd.Grid1D(8.0, 601)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "output_dir", nargs="?", default="out/survey", help="default: %(default)s"
    )
    out = parser.parse_args().output_dir
    os.makedirs(out, exist_ok=True)
    profile = rtmhd.build_profile(SPEC, GRID)
    rows = ["orientation,M,Lambda,xi1_1,xi1_2"]
    for orientation in (rtmhd.Orientation.HORIZONTAL, rtmhd.Orientation.VERTICAL):
        for M in (0.0, 0.3, 0.6, 1.0):
            if orientation is rtmhd.Orientation.VERTICAL and M == 0.0:
                continue
            mag = rtmhd.MagneticConfig(orientation, M)
            table = lattice_sweep(profile, GRID, mag, PARAMS, radius=4.0)
            name = f"dispersion_{orientation.value}_M{M:g}.csv"
            write_table(os.path.join(out, name), table)
            top = sup_rate(table)
            rows.append(
                f"{orientation.value},{M:g},{top.lam_max:.17g},"
                f"{top.xi_pair[0].xi1:.17g},{top.xi_pair[0].xi2:.17g}"
            )
            print(
                f"{orientation.value:10s} M={M:4.1f}: Lambda = {top.lam_max:.6f} "
                f"at xi = ({top.xi_pair[0].xi1:g}, {top.xi_pair[0].xi2:g})"
            )
    with open(os.path.join(out, "summary.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"wrote {out}/summary.csv")


if __name__ == "__main__":
    main()
