#!/usr/bin/env python3
"""Render the node/focus map of the parameter square with its separatrices.

Writes a region-colored SVG plus the matching CSV records.  The default
200x200 grid scans and renders in well under a second.

    python3 scripts/make_figure1.py --grid 200x200 --out-dir out/
"""

import argparse
import os
from collections import Counter

from radshock.cli import parse_grid
from radshock.equilibria import Q_MAX, Q_MIN
from radshock.errors import ParamsOutOfOmega
from radshock.scan import ScanConfig, run_scan, scan_to_csv, scan_to_svg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=parse_grid, default="200x200", metavar="NxM")
    parser.add_argument("--eps-min", type=float, default=1e-4)
    parser.add_argument("--q-margin", type=float, default=1e-4)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    eps_count, q_count = args.grid
    try:
        config = ScanConfig(
            eps_lo=args.eps_min,
            eps_hi=1.0,
            eps_count=eps_count,
            q_lo=Q_MIN + args.q_margin,
            q_hi=Q_MAX - args.q_margin,
            q_count=q_count,
        )
    except ParamsOutOfOmega as exc:
        parser.error(str(exc))
    result = run_scan(config)

    os.makedirs(args.out_dir, exist_ok=True)
    svg_path = os.path.join(args.out_dir, "parameter_square.svg")
    csv_path = os.path.join(args.out_dir, "parameter_square.csv")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(scan_to_svg(result))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(scan_to_csv(result))

    print(f"wrote {svg_path} and {csv_path}")
    print(f"region cell counts: {dict(Counter(result.records.region))}")


if __name__ == "__main__":
    main()
