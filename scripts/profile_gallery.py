#!/usr/bin/env python3
"""Shoot a gallery of profiles across the three regions and tabulate results.

For every point: convergence verdict, per-chart sign-change counts of the
velocity deviation, and the oscillation flag.  Trajectories are written as
CSV files for plotting.

    python3 scripts/profile_gallery.py --out-dir out/profiles
"""

import argparse
import os

from radshock.classification import classify
from radshock.shooting import profile_to_csv, shoot

POINTS = [
    (1.0, 0.752),
    (1.0, 0.760),
    (1.0, 0.764),
    (1.0, 0.800),
    (1.0, 0.880),
    (1.0, 0.960),
    (0.5, 0.780),
    (0.5, 0.900),
    (0.3, 0.990),
    (0.2, 0.960),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="profiles")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    print(f"{'eps':>5} {'q_tilde':>8} {'region':>10} {'verdict':>16} "
          f"{'v-signch':>8} {'oscillatory':>11}")
    for eps, q in POINTS:
        region = classify(eps, q).value
        res = shoot(eps, q)
        sign_changes = (
            res.oscillation.systems["u_v"][1].sign_changes
            if res.oscillation.systems else "-"
        )
        print(f"{eps:>5} {q:>8} {region:>10} {res.verdict.value:>16} "
              f"{sign_changes!s:>8} {str(res.oscillation.oscillatory):>11}")
        path = os.path.join(args.out_dir, f"profile_eps{eps}_q{q}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(profile_to_csv(res))
    print(f"trajectories written to {args.out_dir}/")


if __name__ == "__main__":
    main()
