"""Regenerate perfbench/reference.json from the sources of this checkout.

    python3 perfbench/make_reference.py

The benchmark checks every run against this file: the region label of each
cell of the 200x200 map, the verdict and oscillation flag of each cell of
the run_scan(shoot=True) grid, and of each interior point of the default
seed and of the fixed stratum centres.  Regenerate it only at a commit whose
outputs are known to be right.
"""

import json
from collections import Counter

import run as bench
from radshock import ScanConfig, run_scan, shoot


def main() -> None:
    res = run_scan(ScanConfig(eps_count=bench.MAP_GRID, q_count=bench.MAP_GRID))
    regions = [r.region for r in res.records]
    ref = {
        "map": {
            "grid": bench.MAP_GRID,
            "region_sha256": bench.sha256("\n".join(regions)),
            "region_counts": dict(sorted(Counter(regions).items())),
        },
        "scan_shoot": [
            [r.shoot_verdict, r.oscillatory] for r in run_scan(bench.scan_shoot_config()).records
        ],
        "interior": {},
    }
    for w in bench.WORKLOADS.values():
        key = bench.interior_key(w, bench.DEFAULT_SEED)
        if key not in ref["interior"]:
            pts = bench.interior_points(w.side, bench.DEFAULT_SEED if w.seeded_points else None)
            shots = [shoot(e, q) for e, q in pts]
            ref["interior"][key] = [[s.verdict.value, s.oscillation.oscillatory] for s in shots]
    with open(bench.BENCH_DIR / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
