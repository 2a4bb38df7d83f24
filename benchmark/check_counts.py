"""Check that the traced run's counts repeat exactly between two runs at one seed.

Run from the root of a checkout:

    python3 benchmark/check_counts.py --workload all --seed 3

It runs ``run.py --trace 1`` twice and compares every metric whose unit is
``count`` or ``bytes``; it exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int) -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "bytes")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first, second = counts(args.workload, args.seed), counts(args.workload, args.seed)
    differing = {name: (v, second.get(name)) for name, v in first.items() if second.get(name) != v}
    for name, value in first.items():
        print(f"{name:<44} {value:>12} {'differs: ' + str(differing[name]) if name in differing else 'repeats'}")
    return 1 if differing or first.keys() != second.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
