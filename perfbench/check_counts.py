"""The benchmark's own test: two traced runs at one seed give identical counts.

    python3 perfbench/check_counts.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (all by default) it
makes two `run.py --trace 1` runs at the same seed and compares every
per-layer metric whose unit is a count; exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS

SEED = 7
SECONDS = 2


def counts(workload):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
                         capture_output=True, text=True, check=True, timeout=180).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "B")}


def main():
    ok = True
    for workload in sys.argv[1:] or WORKLOADS:
        first, second = counts(workload), counts(workload)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        nonzero = sum(v != 0 for v in first.values())
        print(f"{workload}: {len(first)} counts ({nonzero} nonzero), "
              f"{'identical' if not differ else f'DIFFER {differ}'}")
        ok &= not differ and nonzero > 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
