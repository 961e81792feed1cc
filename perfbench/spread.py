#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, per
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload internet_repair --seeds 1-10

Run from the root of a checkout. Each seed is one `perfbench/run.py ...
--trace 0` run with BENCHMARK.json's run_seconds; the runs go one after
another so they do not compete for cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list,
                    help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of "
                     f"{result['attempted']} checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:16} {med:12.5g} {(q3 - q1) / med:8.3f} "
              f"{m['bound']:6.2f}")


if __name__ == "__main__":
    main()
