#!/usr/bin/env python3
"""Build lgbench from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the program sources under src/ it links) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only re-check the build. The workload then runs in its own
process with the LG_* environment cleared, so no knob changes what is
measured.

stdout carries lgbench's per-metric lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are exactly BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set; a missing metric or a unit that differs from BENCHMARK.json
is an error (exit 1, no result line).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("internet_repair", "fleet_outages", "service_checkpoint")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    # Build output goes to stderr: stdout's last line is the result.
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir / "lgbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if not k.startswith("LG_")}
    # SIGTERM unwinds through the finally below, so lgbench never outlives
    # this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lgbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        proc.kill()
        proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"lgbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for name, unit in expected.items():
        m = result["metrics"].get(name)
        if m is None:
            fail(f"metric {name} was not emitted")
        if m["unit"] != unit:
            fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json says "
                 f"{unit}")
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not finite")
        metrics[name] = m

    for line in lines[:-1]:
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac = {failed}/{attempted} = "
          f"{failed / attempted if attempted else float('nan'):.4f}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
