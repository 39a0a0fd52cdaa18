"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 bench/spread.py --workload ddh-decide --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to a third of the metric's
bound from BENCHMARK.json, the level under which the benchmark counts as
steady.  It also checks that every run's output was correct and, with
``--repeat``, that a second, one-second run of each seed reports
identical exact counts (they are counted per pass, so run length does
not change them).  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counts = next((ln.split("counts ", 1)[1] for ln in lines if ln.startswith("  counts ")), None)
    return json.loads(lines[-1]), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", action="store_true",
                        help="rerun each seed briefly and compare the exact counts")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workload:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            result, counts = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                ok = False
            if args.repeat:
                _, again = run_once(workload, seed, 1, 0)
                if again != counts:
                    print(f"{workload} seed {seed}: counts {counts} then {again}")
                    ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f" counts={counts}", flush=True)
        for metric in spec["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = spread < metric["bound"] / 3
            ok &= steady
            print(f"  {workload:14s} {metric['name']:24s} median {med:<12.6g} "
                  f"spread {spread:.4f} (steady below {metric['bound'] / 3:.4f})"
                  f"{'' if steady else '  NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
