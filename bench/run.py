"""Layered benchmark for dhbox.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload oracle-search --seed 1 --seconds 20 --trace 0

A single-threaded closed loop with one client: each trial starts when the
previous one has finished and been checked.  The workload's fixed job list
is built from ``--seed`` and repeated as passes until they have taken
``--seconds``.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run, which alternates untraced and traced passes and
writes its spans to ``bench/out/``.  Lines before the last one are a
human-readable summary.  See bench/README.md for the metric definitions.

The dhbox under test is always the one in ``src/`` of the checkout that
holds this file; the benchmark exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="oracle-search, ddh-decide or exact-studies")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dhbox" / "__init__.py").is_file():
        print(f"error: no dhbox sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: idle OpenBLAS workers would otherwise spin beside numpy
    # calls, costing the other core without speeding anything up.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(harness.run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
