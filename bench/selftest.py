"""Self-test of the benchmark's own checks.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Plants faults the output checks must catch, and checks determinism:

* a lying CDH handle in the ddh-decide job list must push failed_frac
  above 0 (the recovery raises or returns a wrong secret);
* a DDH decision that reports the wrong answer must do the same;
* the honest job lists must have failed_frac = 0;
* building a workload twice from one seed must give identical exact
  counts (queries, oracle calls, iterations, successes), and a traced
  pass with its reference calls must pass with the same counts.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
from dhbox import (  # noqa: E402
    CdhOracle, GroupElement, IdentityOracle, honest_cdh_oracle, secret_from_cdh,
)
from harness import run_pass  # noqa: E402
from spans import NO_TRACE, Tracer  # noqa: E402


def lying_cdh_oracle(oracle, escrow):
    """A CDH handle whose answers sit one label above the true coset."""
    honest = honest_cdh_oracle(oracle, escrow)

    def solve(g, h, k):
        answer = honest(g, h, k)
        return GroupElement((answer.coords[0] + 1,) + answer.coords[1:], answer.modulus)

    return CdhOracle(solve, oracle.modulus)


class LyingCdhTrial(jobs.CdhTrial):
    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        handle = lying_cdh_oracle(oracle, jobs.ESCROW)
        got = secret_from_cdh(handle, oracle)
        return jobs.Outcome(got.value, oracle.queries, handle.calls)


class WrongAnswerTrial(jobs.DecideTrial):
    def run(self, tr):
        out = super().run(tr)
        return out._replace(value=1 - out.value)


def failed_frac(workload, tr=NO_TRACE):
    result = run_pass(workload, tr)
    return len(result.failures) / result.attempted, result


def planted(kind, plant):
    """failed_frac of the ddh-decide list whose first ``kind`` trial is
    replaced by ``plant(trial)``."""
    workload = jobs.ddh_decide(seed=5)
    i = next(i for i, t in enumerate(workload.trials) if t.kind == kind)
    workload.trials[i] = plant(workload.trials[i])
    return failed_frac(workload)[0]


def main() -> int:
    checks = []
    checks.append(("lying CDH handle gives failed_frac > 0",
                   planted("cdh", lambda t: LyingCdhTrial(t.modulus, t.secret)) > 0))
    checks.append(("wrong DDH answer gives failed_frac > 0",
                   planted("ddh", lambda t: WrongAnswerTrial(
                       t.modulus, t.secret, *t.coords, t.expected)) > 0))
    for name, build in jobs.WORKLOADS.items():
        frac, first = failed_frac(build(7))
        second_frac, second = failed_frac(build(7))
        checks.append((f"{name}: honest job list gives failed_frac = 0",
                       frac == 0 and second_frac == 0))
        checks.append((f"{name}: one seed twice gives identical counts",
                       first.counts == second.counts))
        workload, tracer = build(7), Tracer()
        traced_frac, traced = failed_frac(workload, tracer)
        _, ref_failures = workload.references(tracer)
        checks.append((f"{name}: traced pass and references pass their checks",
                       traced_frac == 0 and not ref_failures and traced.counts == first.counts))
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _, passed in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
