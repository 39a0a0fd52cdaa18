"""Recovering the hidden secret through DLOG and CDH oracles.

A level-1 identity black-box group hides a single scalar s: the oracle
answers whether (h0, h1) satisfies h0 + s*h1 = 0.  Finding s by querying
the oracle alone needs about p/2 queries on average, yet one call to a
DLOG oracle or a CDH oracle gives it away immediately.  This script walks
through both reductions and their random-instance variants.
"""

import numpy as np

from dhbox import IdentityOracle, PrimeModulus, run_reduction_success
from dhbox.experiments import recover_secret

P = 101
SEED = 7

rng = np.random.default_rng(SEED)
modulus = PrimeModulus(P)
secret = int(rng.integers(0, P))
print(f"hidden secret (escrow side only): s = {secret}, p = {P}\n")

# Exhaustive search through the oracle is the baseline.  One DLOG call on
# the fixed pair ((1,0), (0,1)) answers the secret itself, because (1,0)
# has coset label 1 and (0,1) has label s.  One CDH call on g=(1,0),
# h=(0,1), k=(1,1) pins s down to the two roots of a quadratic, and at
# most two identity queries pick it out.
for algo, label in (("brute-random", "brute force"), ("dlog", "via DLOG oracle"),
                    ("cdh", "via CDH oracle")):
    oracle = IdentityOracle.level1(modulus, secret)
    found, dlog_calls, cdh_calls = recover_secret(algo, oracle, rng)
    assert found.value == secret
    print(f"{label:<16} -> s = {found.value:3d}   DLOG calls: {dlog_calls}, "
          f"CDH calls: {cdh_calls}, identity queries: {oracle.queries}")

# The same reductions work on uniformly random instances, failing only on
# degenerate draws (probability about 1/p and 2/p respectively).
print("\nrandom-instance variants over 2000 draws:")
for row in run_reduction_success(P, 2000, SEED):
    print(f"  {row.algorithm:<11}: recovered {row.successes} (rate {row.rate:.4f}, "
          f"bound {row.bound:.4f}, consistent: {row.consistent_with_bound}); "
          f"{row.mean_oracle_calls:.3f} oracle calls and "
          f"{row.mean_id_queries:.3f} identity queries per draw")
