"""Moving between levels and in from ordinary prime-order groups.

Lifting appends a zero coordinate to every element while the level-t
oracle silently plays the level-(t+1) oracle (the extra coordinate never
matters), so DDH answers survive the trip.  In the other direction, any
prime-order subgroup of a multiplicative group embeds as an identity
black-box group over Z_p^4: exponent maps turn the four DDH input
elements into coordinates, and the unit test "is this product 1?"
becomes a hyperplane membership test.
"""

import numpy as np

from dhbox import DHInstance, GroupElement, PrimeModulus, lift_instance, project_cdh_answer
from dhbox.experiments import run_embedding, run_lift_agreement

SEED = 5

# --- level lifting -------------------------------------------------------
P = 7
modulus = PrimeModulus(P)
print(f"lifting level-1 instances over p = {P}:")
inst = DHInstance(*(GroupElement(c, modulus) for c in ((1, 0), (0, 1), (2, 3), (4, 5))))
lifted = lift_instance(inst)
assert project_cdh_answer(lifted.l) == inst.l
print(f"  the answer {inst.l.coords} lifts to {lifted.l.coords} and projects back to "
      f"{project_cdh_answer(lifted.l).coords}")
agree = run_lift_agreement(P, 200, SEED)
print(f"  {agree}/200 decisions agree between the level-1 polynomial algorithm "
      f"and exhaustive search one level up\n")

# --- embedding a multiplicative subgroup ---------------------------------
P, Q = 11, 23  # 23 = 2*11 + 1, so the units mod 23 have an order-11 subgroup
print(f"embedding the order-{P} subgroup of the units mod {Q}:")
rng = np.random.default_rng(SEED)
for _ in range(4):
    a, b = int(rng.integers(0, P)), int(rng.integers(0, P))
    honest = rng.random() < 0.5
    c = a * b % P if honest else (a * b + 1 + int(rng.integers(0, P - 1))) % P
    gens, got, expected, oracle = run_embedding(P, Q, a, b, c)
    print(f"  elements {gens} (exponents a={a}, b={b}, c={c}): "
          f"decision {'yes' if got else 'no'}, expected {'yes' if expected else 'no'}; "
          f"{oracle.queries} oracle queries, {oracle.mults} modular multiplications")
