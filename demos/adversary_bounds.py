"""The level-2 lower-bound machinery, computed exactly at small p.

At level 2 the DDH input ((1,0,0), (0,1,0), (0,0,1), (0,1,1)) splits the
p^2 candidate hidden vectors into p-1 positive ones (the input is a
DH-quadruple) and p^2-p+1 negative ones.  The adversary matrix weights
every positive/negative pair; a query h only separates pairs whose
oracle answers differ at h, and the worst-case ratio of full row sums to
h-restricted row sums lower-bounds the number of queries any randomized
(or, with square roots, quantum) algorithm must spend.

The two counting facts doing the real work: a query hyperplane contains
at most 2 positive vectors (the positives form a conic, which a
hyperplane meets in the roots of a quadratic), and at most p vectors in
total.  Both maxima are met at every odd prime, so they are printed in
closed form, (2, p).  The worst-case ratios are closed forms too, proved
in the ``dhbox.adversary`` docstring: every query is one of four types,
and h = (0,1,2), the first query whose hyperplane holds two positives,
minimizes both ratios, so the randomized one is (p-1)/2 for p >= 5.
"""

from fractions import Fraction

from dhbox import adversary_bounds, classify
from dhbox.adversary import case_count_extremes

print("classification of hidden vectors (positive: n1 + n2 = n1*n2):")
for p in (3, 5, 7):
    vecs = classify(p)
    positives = [(v.n1, v.n2) for v in vecs if v.positive]
    print(f"  p={p}: {len(positives)} positive of {len(vecs)}: {positives}")

print("\nper-query counting bounds (max positives on a separating "
      "hyperplane <= 2, max on-hyperplane vectors <= p):")
for p in (3, 5, 7, 11, 13):
    case1, case2 = case_count_extremes(p)
    print(f"  p={p:2d}: maxima {case1} and {case2}, both met")

print("\nworst-case ratios over every query, in closed form (the randomized "
      "one scales like p/2, its square-rooted companion like sqrt(p/2)):")
print(f"  {'p':>3} {'randomized':>11} {'ratio/p':>8} {'quantum':>8}  witness query h")
for p in (3, 5, 7, 11, 13, 17, 23, 31):
    rep = adversary_bounds(p)
    r = rep.worst_ratio_randomized
    print(f"  {p:>3} {str(r):>11} {float(Fraction(r, p)):>8.4f} "
          f"{rep.worst_ratio_quantum:>8.4f}  {rep.witness_randomized.h}")

rep = adversary_bounds(13)
print("\nfull report at p = 13:")
print(rep.to_json())
