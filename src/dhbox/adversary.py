"""Exact weighted-adversary quantities for level-2 DDH, in closed form.

The fixed input is the quadruple ((1,0,0), (0,1,0), (0,0,1), (0,1,1)),
whose first element generates the group under every hidden vector
(1, n_1, n_2).  The quadruple is a DH-quadruple exactly when
n_1 + n_2 = n_1 * n_2; vectors satisfying this are called positive, the
rest negative: sn = p - 1 positives and sp = p^2 - p + 1 negatives.  The
adversary matrix (Ambainis, "Quantum lower bounds by quantum arguments",
2002) puts weight 1 between every positive/negative pair, so its row sum
is sp at a positive vector and sn at a negative one.  A query h keeps
the pairs whose oracle answers at h differ; with a and b the restricted
row sums at the positive and the negative vector, max(sp/a, sn/b)
bounds the randomized and sp*sn/(a*b) the squared quantum query count,
minimized over every admissible (n, n', h) with a, b >= 1.  Both are
sp*sn over an integer key, min(sn*a, sp*b) and a*b, so the minimum sits
where the key is largest.

Proof of the closed form, with A = p^2 - 2p + 3:

1. Four types.  In x = n_1 - 1 the positives are n_1 = 1 + x,
   n_2 = 1 + 1/x with x != 0, so those on the hyperplane
   h_0 + h_1 n_1 + h_2 n_2 = 0 are the nonzero roots of
   h_1 x^2 + (h_0 + h_1 + h_2) x + h_2, a nonzero polynomial for h != 0
   (h = 0 separates no pair): at most two.  The hyperplane holds p
   points unless h_1 = h_2 = 0, and none then.  So (positives on it,
   negatives on it) is (0, 0), only for multiples of (1,0,0), or
   (0, p), (1, p-1) or (2, p-2).
2. Admissible pairs.  Kind A: the positive answers 1, the negative 0,
   a = sp - (negatives on), b = (positives on).  Kind B, the reverse:
   a = (negatives on), b = sn - (positives on).  Type (0, 0) has none;
   (0, p) has B (p, p-1); (1, p-1) has A (p^2-2p+2, 1) and B (p-1, p-2);
   (2, p-2) has A (A, 2), and B (p-2, p-3) when p >= 5.
3. The winner.  Every pair but (2, p-2) kind A has b = 1 and
   a <= p^2-2p+2, or a <= p and b <= p-1.  So its randomized key is at
   most max(sp, p(p-1)) = sp and its quantum key at most
   max(p^2-2p+2, p(p-1)).  Kind A of (2, p-2) has the keys
   min(sn*A, 2sp) > sp and 2A, larger than both, at every odd p.
4. The first class.  h and its nonzero multiples have the same counts,
   and each class's lexicographically first member has leading nonzero
   coordinate 1: (0,0,1), (0,1,0), (0,1,1), (0,1,2), ...  The first
   three give x + 1, x^2 + x and (x + 1)^2, one nonzero root each.
   (0,1,2) gives x^2 + 3x + 2 = (x + 1)(x + 2), two distinct nonzero
   roots at every odd p.  So h = (0,1,2), kind A, is the first minimizer
   of both ratios.
5. The witnesses.  At h = (0,1,2) the first positive on the hyperplane
   n_1 + 2 n_2 = 0 is (1,0,0), the first vector of all; the first
   negative off it is (1,0,1).

Hence the randomized ratio sp*sn / min(sn*A, 2sp), (p-1)/2 for p >= 5,
and the squared quantum ratio sp*sn / (2A), with the witness
((1,0,0), (1,0,1), (0,1,2), A, 2) for both.  Every value is a Python
int or ``Fraction``, exact at every modulus.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import List, Tuple

from .modmath import PrimeModulus, _inv_int

DEFAULT_ENUMERATION_GUARD = 31

# The fixed level-2 input instance: generator and three unit-ish vectors.
FIXED_INSTANCE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))


def check_enumeration_guard(p: int, force: bool) -> int:
    """Validate the prime, refuse p beyond the guard unless ``force``,
    and return p as an ``int`` (a numpy integer is read as its value)."""
    p = PrimeModulus(p).p
    if p > DEFAULT_ENUMERATION_GUARD and not force:
        raise ValueError(
            f"p = {p} exceeds the enumeration guard {DEFAULT_ENUMERATION_GUARD}; pass force=True"
        )
    return p


@dataclass(frozen=True)
class ClassifiedVector:
    """A candidate hidden vector (1, n1, n2) with its polarity."""

    n1: int
    n2: int
    positive: bool

    @property
    def coords(self) -> Tuple[int, int, int]:
        return (1, self.n1, self.n2)


def is_positive(p: int, n1: int, n2: int) -> bool:
    """Whether the fixed instance is a DH-quadruple under (1, n1, n2)."""
    return (n1 + n2) % p == n1 * n2 % p


def classify(p: int) -> List[ClassifiedVector]:
    """Classify all p^2 candidate hidden vectors, in lexicographic order.

    Exactly p - 1 are positive: n1 = 1 admits no partner, and every other
    n1 forces n2 = n1 / (n1 - 1).
    """
    p = PrimeModulus(p).p
    return [
        ClassifiedVector(n1, n2, is_positive(p, n1, n2))
        for n1 in range(p)
        for n2 in range(p)
    ]


def positive_pairs(p: int) -> List[Tuple[int, int]]:
    """The p - 1 positive (n1, n2) pairs, from the closed form."""
    p = PrimeModulus(p).p
    pairs = []
    for n1 in range(p):
        if n1 == 1:
            continue
        pairs.append((n1, n1 * _inv_int(n1 - 1, p) % p))
    return sorted(pairs)


def identity_value(p: int, n1: int, n2: int, h: Tuple[int, int, int]) -> int:
    """Answer of the oracle hidden at (1, n1, n2) on the query h."""
    return 1 if (h[0] + h[1] * n1 + h[2] * n2) % p == 0 else 0


def sigma_gamma(p: int, vec: ClassifiedVector) -> int:
    """Row sum of the adversary matrix at vec: the size of the other class."""
    return p * p - p + 1 if vec.positive else p - 1


def sigma_gamma_h(p: int, vec: ClassifiedVector, h: Tuple[int, int, int]) -> int:
    """Row sum of the h-restricted matrix at vec, by direct enumeration.

    Counts opposite-polarity vectors whose oracle answer at h differs
    from vec's.  O(p^2): the small-p reference for the witnesses'
    row sums that ``adversary_bounds`` reports in closed form.
    """
    own = identity_value(p, vec.n1, vec.n2, h)
    count = 0
    for m1 in range(p):
        for m2 in range(p):
            if is_positive(p, m1, m2) == vec.positive:
                continue
            if identity_value(p, m1, m2, h) != own:
                count += 1
    return count


def case_count_extremes(p: int) -> Tuple[int, int]:
    """Largest restricted row sums over all admissible (n, n', h): (2, p).

    For a pair distinguished by h, the negative side answering 0 has row
    sum equal to the number of positives on the hyperplane, and the
    positive side answering 0 has row sum equal to the number of
    negatives on it.  By the module's proof these are at most 2 and p,
    and both are met at every odd prime: (0,1,2) holds two positives,
    and (1,0,-1), the hyperplane n_2 = 1, p negatives and no positive.
    """
    return 2, PrimeModulus(p).p


@dataclass(frozen=True)
class Witness:
    """A minimizing triple: positive n, negative n', query h, and the
    restricted row sums realized there."""

    n: Tuple[int, int, int]
    n_prime: Tuple[int, int, int]
    h: Tuple[int, int, int]
    sigma_h_n: int
    sigma_h_n_prime: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AdversaryReport:
    """All adversary quantities for DDH at level 2, at one prime.

    Ratios are exact rationals with float companions; the quantum bound
    is reported both as the exact squared ratio and its float root.
    """

    p: int
    count_positive: int
    count_negative: int
    sigma_positive: int
    sigma_negative: int
    worst_ratio_randomized: Fraction
    worst_ratio_quantum_squared: Fraction
    worst_ratio_quantum: float
    witness_randomized: Witness
    witness_quantum: Witness

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "count_positive": self.count_positive,
            "count_negative": self.count_negative,
            "sigma_positive": self.sigma_positive,
            "sigma_negative": self.sigma_negative,
            "worst_ratio_randomized": float(self.worst_ratio_randomized),
            "worst_ratio_randomized_exact": str(self.worst_ratio_randomized),
            "worst_ratio_quantum": self.worst_ratio_quantum,
            "worst_ratio_quantum_squared_exact": str(self.worst_ratio_quantum_squared),
            "witnesses": {
                "randomized": self.witness_randomized.to_dict(),
                "quantum": self.witness_quantum.to_dict(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def adversary_bounds(p: int, force: bool = False) -> AdversaryReport:
    """Exact worst-case adversary ratios, minimized over every query.

    For every query h and each admissible answer pattern, the randomized
    candidate is the larger of the two row-sum ratios and the quantum
    candidate their product; both are minimized over all h, with
    lexicographically first witnesses.  The module's proof gives the
    minima in closed form, so nothing is enumerated and the report holds
    at any modulus.  The guard still rejects p beyond 31 unless
    ``force`` is set.
    """
    p = check_enumeration_guard(p, force)
    sp = p * p - p + 1  # row sum at a positive vector
    sn = p - 1  # row sum at a negative vector
    a = p * p - 2 * p + 3  # restricted row sum at the positive witness
    quad = Fraction(sp * sn, 2 * a)
    witness = Witness((1, 0, 0), (1, 0, 1), (0, 1, 2), a, 2)
    return AdversaryReport(
        p=p,
        count_positive=sn,
        count_negative=sp,
        sigma_positive=sp,
        sigma_negative=sn,
        worst_ratio_randomized=Fraction(sp * sn, min(sn * a, 2 * sp)),
        worst_ratio_quantum_squared=quad,
        worst_ratio_quantum=float(quad) ** 0.5,
        witness_randomized=witness,
        witness_quantum=witness,
    )
