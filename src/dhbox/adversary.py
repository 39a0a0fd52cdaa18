"""Exact weighted-adversary quantities for level-2 DDH.

The fixed input is the quadruple ((1,0,0), (0,1,0), (0,0,1), (0,1,1)),
whose first element generates the group under every hidden vector
(1, n_1, n_2).  The quadruple is a DH-quadruple exactly when
n_1 + n_2 = n_1 * n_2; vectors satisfying this are called positive, the
rest negative.  The adversary matrix puts weight 1 between every
positive/negative pair, and restricting it to pairs distinguished by a
query h yields the per-query row sums whose worst-case ratios lower-bound
the randomized and quantum query complexity.

Row sums of the restricted matrix depend only on h, the polarity of the
row vector and its oracle answer at h, so the search over all admissible
(n, n', h) collapses to four counts per h: positives/negatives on and off
the hyperplane of h.  Those counts are the same for h and every nonzero
multiple of h, so only the p^2 + p + 1 projective classes are walked,
each by its lexicographically first member (leading coordinate 1).  In
x = n_1 - 1 the positives are the conic x * (n_2 - 1) = 1 with x != 0,
so the positives on a hyperplane are the nonzero roots of a quadratic,
counted by one Legendre symbol of its discriminant.  A class thus holds
0, 1 or 2 positives among its p points, or is the empty class (1,0,0),
and its row sums are those of one of four types.  Each ratio is a
constant over an integer key, so its minimum is the first maximum of
the key over the walk, which stops at the first class reaching the
largest key of the four types.  Keys are Python ints, so reported
values are exact at every modulus and never owe anything to float
rounding.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Tuple

from .modmath import PrimeModulus, _inv_int, _legendre_int

DEFAULT_ENUMERATION_GUARD = 31

# The fixed level-2 input instance: generator and three unit-ish vectors.
FIXED_INSTANCE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))


def check_enumeration_guard(p: int, force: bool) -> None:
    """Validate the prime and refuse p beyond the guard unless ``force``."""
    PrimeModulus(p)
    if p > DEFAULT_ENUMERATION_GUARD and not force:
        raise ValueError(
            f"p = {p} exceeds the enumeration guard {DEFAULT_ENUMERATION_GUARD}; pass force=True"
        )


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
    PrimeModulus(p)
    return [
        ClassifiedVector(n1, n2, is_positive(p, n1, n2))
        for n1 in range(p)
        for n2 in range(p)
    ]


def positive_pairs(p: int) -> List[Tuple[int, int]]:
    """The p - 1 positive (n1, n2) pairs, from the closed form."""
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
    from vec's.  O(p^2); the aggregated path below is the fast route.
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


def _type_pairs(p: int) -> dict:
    """The admissible (kind, a, b) of each class type (pos_on, neg_on).

    A class holds 0, 1 or 2 positives (the roots of a nonzero quadratic)
    among its p points, or is the empty class (1,0,0), so it is one of
    four types.  Kind A (0) has the positive row answer 1 and the
    negative row 0; kind B (1) the reverse.  a is the row sum at the
    positive vector (the negatives answering otherwise) and b the one at
    the negative vector; a kind is admissible when both are at least 1,
    that is when both rows exist.  A comes before B, as in a loop over h
    trying A first.
    """
    n_pos, n_neg = p - 1, p * p - p + 1
    types = {}
    for pos_on, neg_on in ((0, 0), (0, p), (1, p - 1), (2, p - 2)):
        kinds = ((0, n_neg - neg_on, pos_on), (1, neg_on, n_pos - pos_on))
        types[pos_on, neg_on] = [(kind, a, b) for kind, a, b in kinds if a >= 1 and b >= 1]
    return types


def _admissible_pairs(p: int):
    """Every admissible (h, kind, a, b), walking the query classes in order.

    Each of the p^2 + p + 1 projective classes is given by its
    lexicographically first member, the one whose leading nonzero
    coordinate is 1: (0,0,1), then (0,1,x), then (1,a,b).  These members
    come in lexicographic order too, so the first extremum over classes
    is the first extremum over all h.

    The positives are n1 = 1 + x, n2 = 1 + 1/x for x != 0, so with
    S = h0 + h1 + h2 those on the hyperplane of h are the nonzero roots x
    of h1 x^2 + S x + h2: 1 + (disc/p) of them when h1 != 0 (less the
    root x = 0 when h2 = 0), else one when h2 != 0 and S != 0.  The
    hyperplane holds p points when (h1, h2) != 0; only h = (1,0,0) has
    none.  A class outside ``_type_pairs`` would raise ``KeyError``.
    """
    pairs = _type_pairs(p)
    tail = ((1, a, b) for a in range(p) for b in range(p))
    for h in chain([(0, 0, 1)], ((0, 1, x) for x in range(p)), tail):
        h0, h1, h2 = h
        s = h0 + h1 + h2
        if h1:
            pos_on = 1 + _legendre_int(s * s - 4 * h1 * h2, p) - (h2 == 0)
        else:
            pos_on = int(h2 != 0 and s % p != 0)
        for pair in pairs[pos_on, (p if h1 or h2 else 0) - pos_on]:
            yield (h, *pair)


def _key_top(p: int, key) -> int:
    """The largest key(kind, a, b) over the class types: no class exceeds it."""
    return max(key(*pair) for pairs in _type_pairs(p).values() for pair in pairs)


def _first_max(p: int, key):
    """The largest key(kind, a, b) over the walk and its first (h, kind, a, b).

    Every one of the four class types is met by some class, so
    ``_key_top`` is reached, and the result is the first walked class
    whose key equals it: the first maximum over every class.
    """
    top = _key_top(p, key)
    return top, next(cand for cand in _admissible_pairs(p) if key(*cand[1:]) == top)


def case_count_extremes(p: int):
    """Largest restricted row sums over all admissible (n, n', h): (2, p).

    For a pair distinguished by h, the negative side answering 0 has row
    sum equal to the number of positives on the hyperplane (at most 2:
    they are roots of a nonzero quadratic), and the positive side
    answering 0 has row sum equal to the number of negatives on the
    hyperplane (at most p: a nonzero linear equation).  Returns the
    maxima of the two counts, b over kind A and a over kind B, as
    ``_key_top`` of each, and both bounds are met at every odd prime:
    the hyperplane through two of the p - 1 >= 2 positives holds exactly
    2 positives, where kind A is admissible, and (1,0,-1) holds no
    positive, where kind B is admissible with a = p.
    """
    PrimeModulus(p)
    return (
        _key_top(p, lambda kind, a, b: b * (1 - kind)),
        _key_top(p, lambda kind, a, b: a * kind),
    )


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


def _first_vector(p: int, positive: bool, h: Tuple[int, int, int], answer: int) -> Tuple[int, int, int]:
    """Lexicographically first vector of given polarity and answer at h.

    O(p): column n1 holds one positive, n2 = n1 / (n1 - 1) (none at
    n1 = 1), and meets the hyperplane h0 + h1 n1 + h2 n2 = 0 in one n2
    when h2 != 0, else in the whole column or not at all.  So a negative
    on the hyperplane with h2 != 0 can only be that one n2, and any other
    negative sought is among n2 = 0, 1, 2, of which at most two are
    excluded.  The scan stops at the first column that holds a match:
    at the class the walk of ``adversary_bounds`` stops at, h = (0,1,2),
    both witnesses lie in column n1 = 0.
    """
    h0, h1, h2 = h
    for n1 in range(p):
        if positive:
            column = () if n1 == 1 else (n1 * pow(n1 - 1, -1, p) % p,)
        elif answer and h2 % p:
            column = (-(h0 + h1 * n1) * pow(h2, -1, p) % p,)
        else:
            column = (0, 1, 2)
        for n2 in column:
            if is_positive(p, n1, n2) == positive and identity_value(p, n1, n2, h) == answer:
                return (1, n1, n2)
    raise AssertionError("no vector matches an admissible kind")


def adversary_bounds(p: int, force: bool = False) -> AdversaryReport:
    """Exact worst-case adversary ratios, minimized over every query.

    For every query h and each of the two admissible answer patterns, the
    randomized candidate is max of the two row-sum ratios and the quantum
    candidate is the product ratio; both are minimized over all h, with
    lexicographically first witnesses.

    Each ratio is sp*sn over an integer key, so its first minimum is
    ``_first_max`` of the key: the walk over the projective query classes
    in query order, stopped at the first class that reaches the largest
    key any class can have.  At every prime checked that is the fourth
    class, h = (0,1,2), so the report needs no enumeration and holds at
    any modulus.  Only the two minima become ``Fraction``s.  The guard
    rejects p beyond 31 unless ``force`` is set.
    """
    check_enumeration_guard(p, force)
    sp = p * p - p + 1  # row sum at a positive vector
    sn = p - 1  # row sum at a negative vector

    # Both ratios are sp*sn over an integer key, smallest where the key is
    # largest.  Randomized: max(sp/a, sn/b) = sp*sn / min(sn*a, sp*b).
    # Quantum: sp*sn / (a*b).
    rand_key, r = _first_max(p, lambda kind, a, b: min(sn * a, sp * b))
    quad_key, q = _first_max(p, lambda kind, a, b: a * b)
    best_quad = Fraction(sp * sn, quad_key)

    def witness(cand) -> Witness:
        h, kind, a, b = cand
        n = _first_vector(p, True, h, 1 - kind)
        n_prime = _first_vector(p, False, h, kind)
        return Witness(n, n_prime, h, a, b)

    return AdversaryReport(
        p=p,
        count_positive=sn,
        count_negative=sp,
        sigma_positive=sp,
        sigma_negative=sn,
        worst_ratio_randomized=Fraction(sp * sn, rand_key),
        worst_ratio_quantum_squared=best_quad,
        worst_ratio_quantum=float(best_quad) ** 0.5,
        witness_randomized=witness(r),
        witness_quantum=witness(q),
    )
