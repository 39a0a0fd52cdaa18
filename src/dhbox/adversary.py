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
multiple of h, so only the p^2 + p + 1 projective classes are counted,
each by its lexicographically first member (leading coordinate 1).  In
x = n_1 - 1 the positives are the conic x * (n_2 - 1) = 1 with x != 0,
so the positives on a hyperplane are the nonzero roots of a quadratic,
read from a table of the squares mod p.  Counting and minimization are
vectorized.  Each ratio is a constant over an integer key below p^3, so
its minimum is the first maximum of an int64 array and reported values
never owe anything to float rounding.  The reduction is a plain
maximum, hence insensitive to any chunking or parallel split of the
classes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .modmath import PrimeModulus, _inv_int

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


def _class_counts(p: int):
    """Per-query counts over the p^2 + p + 1 projective query classes.

    Each class is given by its lexicographically first member, the one
    whose leading nonzero coordinate is 1: (0,0,1), then (0,1,x), then
    (1,a,b).  These members come in lexicographic order too, so the
    first minimum over classes is the first minimum over all h.

    Returns the class coordinates and flat arrays of the number of
    positive vectors on the hyperplane of h, the number of negative
    ones, and their complements off the hyperplane.  The positives are
    n1 = 1 + x, n2 = 1 + 1/x for x != 0, so with S = h0 + h1 + h2 those
    on the hyperplane are the nonzero roots x of h1 x^2 + S x + h2: by
    the discriminant when h1 != 0 (less the root x = 0 when h2 = 0),
    else one root when h2 != 0 and S = h0 + h2 != 0.
    """
    rest = np.arange(p * p, dtype=np.int64)
    h0 = np.concatenate((np.zeros(p + 1, dtype=np.int64), np.ones(p * p, dtype=np.int64)))
    h1 = np.concatenate(([0], np.ones(p, dtype=np.int64), rest // p))
    h2 = np.concatenate(([1], np.arange(p, dtype=np.int64), rest % p))
    square = np.zeros(p, dtype=bool)
    square[np.arange(p, dtype=np.int64) ** 2 % p] = True
    s = (h0 + h1 + h2) % p
    disc = (s * s - 4 * h1 * h2) % p
    roots = np.where(disc == 0, 1, 2 * square[disc])
    pos_on = np.where(
        h1 != 0, roots - (h2 == 0), (h2 != 0) & ((h0 + h2) % p != 0)
    ).astype(np.int64)
    # Points on a hyperplane: p when (h1, h2) != 0; only h = (1,0,0) has none.
    total_on = np.where((h1 != 0) | (h2 != 0), p, 0)
    neg_on = total_on - pos_on
    n_pos = p - 1
    n_neg = p * p - p + 1
    return (h0, h1, h2), pos_on, neg_on, n_pos - pos_on, n_neg - neg_on


def _admissible_pairs(p: int):
    """The admissible (a, b) row-sum pairs over all query classes.

    Candidate j = 2*i + kind for class i: kind A (j even) has the
    positive row answer 1 and the negative row 0; kind B (j odd) the
    reverse.  a is the row sum at the positive vector (the negatives
    answering otherwise) and b the one at the negative vector; a
    candidate is admissible when both are at least 1, that is when both
    rows exist.  This is the order of a loop over h trying A before B, so
    a first maximum over the candidates is that loop's first extremum.

    Returns the class coordinates, the admissible candidate indices j
    and the int64 arrays a and b at those indices.
    """
    h, pos_on, neg_on, pos_off, neg_off = _class_counts(p)
    sig_n = np.stack([neg_off, neg_on], axis=1).ravel()
    sig_np = np.stack([pos_on, pos_off], axis=1).ravel()
    admissible = np.flatnonzero((sig_n >= 1) & (sig_np >= 1))
    return h, admissible, sig_n[admissible], sig_np[admissible]


def case_count_extremes(p: int):
    """Largest restricted row sums over all admissible (n, n', h).

    For a pair distinguished by h, the negative side answering 0 has row
    sum equal to the number of positives on the hyperplane (at most 2:
    they are roots of a nonzero quadratic), and the positive side
    answering 0 has row sum equal to the number of negatives on the
    hyperplane (at most p: a nonzero linear equation).  Returns the
    observed maxima of the two counts: b over kind A, a over kind B.
    """
    PrimeModulus(p)
    _, admissible, a, b = _admissible_pairs(p)
    kind_a = admissible % 2 == 0
    return int(b[kind_a].max(initial=0)), int(a[~kind_a].max(initial=0))


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
    excluded.
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

    The p^2 + p + 1 projective query classes are counted by
    ``_class_counts`` (O(p^2) time and memory).  Each ratio is sp*sn
    over an int64 key, so its first minimum is the first ``np.argmax``
    of the key; every key is below p^3, exact far beyond what the
    counting can hold in memory.  Only the two minima become
    ``Fraction``s.  The guard rejects p beyond 31 unless ``force`` is set.
    """
    check_enumeration_guard(p, force)
    (h0, h1, h2), admissible, a, b = _admissible_pairs(p)
    if admissible.size == 0:
        raise AssertionError("no admissible (n, n', h) found")
    sp = p * p - p + 1  # row sum at a positive vector
    sn = p - 1  # row sum at a negative vector

    # Both ratios are sp*sn over an integer key, smallest where the key is
    # largest.  Randomized: max(sp/a, sn/b) = sp*sn / min(sn*a, sp*b).
    # Quantum: sp*sn / (a*b).
    rand_key = np.minimum(sn * a, sp * b)
    quad_key = a * b
    r = int(np.argmax(rand_key))
    q = int(np.argmax(quad_key))
    best_rand = Fraction(sp * sn, int(rand_key[r]))
    best_quad = Fraction(sp * sn, int(quad_key[q]))

    def witness(c: int) -> Witness:
        i, kind = divmod(int(admissible[c]), 2)
        h = (int(h0[i]), int(h1[i]), int(h2[i]))
        pos_answer = 1 - kind
        n = _first_vector(p, True, h, pos_answer)
        n_prime = _first_vector(p, False, h, 1 - pos_answer)
        return Witness(n, n_prime, h, int(a[c]), int(b[c]))

    return AdversaryReport(
        p=p,
        count_positive=sn,
        count_negative=sp,
        sigma_positive=sp,
        sigma_negative=sn,
        worst_ratio_randomized=best_rand,
        worst_ratio_quantum_squared=best_quad,
        worst_ratio_quantum=float(best_quad) ** 0.5,
        witness_randomized=witness(r),
        witness_quantum=witness(q),
    )
