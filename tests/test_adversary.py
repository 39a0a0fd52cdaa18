import json
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dhbox.adversary import (
    ClassifiedVector,
    adversary_bounds,
    case_count_extremes,
    classify,
    identity_value,
    is_positive,
    positive_pairs,
    sigma_gamma,
    sigma_gamma_h,
)
from dhbox.modmath import is_prime


def build_gamma(p):
    """The adversary matrix materialized explicitly (reference, small p).

    Rows and columns are indexed by n1 * p + n2.
    """
    pos = np.array(
        [is_positive(p, n1, n2) for n1 in range(p) for n2 in range(p)],
        dtype=bool,
    )
    return (pos[:, None] ^ pos[None, :]).astype(np.int64)


def _hyperplane_counts(p):
    """Reference per-query counts over all h in Z_p^3: one pass over the
    p^3 queries per positive pair.

    Returns flat arrays (indexed by h0*p^2 + h1*p + h2) of the number of
    positive vectors on the hyperplane of h, the number of negative ones,
    and their complements off the hyperplane.
    """
    idx = np.arange(p**3, dtype=np.int64)
    h0 = idx // (p * p)
    h1 = (idx // p) % p
    h2 = idx % p
    pos_on = np.zeros(p**3, dtype=np.int64)
    for m1, m2 in positive_pairs(p):
        pos_on += (h0 + h1 * m1 + h2 * m2) % p == 0
    # Points on a hyperplane: p when (h1, h2) != 0, else p^2 or none.
    total_on = np.where(
        (h1 != 0) | (h2 != 0), p, np.where(h0 == 0, p * p, 0)
    ).astype(np.int64)
    neg_on = total_on - pos_on
    n_pos = p - 1
    n_neg = p * p - p + 1
    return pos_on, neg_on, n_pos - pos_on, n_neg - neg_on


def _class_counts(p):
    """Reference per-query counts over the p^2 + p + 1 projective query
    classes, as numpy arrays in query order.

    Each class is given by its lexicographically first member: (0,0,1),
    then (0,1,x), then (1,a,b).  Returns the class coordinates and flat
    arrays of the number of positive vectors on the hyperplane of h, the
    number of negative ones, and their complements off the hyperplane.
    The positives on the hyperplane are the nonzero roots x of
    h1 x^2 + S x + h2 with S = h0 + h1 + h2, read from a table of the
    squares mod p.
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


def _reference_pairs(p):
    """The admissible (h0, h1, h2, kind, a, b) rows of the class table.

    Candidate j = 2*i + kind for class i, kind A (0) before kind B (1):
    a is the row sum at the positive vector, b the one at the negative
    vector, and a candidate is admissible when both are at least 1.
    """
    (h0, h1, h2), pos_on, neg_on, pos_off, neg_off = _class_counts(p)
    a = np.stack([neg_off, neg_on], axis=1).ravel()
    b = np.stack([pos_on, pos_off], axis=1).ravel()
    j = np.flatnonzero((a >= 1) & (b >= 1))
    i, kind = j // 2, j % 2
    return np.stack([h0[i], h1[i], h2[i], kind, a[j], b[j]], axis=1)


def _table_first_maxima(p):
    """The first maximum of each ratio key over the class table, as
    (key, ((h0, h1, h2), kind, a, b)): the randomized key
    min(sn*a, sp*b), then the quantum key a*b."""
    rows = _reference_pairs(p)
    a, b = rows[:, 4], rows[:, 5]
    sp, sn = p * p - p + 1, p - 1
    maxima = []
    for values in (np.minimum(sn * a, sp * b), a * b):
        first = int(np.argmax(values))
        h0, h1, h2, kind, ra, rb = (int(v) for v in rows[first])
        maxima.append((int(values[first]), ((h0, h1, h2), kind, ra, rb)))
    return maxima


def reference_first_vector(p, positive, h, answer):
    """Reference witness search: the p^2 scan in lexicographic order."""
    for n1 in range(p):
        for n2 in range(p):
            if is_positive(p, n1, n2) != positive:
                continue
            if identity_value(p, n1, n2, h) == answer:
                return (1, n1, n2)
    raise AssertionError("no vector matches an admissible kind")


PRIMES_TO_61 = [q for q in range(3, 62) if is_prime(q)]
PRIMES_BELOW_250 = [q for q in range(3, 250) if is_prime(q)]


def brute_force_minima(p):
    """Independent reference: literal triple loop over (n, n', h) with
    row sums by direct enumeration."""
    positives = [(a, b) for a in range(p) for b in range(p) if is_positive(p, a, b)]
    negatives = [(a, b) for a in range(p) for b in range(p) if not is_positive(p, a, b)]
    sp = p * p - p + 1
    sn = p - 1

    def sigma_h(vec, positive, h):
        own = identity_value(p, vec[0], vec[1], h)
        opposite = negatives if positive else positives
        return sum(1 for m in opposite if identity_value(p, m[0], m[1], h) != own)

    best_r = best_q = None
    for n in positives:
        for m in negatives:
            for h in product(range(p), repeat=3):
                if identity_value(p, n[0], n[1], h) == identity_value(p, m[0], m[1], h):
                    continue
                shn = sigma_h(n, True, h)
                shm = sigma_h(m, False, h)
                r = max(Fraction(sp, shn), Fraction(sn, shm))
                q = Fraction(sp * sn, shn * shm)
                best_r = r if best_r is None else min(best_r, r)
                best_q = q if best_q is None else min(best_q, q)
    return best_r, best_q


def test_classify_p5_fixture():
    vecs = classify(5)
    positives = {(v.n1, v.n2) for v in vecs if v.positive}
    assert positives == {(0, 0), (2, 2), (3, 4), (4, 3)}
    assert len(positives) == 4


def test_classify_counts():
    for p in (3, 5, 7, 11, 13):
        vecs = classify(p)
        assert len(vecs) == p * p
        npos = sum(v.positive for v in vecs)
        assert npos == p - 1
        assert len(vecs) - npos == p * p - p + 1


def test_n1_equal_one_never_positive():
    for p in (3, 5, 7, 11, 13):
        for n2 in range(p):
            assert not is_positive(p, 1, n2)


def test_positive_pairs_closed_form_matches_enumeration():
    for p in (3, 5, 7, 11, 13):
        enumerated = sorted(
            (a, b) for a in range(p) for b in range(p) if is_positive(p, a, b)
        )
        assert positive_pairs(p) == enumerated


def test_sigma_gamma_values_and_materialized_rows():
    for p in (3, 5, 7):
        gamma = build_gamma(p)
        vecs = classify(p)
        for idx, vec in enumerate(vecs):
            expected = p * p - p + 1 if vec.positive else p - 1
            assert sigma_gamma(p, vec) == expected
            assert gamma[idx].sum() == expected
    assert sigma_gamma(5, ClassifiedVector(2, 2, True)) == 21
    assert sigma_gamma(5, ClassifiedVector(1, 0, False)) == 4


def test_gamma_is_symmetric_zero_diagonal_bipartite():
    for p in (3, 5, 7):
        gamma = build_gamma(p)
        assert (gamma == gamma.T).all()
        assert (np.diag(gamma) == 0).all()


def test_gamma_entries_match_label_route():
    # independent route: the DH-quadruple status of the fixed instance is
    # recomputed through coset labels instead of the closed-form polarity
    from dhbox.adversary import FIXED_INSTANCE
    from dhbox.blackbox import GroupElement, NormalVector, coset_label
    from dhbox.modmath import PrimeModulus

    for p in (3, 5, 7):
        pm = PrimeModulus(p)
        g, h, k, l = (GroupElement(c, pm) for c in FIXED_INSTANCE)
        answers = []
        for n1 in range(p):
            for n2 in range(p):
                n = NormalVector((1, n1, n2), pm)
                lhs = coset_label(n, g).value * coset_label(n, l).value % p
                rhs = coset_label(n, h).value * coset_label(n, k).value % p
                answers.append(lhs == rhs)
        gamma = build_gamma(p)
        for i, ai in enumerate(answers):
            for j, aj in enumerate(answers):
                assert gamma[i, j] == (1 if ai != aj else 0)


def test_sigma_gamma_h_zero_query():
    for p in (3, 5):
        for vec in classify(p):
            assert sigma_gamma_h(p, vec, (0, 0, 0)) == 0


def test_sigma_gamma_h_case_bounds_exhaustive():
    # over every admissible (n, n', h): the side answering 0 obeys the
    # root-count bounds, <= 2 for the negative row and <= p for the positive
    for p in (3, 5, 7, 11, 13):
        c1, c2 = case_count_extremes(p)
        assert c1 <= 2
        assert c2 <= p


def test_class_table_matches_reference_counts():
    # Every nonzero h, scaled members included, reads the counts of its
    # class representative: leading nonzero coordinate scaled to 1.
    for p in PRIMES_TO_61:
        classes, *table = _class_counts(p)
        assert len(classes[0]) == p * p + p + 1
        reference = _hyperplane_counts(p)
        idx = np.arange(1, p**3, dtype=np.int64)
        h = np.stack([idx // (p * p), (idx // p) % p, idx % p])
        lead = np.where(h[0] != 0, h[0], np.where(h[1] != 0, h[1], h[2]))
        inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
        rep = h * inverse[lead] % p
        cls = np.where(rep[0] == 1, p + 1 + rep[1] * p + rep[2], np.where(rep[1] == 1, 1 + rep[2], 0))
        assert (np.stack(classes)[:, cls] == rep).all()
        for got, ref in zip(table, reference):
            assert (got[cls] == ref[idx]).all()


def test_case_count_extremes_matches_reference():
    for p in PRIMES_TO_61:
        pos_on, neg_on, pos_off, neg_off = _hyperplane_counts(p)
        kind_a = (pos_on >= 1) & (neg_off >= 1)
        kind_b = (pos_off >= 1) & (neg_on >= 1)
        assert case_count_extremes(p) == (int(pos_on[kind_a].max()), int(neg_on[kind_b].max()))


def test_witnesses_are_the_reference_first_vectors_below_250():
    # Each witness is the p^2 reference scan's first positive and first
    # negative vector answering as the class table's first maximum asks:
    # the positive answers 1 - kind, the negative kind.
    for p in PRIMES_BELOW_250:
        rep = adversary_bounds(p, force=True)
        witnesses = (rep.witness_randomized, rep.witness_quantum)
        for wit, (_, (h, kind, _, _)) in zip(witnesses, _table_first_maxima(p)):
            assert wit.n == reference_first_vector(p, True, h, 1 - kind), p
            assert wit.n_prime == reference_first_vector(p, False, h, kind), p


def test_sigma_gamma_h_direct_spot_checks():
    p = 5
    vecs = {(v.n1, v.n2): v for v in classify(p)}
    # n' = (1,0,1) negative, h = (0,1,2): answers 0; positives on that
    # hyperplane are (2,2) and (3,4) -> row sum 2
    assert identity_value(p, 0, 1, (0, 1, 2)) == 0
    assert sigma_gamma_h(p, vecs[(0, 1)], (0, 1, 2)) == 2
    # n = (1,0,0) positive answers 1 at the same h
    assert sigma_gamma_h(p, vecs[(0, 0)], (0, 1, 2)) == 21 - 3


def test_adversary_bounds_match_brute_force():
    for p in (3, 5, 7):
        ref_r, ref_q = brute_force_minima(p)
        rep = adversary_bounds(p)
        assert rep.worst_ratio_randomized == ref_r
        assert rep.worst_ratio_quantum_squared == ref_q


def test_adversary_bounds_frozen_values():
    expected = {
        3: (Fraction(7, 6), Fraction(7, 6)),
        5: (Fraction(2), Fraction(7, 3)),
        7: (Fraction(3), Fraction(129, 38)),
        11: (Fraction(5), Fraction(185, 34)),
        13: (Fraction(6), Fraction(471, 73)),
    }
    for p, (rand, quad) in expected.items():
        rep = adversary_bounds(p)
        assert rep.worst_ratio_randomized == rand
        assert rep.worst_ratio_quantum_squared == quad
        assert rep.worst_ratio_quantum == pytest.approx(float(quad) ** 0.5)
        assert rep.count_positive == p - 1
        assert rep.count_negative == p * p - p + 1
        assert rep.sigma_positive == p * p - p + 1
        assert rep.sigma_negative == p - 1


def test_adversary_witnesses_are_admissible():
    for p in (3, 5, 7, 11):
        rep = adversary_bounds(p)
        for wit in (rep.witness_randomized, rep.witness_quantum):
            n1, n2 = wit.n[1], wit.n[2]
            m1, m2 = wit.n_prime[1], wit.n_prime[2]
            assert is_positive(p, n1, n2)
            assert not is_positive(p, m1, m2)
            assert identity_value(p, n1, n2, wit.h) != identity_value(p, m1, m2, wit.h)
            vec_n = ClassifiedVector(n1, n2, True)
            vec_m = ClassifiedVector(m1, m2, False)
            assert sigma_gamma_h(p, vec_n, wit.h) == wit.sigma_h_n
            assert sigma_gamma_h(p, vec_m, wit.h) == wit.sigma_h_n_prime
            # the reported ratio is realized by its witness
        rep_value = max(
            Fraction(rep.sigma_positive, rep.witness_randomized.sigma_h_n),
            Fraction(rep.sigma_negative, rep.witness_randomized.sigma_h_n_prime),
        )
        assert rep_value == rep.worst_ratio_randomized


def test_adversary_ratio_growth():
    ratios = []
    for p in (3, 5, 7, 11, 13):
        rep = adversary_bounds(p)
        ratios.append(Fraction(rep.worst_ratio_randomized, p))
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert min(ratios) >= Fraction(1, 3)


def rational_loop_minima(p):
    """Reference minimisation: a per-h loop over the hyperplane counts in
    exact rationals, trying kind A (positive row answers 1) before kind B
    and keeping the first strict minimum.  Returns (value, h, sigma_h_n,
    sigma_h_n') for the randomized and the quantum ratio."""
    pos_on, neg_on, pos_off, neg_off = _hyperplane_counts(p)
    sp, sn = p * p - p + 1, p - 1
    best = {"r": None, "q": None}
    for i in range(p**3):
        h = (i // (p * p), (i // p) % p, i % p)
        for a, b in ((int(neg_off[i]), int(pos_on[i])), (int(neg_on[i]), int(pos_off[i]))):
            if a < 1 or b < 1:
                continue
            for key, value in (("r", max(Fraction(sp, a), Fraction(sn, b))), ("q", Fraction(sp * sn, a * b))):
                if best[key] is None or value < best[key][0]:
                    best[key] = (value, h, a, b)
    return best["r"], best["q"]


def test_adversary_minimum_matches_rational_loop():
    # The vectorised exact minimum picks the same values and the same
    # first witnesses as the loop over h in exact rationals.
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        rep = adversary_bounds(p)
        ref_r, ref_q = rational_loop_minima(p)
        for (value, h, a, b), got, wit in (
            (ref_r, rep.worst_ratio_randomized, rep.witness_randomized),
            (ref_q, rep.worst_ratio_quantum_squared, rep.witness_quantum),
        ):
            assert got == value
            assert (wit.h, wit.sigma_h_n, wit.sigma_h_n_prime) == (h, a, b)


def test_randomized_key_identity():
    # The randomized minimum is the first maximum of min(sn*a, sp*b): the
    # identity max(sp/a, sn/b) = sp*sn / min(sn*a, sp*b), at every row-sum
    # pair a <= sp, b <= sn.
    for p in (3, 5, 7, 11, 13):
        sp, sn = p * p - p + 1, p - 1
        for a in range(1, sp + 1):
            for b in range(1, sn + 1):
                assert max(Fraction(sp, a), Fraction(sn, b)) == Fraction(sp * sn, min(sn * a, sp * b))


def test_closed_form_proof_with_sympy():
    # The proof in the adversary module's docstring, step by step.
    import sympy

    p, q, x = sympy.symbols("p q x")
    sp, sn, big_a = p**2 - p + 1, p - 1, p**2 - 2 * p + 3

    def at_least(expr, bound, start):
        # expr >= bound at every integer p >= start: in q = p - start,
        # expr - bound has no negative coefficient.
        poly = sympy.Poly(sympy.expand((expr - bound).subs(p, q + start)), q)
        return all(c >= 0 for c in poly.all_coeffs())

    # Kind A then kind B (a, b) of each type (positives on, negatives on).
    pairs = []
    for pos_on, neg_on in ((0, 0), (0, p), (1, p - 1), (2, p - 2)):
        pairs += [(sp - neg_on, pos_on), (neg_on, sn - pos_on)]
    pairs = [(sympy.expand(a), sympy.expand(b)) for a, b in map(sympy.sympify, pairs)]
    win_a, win_b = pairs.pop(6)  # type (2, p-2), kind A
    assert win_a == sympy.expand(big_a) and win_b == 2

    # p >= 5: a pair is admissible at every p or at none.
    others = []
    for a, b in pairs:
        if a == 0 or b == 0:
            continue
        assert at_least(a, 1, 5) and at_least(b, 1, 5)
        others.append((a, b))
    assert len(others) == 4
    # The winner's randomized key is 2sp, larger than min(sn*a, sp*b) of
    # every other pair; its quantum key 2A is larger than every a*b.
    assert at_least(sn * win_a, 2 * sp, 5)
    for a, b in others:
        assert at_least(2 * sp, sn * a + 1, 5) or at_least(2 * sp, sp * b + 1, 5)
        assert at_least(2 * win_a, a * b + 1, 5)

    # p = 3 (sn = 2, sp = 7): the four types directly.
    at3 = [(int(a.subs(p, 3)), int(b.subs(p, 3))) for a, b in pairs]
    at3 = [(a, b) for a, b in at3 if a >= 1 and b >= 1]
    assert len(at3) == 3  # type (2, 1) kind B has b = 0
    win3 = (int(win_a.subs(p, 3)), int(win_b))
    for key in (lambda a, b: min(2 * a, 7 * b), lambda a, b: a * b):
        assert all(key(*win3) > key(a, b) for a, b in at3)

    # The positives n = (1 + x, 1 + 1/x), x != 0, on the hyperplane of h
    # are the nonzero roots of h1 x^2 + (h0 + h1 + h2) x + h2.  For the
    # first four classes, and for (1,0,-1) of case_count_extremes, the
    # polynomial is monic or constant and splits over the integers, with
    # roots whose differences, and whose values, no odd prime divides.
    def no_odd_factor(r):
        return r != 0 and all(f in (-1, 2) for f in sympy.factorint(r))

    expected = {(0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 1, (0, 1, 2): 2, (1, 0, -1): 0}
    for h, count in expected.items():
        h0, h1, h2 = h
        poly = sympy.Poly(sympy.expand(x * (h0 + h1 * (1 + x) + h2 * (1 + 1 / x))), x)
        assert poly == sympy.Poly(h1 * x**2 + (h0 + h1 + h2) * x + h2, x)
        roots = sympy.roots(poly)
        assert sum(roots.values()) == poly.degree() and all(r.is_integer for r in roots)
        if poly.degree() > 0:
            assert poly.LC() == 1
        nonzero = [r for r in roots if r != 0]
        assert all(no_odd_factor(r) for r in nonzero), h
        assert all(no_odd_factor(r - t) for r in nonzero for t in nonzero if r != t), h
        assert len(nonzero) == count, h
        for prime in PRIMES_TO_61:
            on = sum(identity_value(prime, n1, n2, h) for n1, n2 in positive_pairs(prime))
            assert on == count, (h, prime)


def test_adversary_closed_forms_below_250_and_at_1009():
    for p in [q for q in range(5, 250) if is_prime(q)] + [1009]:
        rep = adversary_bounds(p, force=True)
        assert rep.worst_ratio_randomized == Fraction(p - 1, 2)
        assert rep.worst_ratio_quantum_squared == Fraction(
            (p * p - p + 1) * (p - 1), 2 * (p * p - 2 * p + 3)
        )
        assert rep.witness_randomized.h == rep.witness_quantum.h == (0, 1, 2)


def test_report_is_the_class_table_first_maximum_below_250():
    # Each ratio is sp*sn over the first maximum of its key over the
    # table's admissible rows, and that row holds the witness's h, a and
    # b; the two counts' maxima are case_count_extremes.
    for p in PRIMES_BELOW_250:
        rep = adversary_bounds(p, force=True)
        sp, sn = p * p - p + 1, p - 1
        for ratio, wit, (key, (h, _, a, b)) in zip(
            (rep.worst_ratio_randomized, rep.worst_ratio_quantum_squared),
            (rep.witness_randomized, rep.witness_quantum),
            _table_first_maxima(p),
        ):
            assert ratio == Fraction(sp * sn, key), p
            assert (wit.h, wit.sigma_h_n, wit.sigma_h_n_prime) == (h, a, b), p
        rows = _reference_pairs(p)
        kind, a, b = rows[:, 3], rows[:, 4], rows[:, 5]
        assert case_count_extremes(p) == (int((b * (1 - kind)).max()), int((a * kind).max())), p


def test_adversary_closed_forms_at_61_bit_primes():
    # The report is a closed form, so at the largest supported primes it
    # takes well under a second.
    for p in (2**61 - 1, 27 * 2**56 + 1):
        start = time.perf_counter()
        rep = adversary_bounds(p, force=True)
        assert time.perf_counter() - start < 1.0
        assert rep.worst_ratio_randomized == Fraction(p - 1, 2)
        assert rep.worst_ratio_quantum_squared == Fraction(
            (p * p - p + 1) * (p - 1), 2 * (p * p - 2 * p + 3)
        )
        assert rep.witness_randomized.h == rep.witness_quantum.h == (0, 1, 2)


def test_case_count_extremes_closed_form_at_61_bit_primes():
    # (2, p) with no walk: the same pair the reference counts give below 62.
    for p in (2**61 - 1, 27 * 2**56 + 1):
        assert case_count_extremes(p) == (2, p)


def test_adversary_memory_is_quadratic():
    # The p^3 count arrays took 162 MB at p = 101; the closed form holds
    # no array at all.
    tracemalloc.start()
    try:
        adversary_bounds(101, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_enumeration_guard():
    with pytest.raises(ValueError):
        adversary_bounds(37)
    rep = adversary_bounds(37, force=True)
    assert rep.worst_ratio_randomized == Fraction(18)  # (p-1)/2 pattern continues


def test_report_json_schema():
    rep = adversary_bounds(5)
    payload = json.loads(rep.to_json())
    assert payload["p"] == 5
    assert payload["count_positive"] == 4
    assert payload["count_negative"] == 21
    assert payload["worst_ratio_randomized"] == 2.0
    assert payload["worst_ratio_randomized_exact"] == "2"
    assert payload["worst_ratio_quantum_squared_exact"] == "7/3"
    for key in ("randomized", "quantum"):
        wit = payload["witnesses"][key]
        assert len(wit["n"]) == 3 and wit["n"][0] == 1
        assert len(wit["n_prime"]) == 3 and wit["n_prime"][0] == 1
        assert len(wit["h"]) == 3
