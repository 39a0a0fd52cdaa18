import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.algorithms import (
    CdhOracle,
    DHInstance,
    DishonestOracleError,
    DlogOracle,
    EmbeddedOracle,
    NotAGeneratorError,
    brute_force_hidden_vector,
    brute_force_secret,
    cdh_given_secret,
    ddh_decide_by_search,
    ddh_decide_level1,
    dlog_given_secret,
    embed_generic_group,
    honest_cdh_oracle,
    honest_dlog_oracle,
    lift_instance,
    lift_oracle,
    project_cdh_answer,
    secret_from_cdh,
    secret_from_cdh_random,
    secret_from_dlog,
    secret_from_dlog_random,
)
from dhbox.blackbox import (
    Escrow,
    GroupElement,
    IdentityOracle,
    OracleView,
    QueryBudgetExceeded,
    canonical_element,
    coset_label,
    equal_in_group,
    first_on_line,
    scan_line,
)
from dhbox.modmath import PrimeModulus, QuadraticPoly, Residue, _sylow2, solve_quadratic, sqrt_mod

ESCROW = Escrow()


def elem(pm, *coords):
    return GroupElement(coords, pm)


def label_of(s, e):
    p = e.modulus.p
    acc = e.coords[0]
    for c, n in zip(e.coords[1:], (s,)):
        acc += c * n
    return acc % p


# ---------------------------------------------------------------- DDH level 1


def test_ddh_yes_fixture():
    pm = PrimeModulus(5)
    o = IdentityOracle.level1(pm, 2)
    inst = DHInstance(elem(pm, 1, 0), elem(pm, 0, 1), elem(pm, 0, 1), elem(pm, 4, 0))
    assert ddh_decide_level1(o, inst, check_generator=False) == 1
    assert o.queries <= 2


def test_ddh_no_fixture():
    pm = PrimeModulus(5)
    o = IdentityOracle.level1(pm, 2)
    inst = DHInstance(elem(pm, 1, 0), elem(pm, 0, 1), elem(pm, 0, 1), elem(pm, 3, 0))
    assert ddh_decide_level1(o, inst, check_generator=False) == 0


def test_ddh_constant_polynomial_zero_queries():
    pm = PrimeModulus(5)
    o = IdentityOracle.level1(pm, 2)
    g = elem(pm, 1, 0)
    assert ddh_decide_level1(o, DHInstance(g, g, g, g), check_generator=False) == 1
    assert o.queries == 0


def test_ddh_generator_precheck():
    pm = PrimeModulus(5)
    o = IdentityOracle.level1(pm, 2)
    bad_g = elem(pm, 3, 1)  # 3 + 2 = 5 = 0: on the hidden line
    inst = DHInstance(bad_g, elem(pm, 0, 1), elem(pm, 0, 1), elem(pm, 4, 0))
    with pytest.raises(NotAGeneratorError):
        ddh_decide_level1(o, inst)
    assert o.queries == 1


def test_ddh_exhaustive_small_primes_vs_reference():
    for p in (3, 5):
        pm = PrimeModulus(p)
        elems = [GroupElement((a, b), pm) for a in range(p) for b in range(p)]
        g = elems[p]  # (1, 0)
        for s in range(p):
            o = IdentityOracle.level1(pm, s)
            labels = [label_of(s, e) for e in elems]
            for hi, ki, li in itertools.product(range(p * p), repeat=3):
                before = o.queries
                got = ddh_decide_level1(
                    o, DHInstance(g, elems[hi], elems[ki], elems[li]), check_generator=False
                )
                assert o.queries - before <= 2
                ref = 1 if labels[li] % p == labels[hi] * labels[ki] % p else 0
                assert got == ref


def test_ddh_random_large_modulus():
    p = 2147483647
    pm = PrimeModulus(p)
    rng = np.random.default_rng(17)
    g = elem(pm, 1, 0)
    coords = rng.integers(p, size=(100_000, 7))
    for row in coords:
        s = int(row[0])
        o = IdentityOracle.level1(pm, s)
        h = GroupElement((int(row[1]), int(row[2])), pm)
        k = GroupElement((int(row[3]), int(row[4])), pm)
        l = GroupElement((int(row[5]), int(row[6])), pm)
        ref = 1 if label_of(s, l) == label_of(s, h) * label_of(s, k) % p else 0
        assert ddh_decide_level1(o, DHInstance(g, h, k, l), check_generator=False) == ref


def test_ddh_level_and_missing_l_rejected():
    pm = PrimeModulus(5)
    o = IdentityOracle.level1(pm, 2)
    with pytest.raises(ValueError):
        ddh_decide_level1(o, DHInstance(elem(pm, 1, 0), elem(pm, 0, 1), elem(pm, 0, 1)))
    inst2 = DHInstance(
        elem(pm, 1, 0, 0), elem(pm, 0, 1, 0), elem(pm, 0, 1, 0), elem(pm, 0, 1, 0)
    )
    with pytest.raises(ValueError):
        ddh_decide_level1(o, inst2)
    # an oracle modulo another prime is refused before any query
    pm7 = PrimeModulus(7)
    inst7 = DHInstance(elem(pm7, 1, 0), elem(pm7, 0, 1), elem(pm7, 0, 1), elem(pm7, 4, 0))
    o11 = IdentityOracle.level1(PrimeModulus(11), 2)
    for decide in (
        ddh_decide_level1,
        lambda o, inst: ddh_decide_level1(o, inst, check_generator=False),
        ddh_decide_by_search,
    ):
        with pytest.raises(ValueError, match="modulus mismatch"):
            decide(o11, inst7)
        assert o11.queries == 0


# ---------------------------------------------------------- secret from DLOG


def test_secret_from_dlog_examples():
    for p, s in ((7, 3), (7, 0), (11, 7)):
        pm = PrimeModulus(p)
        o = IdentityOracle.level1(pm, s)
        d = honest_dlog_oracle(o, ESCROW)
        got = secret_from_dlog(d)
        assert got.value == s
        assert d.calls == 1
        assert o.queries == 0


def test_secret_from_dlog_all_secrets():
    pm = PrimeModulus(11)
    for s in range(11):
        d = honest_dlog_oracle(IdentityOracle.level1(pm, s), ESCROW)
        assert secret_from_dlog(d).value == s
        assert d.calls == 1


def test_secret_from_dlog_random():
    pm = PrimeModulus(11)
    o = IdentityOracle.level1(pm, 4)
    d = honest_dlog_oracle(o, ESCROW)
    got = secret_from_dlog_random(d, np.random.default_rng(3))
    assert got is not None and got.value == 4

    # degenerate draws (h a multiple of g, so the divisor vanishes) must
    # surface as None; both outcomes occur at p = 11 across seeds
    hits = 0
    nones = 0
    for seed in range(300):
        o = IdentityOracle.level1(pm, 4)
        d = honest_dlog_oracle(o, ESCROW)
        got = secret_from_dlog_random(d, np.random.default_rng(seed))
        if got is None:
            nones += 1
        else:
            assert got.value == 4
            hits += 1
    assert hits > 0 and nones > 0


def test_secret_from_dlog_random_resamples_non_generators():
    pm = PrimeModulus(5)
    seen = []

    def picky(g, h):
        fg = label_of(3, g)
        if fg == 0:
            raise NotAGeneratorError("non-generator")
        seen.append(g)
        return label_of(3, h) * pow(fg, -1, 5) % 5

    d = DlogOracle(picky, pm)
    got = secret_from_dlog_random(d, np.random.default_rng(0))
    assert got is None or got.value == 3
    assert d.calls >= len(seen)


# ----------------------------------------------------------- secret from CDH


def test_secret_from_cdh_fixture_p7():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3)
    c = honest_cdh_oracle(o, ESCROW)
    # honest answer class has label s^2 + s = 12 = 5
    got = secret_from_cdh(c, o)
    assert got.value == 3
    assert c.calls == 1
    assert o.queries <= 2


def test_secret_from_cdh_zero_secret():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 0)
    c = honest_cdh_oracle(o, ESCROW)
    assert secret_from_cdh(c, o).value == 0


def test_secret_from_cdh_all_secrets_exact_counts():
    pm = PrimeModulus(13)
    for s in range(13):
        o = IdentityOracle.level1(pm, s)
        c = honest_cdh_oracle(o, ESCROW)
        assert secret_from_cdh(c, o).value == s
        assert c.calls == 1
        assert o.queries <= 2


def test_each_prime_gets_one_root_table():
    # Every public path to a square root shares the kernel's table for p.
    pm = PrimeModulus(97)  # p - 1 = 3 * 2**5
    o = IdentityOracle.level1(pm, 20)
    inst = DHInstance(elem(pm, 1, 0), elem(pm, 3, 1), elem(pm, 5, 1), elem(pm, 7, 2))
    calls = [
        lambda: sqrt_mod(pm.residue(3)),
        lambda: solve_quadratic(QuadraticPoly.from_ints(pm, 1, 0, -3)),
        lambda: secret_from_cdh(honest_cdh_oracle(o, ESCROW), o),
        lambda: ddh_decide_level1(o, inst),
    ]
    _sylow2.cache_clear()
    for call in calls:
        before = _sylow2.cache_info()
        call()
        after = _sylow2.cache_info()
        assert after.hits + after.misses > before.hits + before.misses
        assert after.currsize == 1
    assert _sylow2.cache_info().misses == 1


def test_secret_from_cdh_random_representatives():
    # the reduction must not depend on which coset representative comes back
    pm = PrimeModulus(13)
    rng = np.random.default_rng(8)
    for s in range(13):
        o = IdentityOracle.level1(pm, s)
        c = honest_cdh_oracle(o, ESCROW, rng=rng)
        assert secret_from_cdh(c, o).value == s


def test_secret_from_cdh_dishonest_oracle():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3)
    liar = CdhOracle(lambda g, h, k: canonical_element(pm, 1, 1), pm)
    with pytest.raises(DishonestOracleError):
        secret_from_cdh(liar, o)
    # a handle modulo another prime is a caller error, not a lying oracle
    c11 = honest_cdh_oracle(IdentityOracle.level1(PrimeModulus(11), 3), ESCROW)
    o7 = IdentityOracle.level1(pm, 3)
    with pytest.raises(ValueError, match="modulus mismatch"):
        secret_from_cdh(c11, o7)
    assert c11.calls == 0 and o7.queries == 0


def test_secret_from_cdh_random_outcomes():
    pm = PrimeModulus(11)
    hits = 0
    nones = 0
    for seed in range(300):
        o = IdentityOracle.level1(pm, 6)
        c = honest_cdh_oracle(o, ESCROW)
        got = secret_from_cdh_random(c, o, np.random.default_rng(seed))
        if got is None:
            nones += 1
        else:
            assert got.value == 6
            hits += 1
    assert hits > 0 and nones > 0


# ------------------------------------------------------------- brute force


def test_brute_force_sequential_counts():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 0)
    assert brute_force_secret(o).value == 0
    assert o.queries == 1
    o = IdentityOracle.level1(pm, 6)
    assert brute_force_secret(o).value == 6
    assert o.queries == 7  # the last candidate is tested, not inferred


def test_brute_force_random_order():
    pm = PrimeModulus(101)
    counts = []
    for seed in range(200):
        o = IdentityOracle.level1(pm, 37)
        got = brute_force_secret(o, np.random.default_rng(seed))
        assert got.value == 37
        counts.append(o.queries)
    mean = sum(counts) / len(counts)
    assert 40 <= mean <= 62  # around (p+1)/2 = 51


def test_brute_force_hidden_vector():
    pm = PrimeModulus(7)
    rng = np.random.default_rng(12)
    from dhbox.blackbox import random_identity_oracle

    for t in (1, 2, 3):
        o = random_identity_oracle(pm, t, rng)
        n = brute_force_hidden_vector(o)
        assert n == o.reveal_hidden(ESCROW)
        assert o.queries <= t * 7


def test_brute_force_at_the_largest_modulus_in_closed_form():
    # At p = 2^61 - 1 a sequential scan is answered without a loop over
    # the candidates, and still charges each candidate up to the hit.
    p = 2**61 - 1
    pm = PrimeModulus(p)
    s = p - 12345
    o = IdentityOracle.level1(pm, s)
    assert brute_force_secret(o).value == s
    assert o.queries == s + 1
    # The lift adds a coordinate whose normal entry is 0: found at x = 0.
    o = IdentityOracle.level1(pm, s)
    assert brute_force_hidden_vector(lift_oracle(o)).coords == (1, s, 0)
    assert o.queries == s + 2
    # A budget one short of the hit refuses at the hit, having spent it.
    o = IdentityOracle.level1(pm, s, budget=s)
    with pytest.raises(QueryBudgetExceeded):
        brute_force_secret(o)
    assert o.queries == s
    # A range longer than sys.maxsize, whose len() overflows, is indexed too.
    o = IdentityOracle.level1(pm, s)
    i = (s + 2**70) % p
    assert first_on_line(o, range(-(2**70), 2**70)) == i - 2**70
    assert o.queries == i + 1


# --------------------------------------------------- derived DLOG/CDH answers


def test_dlog_given_secret_examples():
    pm = PrimeModulus(7)
    assert dlog_given_secret(3, elem(pm, 1, 0), elem(pm, 0, 1)).value == 3
    g = elem(pm, 2, 5)
    assert dlog_given_secret(3, g, g).value == 1
    with pytest.raises(NotAGeneratorError):
        dlog_given_secret(3, elem(pm, 4, 1), elem(pm, 0, 1))


def test_dlog_given_secret_random_instances():
    pm = PrimeModulus(13)
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = int(rng.integers(13))
        o = IdentityOracle.level1(pm, s)
        g = GroupElement((int(rng.integers(13)), int(rng.integers(13))), pm)
        if label_of(s, g) == 0:
            continue
        h = GroupElement((int(rng.integers(13)), int(rng.integers(13))), pm)
        d = dlog_given_secret(s, g, h)
        assert equal_in_group(o, d.value * g, h) == 1


def test_cdh_given_secret():
    pm = PrimeModulus(7)
    got = cdh_given_secret(3, DHInstance(elem(pm, 1, 0), canonical_element(pm, 2, 1), canonical_element(pm, 3, 1)))
    assert got.coords == (6, 0)
    # identity-class h forces the identity-class answer
    got = cdh_given_secret(3, DHInstance(elem(pm, 1, 0), elem(pm, 4, 1), canonical_element(pm, 3, 1)))
    assert got.coords == (0, 0)
    # random instances are accepted by the DDH decision
    pm13 = PrimeModulus(13)
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = int(rng.integers(13))
        o = IdentityOracle.level1(pm13, s)
        g = GroupElement((int(rng.integers(13)), int(rng.integers(13))), pm13)
        if label_of(s, g) == 0:
            continue
        h = GroupElement((int(rng.integers(13)), int(rng.integers(13))), pm13)
        k = GroupElement((int(rng.integers(13)), int(rng.integers(13))), pm13)
        l = cdh_given_secret(s, DHInstance(g, h, k))
        assert ddh_decide_level1(o, DHInstance(g, h, k, l), check_generator=False) == 1


def test_given_secret_refuses_level2_and_mixed_modulus():
    pm, pm11 = PrimeModulus(7), PrimeModulus(11)
    g2, h2 = GroupElement((1, 0, 5), pm), GroupElement((0, 1, 4), pm)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dlog_given_secret(3, g2, h2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cdh_given_secret(3, DHInstance(g2, h2, h2))
    g, h11 = elem(pm, 1, 0), elem(pm11, 0, 1)
    with pytest.raises(ValueError, match="modulus mismatch"):
        dlog_given_secret(3, g, h11)
    with pytest.raises(ValueError, match="modulus mismatch"):
        cdh_given_secret(3, DHInstance(g, h11, elem(pm, 0, 1)))


# ------------------------------------------------------------- lift / project


def test_lift_examples():
    pm = PrimeModulus(5)
    assert lift_instance(
        DHInstance(elem(pm, 1, 0), elem(pm, 0, 1), elem(pm, 0, 1), elem(pm, 4, 0))
    ).g.coords == (1, 0, 0)
    l = elem(pm, 2, 3)
    assert project_cdh_answer(lift_instance(DHInstance(l, l, l, l)).l) == l


def test_lift_preserves_ddh_answers():
    pm = PrimeModulus(7)
    rng = np.random.default_rng(30)
    for _ in range(300):
        s = int(rng.integers(7))
        o = IdentityOracle.level1(pm, s)
        g = GroupElement((int(rng.integers(7)), int(rng.integers(7))), pm)
        if label_of(s, g) == 0:
            continue
        inst = DHInstance(
            g,
            GroupElement((int(rng.integers(7)), int(rng.integers(7))), pm),
            GroupElement((int(rng.integers(7)), int(rng.integers(7))), pm),
            GroupElement((int(rng.integers(7)), int(rng.integers(7))), pm),
        )
        base = ddh_decide_level1(o, inst, check_generator=False)
        lifted_oracle = lift_oracle(o)
        lifted = lift_instance(inst)
        n2 = lifted_oracle.reveal_hidden(ESCROW)
        assert n2.coords == (1, s, 0)
        ref = (
            1
            if coset_label(n2, lifted.g).value * coset_label(n2, lifted.l).value % 7
            == coset_label(n2, lifted.h).value * coset_label(n2, lifted.k).value % 7
            else 0
        )
        assert base == ref
        assert ddh_decide_by_search(lifted_oracle, lifted) == ref


def test_lift_preserves_ddh_exhaustively_p3():
    # every secret, every quadruple with g a generator, both routes
    p = 3
    pm = PrimeModulus(p)
    elems = [GroupElement((a, b), pm) for a in range(p) for b in range(p)]
    for s in range(p):
        oracle = IdentityOracle.level1(pm, s)
        lifted_oracle = lift_oracle(oracle)
        n2 = lifted_oracle.reveal_hidden(ESCROW)
        for g in elems:
            if label_of(s, g) == 0:
                continue
            for h in elems:
                for k in elems:
                    for l in elems:
                        inst = DHInstance(g, h, k, l)
                        base = ddh_decide_level1(oracle, inst, check_generator=False)
                        lifted = lift_instance(inst)
                        ref = (
                            1
                            if coset_label(n2, lifted.g).value
                            * coset_label(n2, lifted.l).value
                            % p
                            == coset_label(n2, lifted.h).value
                            * coset_label(n2, lifted.k).value
                            % p
                            else 0
                        )
                        assert base == ref


def test_query_counts_are_reproducible():
    pm = PrimeModulus(101)
    counts = []
    for _ in range(2):
        o = IdentityOracle.level1(pm, 61)
        brute_force_secret(o, np.random.default_rng(44))
        counts.append(o.queries)
    assert counts[0] == counts[1]


def test_lifted_oracle_query_mechanics():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3)
    lo = lift_oracle(o)
    assert lo.level == 2
    assert lo.query_coords((4, 1, 5)) == 1  # last coordinate is ignored
    assert o.queries == 1 and lo.queries == 1
    with pytest.raises(ValueError):
        lo.query_coords((4, 1))


# ---------------------------------------------------------------- embedding


def embed_fixture(pm, q, g1, a, b, c):
    return embed_generic_group(pm, q, (g1, pow(g1, a, q), pow(g1, b, q), pow(g1, c, q)))


def test_embed_yes_fixture():
    # exponents (3, 4, 12): 3*4 = 12 = 1 mod 11 and g^12 = g^1
    pm = PrimeModulus(11)
    oracle, inst = embed_fixture(pm, 23, 2, 3, 4, 12)
    assert oracle.generators == (2, 8, 16, 2)
    assert ddh_decide_by_search(oracle, inst) == 1


def test_embed_trivial_exponents():
    pm = PrimeModulus(11)
    oracle, inst = embed_fixture(pm, 23, 2, 0, 0, 0)
    assert oracle.generators[1:] == (1, 1, 1)
    assert ddh_decide_by_search(oracle, inst) == 1


def test_embed_no_instances():
    pm = PrimeModulus(11)
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, b = int(rng.integers(11)), int(rng.integers(11))
        c = (a * b + 1 + int(rng.integers(10))) % 11
        if c == a * b % 11:
            continue
        oracle, inst = embed_fixture(pm, 23, 2, a, b, c)
        assert ddh_decide_by_search(oracle, inst) == 0


def test_embed_validation():
    pm = PrimeModulus(11)
    with pytest.raises(ValueError):
        EmbeddedOracle(pm, 24, (2, 2, 2, 2))  # q not prime
    with pytest.raises(ValueError):
        EmbeddedOracle(PrimeModulus(7), 23, (2, 2, 2, 2))  # 7 does not divide 22
    with pytest.raises(ValueError):
        EmbeddedOracle(pm, 23, (5, 2, 2, 2))  # 5 has order 22, not 11
    with pytest.raises(ValueError):
        EmbeddedOracle(pm, 23, (1, 2, 2, 2))  # unit cannot generate


def test_embedded_generators_are_exact_ints():
    # q = 2^61 - 1 has an order-3 subgroup; numpy ints are taken as ints,
    # so the 61-bit products cannot wrap, and floats are refused.
    q = (1 << 61) - 1
    g1 = pow(5, (q - 1) // 3, q)
    gens = (g1, pow(g1, 2, q), pow(g1, 2, q), g1)  # a = b = 2, c = 4 = 1 mod 3
    oracle, inst = embed_generic_group(PrimeModulus(3), np.int64(q), np.array(gens, dtype=np.int64))
    assert oracle.generators == gens
    assert all(type(g) is int for g in oracle.generators) and type(oracle.q) is int
    assert oracle.reveal_hidden(ESCROW).coords == (1, 2, 2, 1)
    assert ddh_decide_by_search(oracle, inst) == 1
    with pytest.raises(TypeError):
        EmbeddedOracle(PrimeModulus(11), 23, (2.0, 8, 16, 2))


def square_and_multiply(g, e, q):
    """The counted exponentiation the oracle replaced with ``pow``, kept as
    its reference: g**e mod q and the modular multiplications spent."""
    power, mults = 1, 0
    while e:
        if e & 1:
            power = power * g % q
            mults += 1
        e >>= 1
        if e:
            g = g * g % q
            mults += 1
    return power, mults


class LoopEmbeddedOracle(EmbeddedOracle):
    """The embedded oracle with its former square-and-multiply loop."""

    __slots__ = ()

    def _answer(self, coords):
        p = self.modulus.p
        acc = 1
        for g, x in zip(self.generators, coords):
            power, mults = square_and_multiply(g, x % p, self.q)
            acc = acc * power % self.q
            self.mults += mults + 1
        return 1 if acc == 1 else 0


def test_embedded_mults_match_the_loop_for_every_small_exponent():
    # p = 4127 divides q - 1 = 6 * 4127, so every exponent below 4096 occurs.
    pm, q = PrimeModulus(4127), 24763
    g1 = pow(2, (q - 1) // 4127, q)
    gens = (g1, pow(g1, 5, q), pow(g1, 7, q), pow(g1, 35, q))
    fast, loop = EmbeddedOracle(pm, q, gens), LoopEmbeddedOracle(pm, q, gens)
    for e in range(4096):
        power, mults = square_and_multiply(g1, e, q)
        assert power == pow(g1, e, q)
        assert ((e.bit_length() + e.bit_count()) or 1) == mults + 1
        before = (fast.mults, loop.mults)
        coords = (e, e, 0, -e)
        assert fast.query_coords(coords) == loop.query_coords(coords)
        assert fast.mults - before[0] == loop.mults - before[1]
    assert fast.mults == loop.mults and fast.queries == loop.queries == 4096


def test_embedded_search_counts_match_the_loop():
    pm, q = PrimeModulus(101), 607  # 606 = 6 * 101
    g1 = pow(2, 6, q)
    for a, b, c, answer in ((17, 42, 17 * 42 % 101, 1), (17, 42, 3, 0), (0, 88, 0, 1)):
        gens = (g1, pow(g1, a, q), pow(g1, b, q), pow(g1, c, q))
        oracle, inst = embed_generic_group(pm, q, gens)
        reference = LoopEmbeddedOracle(pm, q, gens)
        assert ddh_decide_by_search(oracle, inst) == ddh_decide_by_search(reference, inst) == answer
        assert oracle.queries == reference.queries > 0
        assert oracle.mults == reference.mults > 0


def test_embedded_oracle_hidden_vector():
    pm = PrimeModulus(11)
    oracle, _ = embed_fixture(pm, 23, 2, 3, 4, 1)
    assert oracle.reveal_hidden(ESCROW).coords == (1, 3, 4, 1)
    before = oracle.mults
    oracle.query_coords((1, 0, 0, 0))
    assert oracle.mults > before  # exponentiation cost is accounted


# ------------------------------------------------- embedded line-scan kernel


def _subgroup_generator(p, q):
    return next(g for g in (pow(w, (q - 1) // p, q) for w in range(2, q)) if g != 1)


class _Proxy:
    """Duck-typed pass-through oracle; scans through it ask query by query."""

    def __init__(self, inner):
        self.inner = inner
        self.modulus = inner.modulus
        self.level = inner.level

    @property
    def queries(self):
        return self.inner.queries

    def query_coords(self, coords):
        return self.inner.query_coords(coords)


@st.composite
def _embedded_scans(draw):
    p, q = draw(st.sampled_from(((3, 7), (5, 11), (11, 23), (13, 53), (101, 607))))
    g1 = _subgroup_generator(p, q)
    gens = (g1,) + tuple(pow(g1, draw(st.integers(0, p - 1)), q) for _ in range(3))
    setting = draw(st.sampled_from(("leaf", "permuted", "lifted", "proxied")))
    perm = tuple(draw(st.permutations(range(4))))
    width = 5 if setting == "lifted" else 4
    wide = st.integers(-3 * p, 3 * p)  # negative and unreduced coordinates
    base = tuple(draw(st.lists(wide, min_size=width, max_size=width)))
    step = tuple(draw(st.lists(wide, min_size=width, max_size=width)))
    if draw(st.booleans()):  # a step that is zero mod p: every answer is alike
        step = tuple(p * (s % 5 - 2) for s in step)
    kind = draw(st.sampled_from(("range", "permutation", "tuple", "empty")))
    if kind == "range":
        start = draw(st.integers(-p, p))
        values = range(start, start + draw(st.integers(0, 2 * p)))
    elif kind == "permutation":
        values = np.random.default_rng(draw(st.integers(0, 2**32))).permutation(p)
    elif kind == "tuple":
        values = tuple(draw(st.lists(wide, max_size=2 * p)))
    else:
        values = ()
    budget = draw(st.none() | st.integers(0, len(values) + 2))
    spent = 0 if budget is None else draw(st.integers(0, budget))
    return p, q, gens, setting, perm, base, step, values, budget, spent


@settings(max_examples=300, deadline=None)
@given(_embedded_scans())
def test_embedded_scan_kernel_matches_the_loop(case):
    # The one-loop scan of the embedded oracle, directly, under a view and
    # behind a proxy, against the query-by-query scan of the loop oracle:
    # same hit, queries, mults, refusal and leftover candidates.
    p, q, gens, setting, perm, base, step, values, budget, spent = case
    outcomes = []
    for cls in (LoopEmbeddedOracle, EmbeddedOracle):
        leaf = cls(PrimeModulus(p), q, gens)
        leaf._budget = budget  # the embedding takes no budget argument; set the core's
        for _ in range(spent):
            leaf.query_coords((1, 0, 0, 0))
        oracle = {
            "leaf": leaf,
            "permuted": OracleView(leaf, perm, 3),
            "lifted": lift_oracle(leaf),
            "proxied": _Proxy(leaf),
        }[setting]
        rest = iter(values)
        try:
            result = ("returned", scan_line(oracle, base, step, rest))
        except QueryBudgetExceeded as e:
            result = ("refused", str(e))
        outcomes.append((result, leaf.queries, leaf.mults, list(rest)))
    assert outcomes[0] == outcomes[1]


def test_embedded_subclass_that_changes_the_rule_scans_query_by_query():
    pm, q = PrimeModulus(11), 23
    gens = (2, 8, 16, 2)  # exponents (1, 3, 4, 1)

    class _Liar(EmbeddedOracle):
        __slots__ = ()

        def _answer(self, coords):
            return 1

    liar = _Liar(pm, q, gens)
    assert brute_force_hidden_vector(liar).coords == (1, 0, 0, 0)
    assert liar.queries == 3
    loop = LoopEmbeddedOracle(pm, q, gens)
    assert brute_force_hidden_vector(loop).coords == (1, 3, 4, 1)

    class _Logged(EmbeddedOracle):
        __slots__ = ("log",)

        def query_coords(self, coords):
            self.log.append(tuple(coords))
            return super().query_coords(coords)

    logged = _Logged(pm, q, gens)
    logged.log = []
    # Coordinate 1 is found at x = 3: the queries x*e_0 - e_1 for x = 0..3.
    assert scan_line(logged, (0, 10, 0, 0), (1, 0, 0, 0), range(11)) == 3
    assert logged.log == [(x, 10, 0, 0) for x in range(4)]
    assert logged.queries == 4
    for cls in (_Liar, _Logged, LoopEmbeddedOracle):
        assert cls._line_loop is None
    assert EmbeddedOracle._line_loop is not None


class _FixedOrder:
    """An rng stand-in whose permutation is a given ndarray."""

    def __init__(self, order):
        self.order = order

    def permutation(self, n):
        assert n == len(self.order)
        return self.order


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_brute_force_random_order_matches_the_int_map(p):
    # The permutation is scanned through a memoryview; the secret found and
    # the queries spent equal those of the former map(int, ...) candidates.
    pm = PrimeModulus(p)
    for seed in range(4):
        secret = int(np.random.default_rng([p, seed]).integers(p))
        order = np.random.default_rng([seed, p]).permutation(p)
        for rng, again in (
            (np.random.default_rng(seed), np.random.default_rng(seed)),
            (_FixedOrder(order), _FixedOrder(order)),
        ):
            fast, ref = IdentityOracle.level1(pm, secret), IdentityOracle.level1(pm, secret)
            got = brute_force_secret(fast, rng)
            expected = first_on_line(ref, map(int, again.permutation(p)))
            assert got == Residue(expected, pm)
            assert fast.queries == ref.queries
