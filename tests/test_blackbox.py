import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.algorithms import embed_generic_group, lift_oracle
from dhbox.blackbox import (
    Escrow,
    EscrowError,
    GroupElement,
    GroverOracle,
    IdentityOracle,
    MalformedOracleError,
    NormalVector,
    QueryBudgetExceeded,
    RawOracle,
    canonical_element,
    coset_label,
    equal_in_group,
    field_mul,
    grover_from_identity,
    identity_from_grover,
    normalize_oracle,
    random_identity_oracle,
)
from dhbox.modmath import PrimeModulus

ESCROW = Escrow()


def test_element_arithmetic_examples():
    pm = PrimeModulus(5)
    assert (GroupElement((1, 0), pm) + GroupElement((0, 1), pm)).coords == (1, 1)
    h = GroupElement((2, 3), pm)
    assert (h + (-h)).coords == (0, 0)
    pm7 = PrimeModulus(7)
    a = GroupElement((3, 4, 2), pm7)
    b = GroupElement((4, 3, 6), pm7)
    assert (a + b).coords == (0, 0, 1)
    assert (3 * GroupElement((1, 2), pm7)).coords == (3, 6)
    assert (a - a).coords == (0, 0, 0)


def test_coordinates_are_exact_ints():
    # int64 coordinates become Python ints: 5 * (2^61 - 3) would wrap in int64.
    p = 2**61 - 1
    e = GroupElement(np.array([p - 2, p - 9], dtype=np.int64), PrimeModulus(p)) * 5
    assert e.coords == (5 * (p - 2) % p, 5 * (p - 9) % p)
    assert all(type(c) is int for c in e.coords)
    for make in (GroupElement, NormalVector):
        with pytest.raises(TypeError):
            make((1.5, 2), PrimeModulus(7))


def test_element_mismatch_rejected():
    a = GroupElement((1, 0), PrimeModulus(5))
    b = GroupElement((1, 0, 0), PrimeModulus(5))
    c = GroupElement((1, 0), PrimeModulus(7))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a + c


def test_normal_vector_invariants():
    pm = PrimeModulus(7)
    n = NormalVector((1, 3), pm)
    assert n.level == 1 and n.secret == 3
    with pytest.raises(ValueError):
        NormalVector((2, 3), pm)
    with pytest.raises(ValueError):
        NormalVector((0, 1), pm)


def test_id_query_examples():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3)
    assert o.query(GroupElement((4, 1), pm)) == 1
    assert o.query(GroupElement((0, 0), pm)) == 1
    assert o.query(GroupElement((1, 1), pm)) == 0
    assert o.queries == 3


def _identity_case():
    o = IdentityOracle.level1(PrimeModulus(7), 3, budget=2)
    return o, o, 2


def _raw_case():
    o = RawOracle((2, 6, 3), PrimeModulus(7), budget=2)
    return o, o, 2


def _normalized_view_case():
    raw = RawOracle((0, 1, 4), PrimeModulus(7), budget=4)
    _, view = normalize_oracle(raw)  # two unit-vector queries on raw
    return view, raw, 4


def _lifted_view_case():
    base = IdentityOracle.level1(PrimeModulus(7), 3, budget=2)
    return lift_oracle(base), base, 2


def _embedded_case():
    # 2 has order 11 modulo 23; exponents (1, 3, 4, 1)
    o, _ = embed_generic_group(PrimeModulus(11), 23, (2, 8, 16, 2))
    return o, o, None


@pytest.mark.parametrize(
    "make",
    [_identity_case, _raw_case, _normalized_view_case, _lifted_view_case, _embedded_case],
    ids=["IdentityOracle", "RawOracle", "normalize_oracle", "lift_oracle", "EmbeddedOracle"],
)
def test_query_counter_and_budget(make):
    # The one oracle contract: every query is counted once, by the leaf
    # oracle under any view, and refused queries are not counted.
    o, leaf, budget = make()
    pm = o.modulus
    width = o.level + 1
    start = leaf.queries
    o.query_coords((0,) * width)
    o.query(GroupElement((1,) * width, pm))
    assert leaf.queries == start + 2
    assert o.queries == leaf.queries
    for wrong in ((0,) * (width - 1), (0,) * (width + 1)):
        with pytest.raises(ValueError):
            o.query_coords(wrong)
    with pytest.raises(ValueError):
        o.query(GroupElement((0,) * width, PrimeModulus(5)))
    assert o.queries == leaf.queries == start + 2
    if budget is None:
        return
    while leaf.queries < budget:
        o.query_coords((2,) * width)
    with pytest.raises(QueryBudgetExceeded):
        o.query_coords((2,) * width)
    assert o.queries == leaf.queries == budget  # the refused query is not counted


def test_query_dimension_mismatch():
    o = IdentityOracle.level1(PrimeModulus(7), 3)
    with pytest.raises(ValueError):
        o.query_coords((1, 2, 3))
    with pytest.raises(ValueError):
        o.query(GroupElement((1, 1), PrimeModulus(5)))


def test_equal_in_group():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3)
    a = GroupElement((4, 1), pm)
    assert equal_in_group(o, a, a) == 1
    assert equal_in_group(o, GroupElement((4, 1), pm), GroupElement((0, 0), pm)) == 1
    assert equal_in_group(o, GroupElement((1, 0), pm), GroupElement((0, 1), pm)) == 0
    assert o.queries == 3


def test_grover_from_identity_exhaustive():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 5)
    hits = [grover_from_identity(o, x) for x in range(7)]
    assert hits == [1 if x == 5 else 0 for x in range(7)]
    assert o.queries == 7
    with pytest.raises(ValueError):
        grover_from_identity(random_identity_oracle(pm, 2, np.random.default_rng(0)), 1)


def test_identity_from_grover_cases():
    pm = PrimeModulus(7)
    g = GroverOracle(pm, 3)
    assert identity_from_grover(g, GroupElement((0, 0), pm)) == 1
    assert identity_from_grover(g, GroupElement((4, 0), pm)) == 0
    assert g.queries == 0  # both answered without touching the oracle
    assert identity_from_grover(g, GroupElement((4, 1), pm)) == 1
    assert g.queries == 1


def test_mutual_simulation_roundtrip():
    # identity -> point-search -> identity reproduces the oracle on all of
    # Z_p^2, each direction spending at most one query
    pm = PrimeModulus(7)
    for s in range(7):
        o = IdentityOracle.level1(pm, s)
        for h0 in range(7):
            for h1 in range(7):
                h = GroupElement((h0, h1), pm)
                before = o.queries

                class _ViaIdentity:
                    modulus = pm

                    @staticmethod
                    def query(x):
                        return grover_from_identity(o, x)

                got = identity_from_grover(_ViaIdentity, h)
                assert o.queries - before <= 1
                assert got == (1 if (h0 + h1 * s) % 7 == 0 else 0)


def test_coset_label_examples_and_kernel():
    pm = PrimeModulus(7)
    n = NormalVector((1, 3), pm)
    assert coset_label(n, GroupElement((1, 0), pm)).value == 1
    assert coset_label(n, GroupElement((0, 1), pm)).value == 3
    # kernel size p^t and surjectivity, levels 1 and 2
    for p in (3, 5, 7):
        pm = PrimeModulus(p)
        for t in (1, 2):
            n = NormalVector((1,) + tuple(range(2, 2 + t)), pm)
            labels = {}
            kernel = 0
            for coords in itertools.product(range(p), repeat=t + 1):
                v = coset_label(n, GroupElement(coords, pm)).value
                labels[v] = labels.get(v, 0) + 1
                kernel += v == 0
            assert kernel == p**t
            assert set(labels) == set(range(p))


def test_oracle_consistent_with_label():
    for p in (3, 5, 7, 11, 13):
        pm = PrimeModulus(p)
        for t in (1, 2):
            rng = np.random.default_rng(p * 10 + t)
            o = random_identity_oracle(pm, t, rng)
            n = o.reveal_hidden(ESCROW)
            for coords in itertools.product(range(p), repeat=t + 1):
                h = GroupElement(coords, pm)
                assert o.query(h) == (1 if coset_label(n, h).value == 0 else 0)


def test_escrow_gate():
    o = IdentityOracle.level1(PrimeModulus(7), 3)
    with pytest.raises(EscrowError):
        o.reveal_hidden(None)
    with pytest.raises(EscrowError):
        o.reveal_hidden("escrow")
    assert o.reveal_hidden(ESCROW).coords == (1, 3)
    assert o.queries == 0  # escrow access is never counted


def test_field_mul_properties():
    pm = PrimeModulus(7)
    n = NormalVector((1, 3), pm)
    h = canonical_element(pm, 2, 1)
    k = canonical_element(pm, 3, 1)
    prod = field_mul(n, h, k)
    assert coset_label(n, prod).value == 6
    zero = GroupElement((0, 0), pm)
    assert coset_label(n, field_mul(n, h, zero)).value == 0
    # multiplicativity and associativity on random triples
    pm11 = PrimeModulus(11)
    rng = np.random.default_rng(5)
    n11 = NormalVector((1, int(rng.integers(11))), pm11)
    for _ in range(200):
        a, b, c = (
            GroupElement((int(rng.integers(11)), int(rng.integers(11))), pm11)
            for _ in range(3)
        )
        ab = field_mul(n11, a, b)
        assert coset_label(n11, ab).value == (
            coset_label(n11, a).value * coset_label(n11, b).value % 11
        )
        left = field_mul(n11, field_mul(n11, a, b), c)
        right = field_mul(n11, a, field_mul(n11, b, c))
        assert coset_label(n11, left) == coset_label(n11, right)


def test_canonical_element_is_section():
    pm = PrimeModulus(7)
    n = NormalVector((1, 4), pm)
    for x in range(7):
        assert coset_label(n, canonical_element(pm, x, 1)).value == x


def test_linear_form_matches_label():
    pm = PrimeModulus(7)
    n = NormalVector((1, 2, 5), pm)
    rng = np.random.default_rng(9)
    for _ in range(50):
        h = GroupElement(tuple(int(c) for c in rng.integers(0, 7, 3)), pm)
        h0, h1, h2 = h.coords
        assert coset_label(n, h).value == (h0 + h1 * 2 + h2 * 5) % 7


def test_normalize_oracle_examples():
    pm = PrimeModulus(7)
    raw = RawOracle((0, 1, 4), pm)
    perm, view = normalize_oracle(raw)
    assert perm == (1, 0, 2)
    assert raw.queries == 2
    assert view.reveal_hidden(ESCROW).coords == (1, 0, 4)

    raw = RawOracle((0, 0, 5), pm)
    perm, view = normalize_oracle(raw)
    assert perm == (2, 1, 0)
    assert raw.queries == 2  # both unit queries answered 1, elimination after
    assert view.reveal_hidden(ESCROW).coords == (1, 0, 0)

    raw = RawOracle((1, 2, 3), pm)  # already normalized shape
    perm, view = normalize_oracle(raw)
    assert perm == (0, 1, 2)
    assert raw.queries == 1
    assert view.reveal_hidden(ESCROW).coords == (1, 2, 3)


def test_normalized_view_answers_match_raw_hyperplane():
    pm = PrimeModulus(7)
    for raw_normal in ((0, 1, 4), (0, 0, 5), (3, 0, 2), (0, 6, 0)):
        raw = RawOracle(raw_normal, pm)
        _, view = normalize_oracle(raw)
        n = view.reveal_hidden(ESCROW)
        for coords in itertools.product(range(7), repeat=3):
            h = GroupElement(coords, pm)
            assert view.query(h) == (1 if coset_label(n, h).value == 0 else 0)


def test_normalize_rejects_zero_normal_and_detects_malformed():
    pm = PrimeModulus(7)
    with pytest.raises(ValueError):
        RawOracle((0, 0, 0), pm)

    class _AllOnes:
        level = 2
        modulus = pm
        queries = 0

        @staticmethod
        def query_coords(coords):
            return 1

    with pytest.raises(MalformedOracleError):
        normalize_oracle(_AllOnes, verify=True)
    # without verification, elimination trusts the nonzero precondition
    perm, _ = normalize_oracle(_AllOnes)
    assert perm == (2, 1, 0)


def test_grover_oracle_budget():
    g = GroverOracle(PrimeModulus(7), 3, budget=1)
    assert g.query(3) == 1
    with pytest.raises(QueryBudgetExceeded):
        g.query(4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_label_is_additive(p, data):
    pm = PrimeModulus(p)
    n = NormalVector((1, data.draw(st.integers(0, p - 1))), pm)
    a = GroupElement((data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))), pm)
    b = GroupElement((data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))), pm)
    assert coset_label(n, a + b) == coset_label(n, a) + coset_label(n, b)
    assert coset_label(n, -a) == -coset_label(n, a)
