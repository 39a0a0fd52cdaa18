import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.algorithms import brute_force_hidden_vector, embed_generic_group, lift_oracle
from dhbox.blackbox import (
    Escrow,
    EscrowError,
    GroupElement,
    GroverOracle,
    IdentityOracle,
    MalformedOracleError,
    NormalVector,
    PermutedOracle,
    QueryBudgetExceeded,
    RawOracle,
    canonical_element,
    coset_label,
    equal_in_group,
    field_mul,
    first_on_line,
    grover_from_identity,
    identity_from_grover,
    normalize_oracle,
    random_identity_oracle,
    scan_line,
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
    o._budget = 6  # the embedding takes no budget argument; set the core's
    return o, o, 6


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
    while leaf.queries < budget:
        o.query_coords((2,) * width)
    with pytest.raises(QueryBudgetExceeded):
        o.query_coords((2,) * width)
    assert o.queries == leaf.queries == budget  # the refused query is not counted
    # A line scan runs out of the same budget, and stops at the same count.
    o, leaf, budget = make()
    with pytest.raises(QueryBudgetExceeded):
        if o.level == 1:
            first_on_line(o, range(o.modulus.p))
        else:
            brute_force_hidden_vector(o)
    assert o.queries == leaf.queries == budget


def _reference_scan(oracle, base, step, candidates):
    # The plain loop that every line scan must match query for query.
    p = oracle.modulus.p
    for x in candidates:
        if oracle.query_coords(tuple((b + x * s) % p for b, s in zip(base, step))) == 1:
            return x
    return None


def _scan_outcome(scan, oracle, base, step, candidates):
    """Return value or refusal, queries charged, and the candidates left over."""
    it = iter(candidates)
    try:
        result = ("returned", scan(oracle, base, step, it))
    except QueryBudgetExceeded as e:
        result = ("refused", str(e))
    return result, oracle.queries, list(it)


class _Recorder:
    """Duck-typed pass-through oracle that records every query it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.modulus = inner.modulus
        self.level = inner.level
        self.seen = []

    @property
    def queries(self):
        return self.inner.queries

    def query_coords(self, coords):
        self.seen.append(tuple(coords))
        return self.inner.query_coords(coords)


def _orthogonal(vec, normal, p):
    """vec changed in one coordinate so that normal . vec = 0 (mod p)."""
    j = next(i for i, n in enumerate(normal) if n % p)
    rest = sum(v * n for i, (v, n) in enumerate(zip(vec, normal)) if i != j)
    vec = list(vec)
    vec[j] = -rest * pow(normal[j], -1, p) % p
    return tuple(vec)


@st.composite
def _line_scans(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 101)))
    width = draw(st.integers(2, 4))
    coord = st.integers(0, p - 1)
    normal = draw(st.lists(coord, min_size=width, max_size=width).filter(any))
    if draw(st.booleans()):
        normal[0] = 0
        if not any(normal):
            normal[-1] = 1
    view = draw(st.sampled_from(("leaf", "permuted", "lifted")))
    perm = tuple(draw(st.permutations(range(width))))
    line_width = width + 1 if view == "lifted" else width
    wide = st.integers(-3 * p, 3 * p)  # negative and unreduced coordinates
    base = tuple(draw(st.lists(wide, min_size=line_width, max_size=line_width)))
    step = tuple(draw(st.lists(wide, min_size=line_width, max_size=line_width)))
    # The normal the line meets: the view's effective normal.
    effective = {"leaf": normal, "permuted": [normal[i] for i in perm], "lifted": normal + [0]}[view]
    if draw(st.booleans()):  # step parallel to the hyperplane: c1 = 0
        step = _orthogonal(step, effective, p)
        if draw(st.booleans()):  # base on the hyperplane: every candidate accepted
            base = _orthogonal(base, effective, p)
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
    proxied = draw(st.booleans())
    return p, normal, view, perm, base, step, kind, values, budget, spent, proxied


@settings(max_examples=400, deadline=None)
@given(_line_scans())
def test_line_scan_matches_query_loop(case):
    # The fast scan of a raw oracle, directly or under a view, and the
    # query-by-query scan of a duck-typed oracle (a recorder, which also
    # logs what it is asked) against the plain loop.
    p, normal, view, perm, base, step, kind, values, budget, spent, proxied = case
    outcomes = []
    for scan in (_reference_scan, scan_line):
        raw = RawOracle(normal, PrimeModulus(p), budget=budget)
        for _ in range(spent):
            raw.query_coords((0,) * len(normal))
        inner = _Recorder(raw) if proxied else raw
        oracle = {"leaf": inner, "permuted": PermutedOracle(inner, perm), "lifted": lift_oracle(inner)}[view]
        candidates = map(int, values) if kind == "permutation" else values
        outcome = _scan_outcome(scan, oracle, base, step, candidates)
        outcomes.append((outcome, inner.seen if proxied else None))
    assert outcomes[0] == outcomes[1]


def test_line_scan_refuses_at_the_query_loop_point():
    # Budget 3 with one query spent: candidates 0 and 1 are charged, and
    # candidate 2 is drawn and refused, leaving 3 and 4 untouched.
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 5, budget=3)
    o.query_coords((0, 0))
    it = iter(range(5))
    with pytest.raises(QueryBudgetExceeded, match="query budget of 3 exhausted"):
        first_on_line(o, it)
    assert o.queries == 3
    assert list(it) == [3, 4]
    # An empty scan at a spent budget asks nothing, so nothing is refused.
    assert first_on_line(o, ()) is None
    with pytest.raises(ValueError):
        o.scan_line((0, 6, 0), (1, 0, 0), range(7))


def test_scan_believes_a_subclass_answer_rule():
    # A subclass that changes the answer rule is asked query by query, so
    # a scan believes its answers instead of the hidden normal's.
    pm = PrimeModulus(7)

    class _Liar(IdentityOracle):
        __slots__ = ()

        def _answer(self, coords):
            return 1

    liar = _Liar.level1(pm, 3)
    assert first_on_line(liar, range(7)) == 0
    assert liar.queries == 1
    assert brute_force_hidden_vector(RawOracle((1, 2, 3), pm)).coords == (1, 2, 3)

    class _Logged(IdentityOracle):
        __slots__ = ("log",)

        def query_coords(self, coords):
            self.log.append(coords)
            return super().query_coords(coords)

    logged = _Logged.level1(pm, 3)
    logged.log = []
    assert first_on_line(logged, range(7)) == 3
    assert logged.log == [(0, 6), (1, 6), (2, 6), (3, 6)]
    assert logged.queries == 4


def test_empty_scan_asks_nothing_after_the_checks():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3, budget=0)
    assert first_on_line(o, ()) is None
    assert o.scan_line((1, 2), (3, 4), ()) is None
    assert o.queries == 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        o.scan_line((0, 6, 0), (1, 0, 0), ())
    # A quadratic with no root gives first_on_line an empty tuple; the
    # level is still checked first.
    level2 = IdentityOracle(NormalVector((1, 2, 3), pm))
    with pytest.raises(ValueError, match="level-1 oracle required"):
        first_on_line(level2, ())


def test_query_coordinates_are_exact_ints():
    # At p = 2^61 - 1, int64 coordinates times the 61-bit normal would
    # wrap; they are taken as ints, and floats are refused.
    p = 2**61 - 1
    pm = PrimeModulus(p)
    s = p - 10
    leaf = IdentityOracle.level1(pm, s)
    views = {
        "leaf": (leaf, ()),
        "permuted": (PermutedOracle(RawOracle((s, 1), pm), (1, 0)), ()),
        "lifted": (lift_oracle(IdentityOracle.level1(pm, s)), (p - 3,)),
    }
    for name, (oracle, extra) in views.items():
        on = np.array((s, p - 1) + extra, dtype=np.int64)
        off = np.array((s - 1, p - 1) + extra, dtype=np.int64)
        assert oracle.query_coords(on) == 1, name
        assert oracle.query_coords(tuple(off)) == 0, name
        base = np.array((0, p - 1) + extra, dtype=np.int64)
        step = np.array((1, 0) + (0,) * len(extra), dtype=np.int64)
        assert oracle.scan_line(base, step, [s - 1, s, s + 1]) == s, name
        # Stepping by -1 from (0, -1): the secret is met at x = p - s = 10.
        assert scan_line(_Proxy(oracle), base, (p - 1) * step, [9, 10]) == 10, name
        assert oracle.queries == 6, name
        with pytest.raises(TypeError):
            oracle.query_coords((1.5, 2.0) + extra)
        with pytest.raises(TypeError):
            oracle.scan_line((0.0, -1.0) + extra, (1, 0) + (0,) * len(extra), [s])


class _Proxy:
    """Duck-typed oracle, scanned query by query; it takes ints only."""

    def __init__(self, inner):
        self._inner = inner
        self.modulus = inner.modulus
        self.level = inner.level

    def query_coords(self, coords):
        assert all(type(c) is int for c in coords)
        return self._inner.query_coords(coords)


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
