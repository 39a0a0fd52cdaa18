import array
import contextlib
import functools
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.algorithms import EmbeddedOracle, brute_force_hidden_vector, embed_generic_group, lift_oracle
from dhbox.blackbox import (
    Escrow,
    EscrowError,
    GroupElement,
    GroverOracle,
    IdentityOracle,
    MalformedOracleError,
    NormalVector,
    OracleView,
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
from dhbox.blackbox import _scan_by_queries
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


def _nested_view_case():
    # A view of a view: the lift of normalize_oracle's view.
    raw = RawOracle((0, 1, 4), PrimeModulus(7), budget=4)
    _, view = normalize_oracle(raw)  # two unit-vector queries on raw
    return lift_oracle(view), raw, 4


def _embedded_case():
    # 2 has order 11 modulo 23; exponents (1, 3, 4, 1)
    o = EmbeddedOracle(PrimeModulus(11), 23, (2, 8, 16, 2), budget=6)
    return o, o, 6


@pytest.mark.parametrize(
    "make",
    [_identity_case, _raw_case, _normalized_view_case, _lifted_view_case, _nested_view_case, _embedded_case],
    ids=["IdentityOracle", "RawOracle", "normalize_oracle", "lift_oracle", "lift_of_normalized", "EmbeddedOracle"],
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
    # The normal the line meets: the view's effective normal.  The
    # permuted view puts coordinate k of the raw normal at position perm[k].
    permuted = [0] * width
    for k, i in enumerate(perm):
        permuted[i] = normal[k]
    effective = {"leaf": normal, "permuted": permuted, "lifted": normal + [0]}[view]
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
        oracle = {"leaf": inner, "permuted": OracleView(inner, perm, inner.level), "lifted": lift_oracle(inner)}[view]
        outcome = _scan_outcome(scan, oracle, base, step, values)  # a permutation as numpy ints
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
    # Ranges and integer buffers are asked query by query too.
    assert _Liar._line_index is _Logged._line_index is None
    for candidates in (range(6, -1, -1), np.arange(7)[::-1], memoryview(array.array("b", range(6, -1, -1)))):
        logged.log = []
        assert first_on_line(logged, candidates) == 3
        assert logged.log == [(6, 6), (5, 6), (4, 6), (3, 6)]


def test_empty_scan_asks_nothing_after_the_checks():
    pm = PrimeModulus(7)
    o = IdentityOracle.level1(pm, 3, budget=0)
    assert first_on_line(o, ()) is None
    assert o.scan_line((1, 2), (3, 4), ()) is None
    assert o.queries == 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        o.scan_line((0, 6, 0), (1, 0, 0), ())
    # first_on_line checks the level before it scans, even an empty tuple
    # (which, like every tuple, is scanned query by query).
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
        "permuted": (OracleView(RawOracle((s, 1), pm), (1, 0), 1), ()),
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


def test_int64_candidates_are_exact_at_the_largest_modulus():
    # At p = 2^61 - 1 the raw normal (p - 5, 7) gives c1 = p - 5, so an
    # int64 candidate times c1 would wrap; the residue test forms no such
    # product, and a scan matches the loop over ints without a warning.
    p = 2**61 - 1
    pm = PrimeModulus(p)
    secret = -7 * pow(5, -1, p) % p  # (x, -1) lies on the line (p-5)x + 7y = 0
    values = [secret - 2, secret - 1, secret, secret + 1]
    lines = {
        "leaf": (lambda raw: raw, (p - 5, 7), (0, p - 1), (1, 0)),
        "permuted": (lambda raw: OracleView(raw, (1, 0), 1), (7, p - 5), (0, p - 1), (1, 0)),
        "lifted": (lift_oracle, (p - 5, 7), (0, p - 1, 3), (1, 0, 0)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (view, normal, base, step) in lines.items():
            fast, ref = RawOracle(normal, pm), RawOracle(normal, pm)
            hit = scan_line(view(fast), base, step, np.array(values, dtype=np.int64))
            expected = _reference_scan(view(ref), base, step, values)
            assert (hit, fast.queries) == (expected, ref.queries) == (secret, 3), name
        # A tuple of int64 values is scanned query by query, exactly too.
        for candidates in (np.array(values, dtype=np.int64), tuple(np.array(values, dtype=np.int64))):
            raw = RawOracle((p - 5, 7), pm)
            assert first_on_line(raw, candidates) == secret
            assert raw.queries == 3


def test_query_loop_takes_numpy_candidates_as_ints():
    # Scanned query by query at p = 2^61 - 1, an int64 candidate times the
    # step p - 1 would wrap; it is taken as an int first.
    p = 2**61 - 1

    class _Logged(IdentityOracle):
        __slots__ = ()

        def query_coords(self, coords):
            return super().query_coords(coords)

    oracle = _Logged.level1(PrimeModulus(p), p - 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scan_line(oracle, (0, p - 1), (p - 1, 0), np.array([9, 10, 11], dtype=np.int64)) == 10
    assert oracle.queries == 2


# Integer formats of a buffer, with the values each can hold.
_FORMATS = {f: (int(np.iinfo(f).min), int(np.iinfo(f).max)) for f in "bBhHiIlLqQ"}


@st.composite
def _indexed_scans(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 101, 2**61 - 1)))
    width = draw(st.integers(2, 4))
    coord = st.integers(0, p - 1)
    normal = draw(st.lists(coord, min_size=width, max_size=width).filter(any))
    view = draw(st.sampled_from(("leaf", "permuted", "lifted")))
    perm = tuple(draw(st.permutations(range(width))))
    line_width = width + 1 if view == "lifted" else width
    wide = st.integers(-3 * p, 3 * p)
    base = draw(st.lists(wide, min_size=line_width, max_size=line_width))
    step = draw(st.lists(wide, min_size=line_width, max_size=line_width))
    permuted = [0] * width
    for k, i in enumerate(perm):
        permuted[i] = normal[k]
    effective = {"leaf": normal, "permuted": permuted, "lifted": normal + [0]}[view]
    small = min(p, 40)
    shape = draw(st.sampled_from(("range", "buffer", "tuple")))
    if shape == "range":
        start = draw(st.integers(-3 * p, 3 * p))
        # Steps of residue 0 (p, -2p) give every candidate one residue.
        stride = draw(st.sampled_from((1, -1, 2, -3, p, -2 * p, p + 1)) | st.integers(-3 * p, 3 * p).filter(bool))
        values = range(start, start + stride * draw(st.integers(0, 3 * small)), stride)
    elif shape == "tuple":  # ints that are negative or >= p, and ()
        values = tuple(draw(st.lists(wide | st.integers(), max_size=3 * small)))
    else:
        kind = draw(st.sampled_from(sorted(_FORMATS)))
        lo, hi = _FORMATS[kind]
        # Negative values, values >= p and, for 64-bit unsigned, >= 2^63;
        # a seeded filler in front makes long scans with a late hit or none.
        items = draw(st.lists(st.integers(lo, hi) | st.integers(max(lo, -2 * small), min(hi, 2 * small)), max_size=3 * small))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        filler = rng.integers(lo, hi, size=draw(st.sampled_from((0, 0, 300, 1500))), endpoint=True, dtype=np.dtype(kind))
        items = filler.tolist() + items
        values = draw(st.sampled_from((np.array, lambda v, f: memoryview(array.array(f, v)))))(items, kind)
    parallel = draw(st.booleans())
    if parallel:  # c1 = 0: every candidate is accepted or none is
        step = _orthogonal(step, effective, p)
        if draw(st.booleans()):
            base = _orthogonal(base, effective, p)
    elif len(values) and draw(st.booleans()):
        # Aim the line at one candidate, so that large p meets hits too.
        x = int(values[draw(st.integers(0, len(values) - 1))])
        on = _orthogonal(base, effective, p)
        base = [b - x * s for b, s in zip(on, step)]
    budget = draw(st.sampled_from(("none", "zero", "hit", "short", "any")))
    spent = draw(st.integers(0, 2))
    return p, normal, view, perm, tuple(base), tuple(step), values, budget, spent, draw(st.integers(0, len(values) + 2))


def _build_view(p, normal, view, perm, budget, spent):
    raw = RawOracle(normal, PrimeModulus(p), budget=budget)
    for _ in range(spent):
        raw.query_coords((0,) * len(normal))
    return raw, {"leaf": raw, "permuted": OracleView(raw, perm, raw.level), "lifted": lift_oracle(raw)}[view]


def _as_ints(values):
    return values if isinstance(values, (range, tuple)) else [int(v) for v in values.tolist()]


@settings(max_examples=600, deadline=None)
@given(_indexed_scans())
def test_indexed_scan_matches_the_query_loop(case):
    # A range or an integer array is scanned by index, asking no query, and
    # a tuple or a memoryview query by query; each gives the hit, count,
    # refusal and message of the query loop over the same values as ints,
    # directly and under a view.
    p, normal, view, perm, base, step, values, budget, spent, any_room = case
    _, unbudgeted = _build_view(p, normal, view, perm, None, 0)
    _scan_by_queries(unbudgeted, base, step, _as_ints(values))
    asked = unbudgeted.queries  # the hit's position + 1, or every candidate
    room = {"none": None, "zero": 0, "hit": asked, "short": max(asked - 1, 0), "any": any_room}[budget]
    outcomes = []
    no_query = mock.patch.object(RawOracle, "_answer", side_effect=AssertionError("asked a query"))
    if isinstance(values, (memoryview, tuple)):
        no_query = contextlib.nullcontext()
    for scan, candidates, guard in (
        (_scan_by_queries, _as_ints(values), contextlib.nullcontext()),
        (scan_line, values, no_query),
    ):
        raw, oracle = _build_view(p, normal, view, perm, None if room is None else spent + room, spent)
        try:
            with guard:
                result = ("returned", scan(oracle, base, step, candidates))
        except QueryBudgetExceeded as e:
            result = ("refused", str(e))
        if result[0] == "returned" and result[1] is not None:
            result = ("returned", int(result[1]))
        outcomes.append((result, raw.queries))
    assert outcomes[0] == outcomes[1]


def test_float_candidates_are_refused_alike():
    # A float candidate makes a float query, which is charged and refused
    # with TypeError: by the leaf, under a view and query by query alike.
    # 7.0 lies on the line of the secret 0 mod 7, but is not taken.  A str
    # or None candidate makes no query, and is refused uncharged alike.
    pm = PrimeModulus(7)

    class _Logged(IdentityOracle):
        __slots__ = ()

        def query_coords(self, coords):
            return super().query_coords(coords)

    makers = {
        "leaf": lambda: IdentityOracle.level1(pm, 0),
        "view": lambda: OracleView(RawOracle((0, 1), pm), (1, 0), 1),
        "by queries": lambda: _Logged.level1(pm, 0),
    }
    orders = {
        "tuple": (lambda: (1, 2, 7.0, 0), 3),
        "iterator": (lambda: iter([1, 2, 7.0, 0]), 3),
        "float buffer": (lambda: memoryview(array.array("d", [7.0, 0.0])), 1),
        "float array": (lambda: np.array([1.0, 7.0]), 1),
        "str": (lambda: ("a",), 0),
        "None": (lambda: (1, None, 0), 1),
    }
    for name, make in makers.items():
        for order, (candidates, refused_at) in orders.items():
            oracle = make()
            with pytest.raises(TypeError):
                first_on_line(oracle, candidates())
            assert oracle.queries == refused_at, (name, order)
    # With the step parallel to the line (c1 = 0) every candidate is
    # accepted, or none is, and each one tried is still taken as an integer,
    # also when the step is 0 mod p and the query holds no float.
    for name, make in makers.items():
        for step in ((0, 1), (0, 7)):
            for base, candidates, refused_at in (((0, 0), [2.5, 4], 1), ((1, 0), [4, 2.5], 2)):
                oracle = make()
                with pytest.raises(TypeError):
                    scan_line(oracle, base, step, candidates)
                assert oracle.queries == refused_at, (name, base, step)


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


def test_view_refuses_wrong_width_at_its_own_level():
    # A view checks what it is given against its own level, not the level
    # of the oracle it wraps, and charges nothing for a refusal.
    pm = PrimeModulus(7)
    lifted = lift_oracle(IdentityOracle.level1(pm, 3))
    with pytest.raises(ValueError, match="dimension mismatch: oracle level 2, got 2 coordinates"):
        lifted.query_coords((1, 2))
    with pytest.raises(ValueError, match="oracle level 2, got 2 coordinates"):
        lifted.scan_line((1, 2), (1, 0, 0), range(7))
    assert lifted.queries == 0
    cycled = OracleView(RawOracle((1, 2, 3), pm), (1, 2, 0), 2)
    with pytest.raises(ValueError, match="oracle level 2, got 2 coordinates"):
        cycled.query_coords((1, 2))
    with pytest.raises(ValueError, match="oracle level 2, got 4 coordinates"):
        cycled.scan_line((1, 2, 3), (1, 0, 0, 0), range(7))
    assert cycled.queries == 0
    for pick in ((0, 0, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match="does not map"):
            OracleView(RawOracle((1, 2, 3), pm), pick, 2)


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


def _permuted_view(perm, lifted):
    width = len(perm)
    view = OracleView(RawOracle(range(1, width + 1), PrimeModulus(5)), perm, width - 1)
    return lift_oracle(view) if lifted else view


@pytest.mark.parametrize(
    "make",
    [
        # Every permutation view of widths 3 and 4, and the lift of each.
        *(
            pytest.param(
                functools.partial(_permuted_view, perm, lifted),
                id=f"{'lift-' * lifted}perm{''.join(map(str, perm))}",
            )
            for width in (3, 4)
            for perm in itertools.permutations(range(width))
            for lifted in (False, True)
        ),
        pytest.param(lambda: IdentityOracle(NormalVector((1, 4, 2), PrimeModulus(5))), id="IdentityOracle"),
        pytest.param(lambda: lift_oracle(IdentityOracle.level1(PrimeModulus(7), 3)), id="lift-IdentityOracle"),
        # 2 has order 11 modulo 23; exponents (1, 3, 4, 1)
        pytest.param(lambda: embed_generic_group(PrimeModulus(11), 23, (2, 8, 16, 2))[0], id="EmbeddedOracle"),
    ],
)
def test_revealed_normal_agrees_with_answers(make):
    # The revealed normal is the one the oracle answers by, on every vector.
    oracle = make()
    n = oracle.reveal_hidden(ESCROW)
    p = oracle.modulus.p
    for coords in itertools.product(range(p), repeat=oracle.level + 1):
        on = sum(c * nc for c, nc in zip(coords, n.coords)) % p == 0
        assert oracle.query_coords(coords) == on, coords


def test_reveal_scales_the_raw_normal():
    pm = PrimeModulus(7)
    assert RawOracle((2, 6, 3), pm).reveal_hidden(ESCROW).coords == (1, 3, 5)
    assert RawOracle((2, 6, 3), pm).reveal_normal(ESCROW) == (2, 6, 3)
    with pytest.raises(ValueError, match="leading coordinate 0"):
        RawOracle((0, 1, 4), pm).reveal_hidden(ESCROW)
    with pytest.raises(EscrowError):
        lift_oracle(OracleView(RawOracle((0, 1, 4), pm), (1, 0, 2), 2)).reveal_hidden(None)


@pytest.mark.parametrize("coords", [(1, 3), (1, 0), (1, 6), (1, 2, 5), (1, 0, 0)])
def test_identity_oracle_equals_raw_oracle_on_its_normal(coords):
    # IdentityOracle takes a NormalVector's coordinates as they are, without
    # the raw oracle's second reduction: same answers, scans and reveal.
    pm = PrimeModulus(7)
    nv = NormalVector(coords, pm)
    ident, raw = IdentityOracle(nv), RawOracle(nv.coords, pm)
    width = len(coords)
    for q in itertools.product(range(7), repeat=width):
        assert ident.query_coords(q) == raw.query_coords(q), q
    for base, step in itertools.product(itertools.product(range(0, 7, 3), repeat=width), repeat=2):
        for seq in (range(7), range(6, -1, -2), (4, 2, 0, 9), [5, 3, 1]):
            assert scan_line(ident, base, step, seq) == scan_line(raw, base, step, seq)
    if width == 2:
        for x in range(7):
            assert first_on_line(ident, (x,)) == first_on_line(raw, (x,))
    assert ident.queries == raw.queries
    assert ident.reveal_hidden(ESCROW) == raw.reveal_hidden(ESCROW) == nv
    assert ident.reveal_normal(ESCROW) == raw.reveal_normal(ESCROW) == nv.coords
    with pytest.raises(ValueError, match="budget"):
        IdentityOracle(nv, budget=-1)
    with pytest.raises(TypeError):
        IdentityOracle(nv, budget=2.0)


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


_BUDGETED = {
    "RawOracle": lambda budget: RawOracle((1, 3), PrimeModulus(7), budget=budget),
    "IdentityOracle.level1": lambda budget: IdentityOracle.level1(PrimeModulus(7), 3, budget=budget),
    "GroverOracle": lambda budget: GroverOracle(PrimeModulus(7), 3, budget=budget),
    "EmbeddedOracle": lambda budget: EmbeddedOracle(PrimeModulus(11), 23, (2, 8, 16, 2), budget=budget),
}


@pytest.mark.parametrize("make", _BUDGETED.values(), ids=_BUDGETED.keys())
def test_budgets_are_exact_counts(make):
    # A budget passes through operator.index, as every other entry point
    # does: a fraction is refused at construction, not by whichever scan
    # path meets it first, and a negative budget is refused outright.
    for fraction in (2.5, 0.5):
        with pytest.raises(TypeError):
            make(fraction)
    with pytest.raises(ValueError, match="negative"):
        make(-1)
    make(0)


def test_numpy_budget_is_stored_as_an_int():
    # np.int64(2) becomes the int 2, so a tuple scan and an iterator scan,
    # both query by query, refuse at the same count, and the counter stays
    # an int.
    outcomes = []
    for candidates in ((0, 1, 2, 3), iter((0, 1, 2, 3))):
        o = IdentityOracle.level1(PrimeModulus(7), 3, budget=np.int64(2))
        with pytest.raises(QueryBudgetExceeded) as refusal:
            first_on_line(o, candidates)
        outcomes.append((o.queries, type(o.queries), str(refusal.value)))
    assert outcomes == [(2, int, "query budget of 2 exhausted")] * 2


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_label_is_additive(p, data):
    pm = PrimeModulus(p)
    n = NormalVector((1, data.draw(st.integers(0, p - 1))), pm)
    a = GroupElement((data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))), pm)
    b = GroupElement((data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))), pm)
    assert coset_label(n, a + b) == coset_label(n, a) + coset_label(n, b)
    assert coset_label(n, -a) == -coset_label(n, a)
