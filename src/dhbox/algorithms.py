"""Upper-bound algorithms and reductions for DLOG, CDH and DDH.

The level-1 structure does all the work: labeling cosets by scalars turns
the quotient group into a copy of F_p, DH-quadruples become roots of a
polynomial of degree at most two in the secret, and recovering the secret
from a DLOG or CDH oracle costs a single oracle call.  Level lifting and
the multiplicative-subgroup embedding connect these groups to higher
levels and to ordinary prime-order groups.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional, Tuple

from .blackbox import (
    Escrow,
    GroupElement,
    NormalVector,
    OracleBase,
    OracleView,
    _check_escrow,
    canonical_element,
    coset_label,
    first_on_line,
    scan_line,
)
from .modmath import PrimeModulus, Residue, _inv_int, _require_same_modulus, _roots_int, is_prime

_MAX_RESAMPLES = 1000


class NotAGeneratorError(ValueError):
    """An element promised to generate the group has label zero."""


class DishonestOracleError(RuntimeError):
    """An oracle's answer is inconsistent with its problem contract."""


def _label_quotient(n: NormalVector, g: GroupElement, *factors: GroupElement) -> int:
    """The product of the factors' coset labels divided by g's label.

    label(h)/label(g) answers DLOG and label(h)*label(k)/label(g) is the
    label of the CDH answer.  A g of label zero generates nothing and
    raises :class:`NotAGeneratorError`.
    """
    p = n.modulus.p
    fg = coset_label(n, g).value
    if fg == 0:
        raise NotAGeneratorError("g has label zero, so it does not generate the group")
    acc = _inv_int(fg, p)
    for f in factors:
        acc = acc * coset_label(n, f).value % p
    return acc


class DHInstance(NamedTuple):
    """A Diffie-Hellman instance (g, h, k) or quadruple (g, h, k, l).

    ``l`` is None for CDH inputs.  Whether g actually generates the group
    depends on the hidden vector and is checked by the consuming
    algorithm, not here.
    """

    g: GroupElement
    h: GroupElement
    k: GroupElement
    l: Optional[GroupElement] = None

    @property
    def modulus(self) -> PrimeModulus:
        return self.g.modulus

    @property
    def level(self) -> int:
        return self.g.level

    def check(self) -> "DHInstance":
        for e in (self.h, self.k, self.l):
            if e is not None:
                self.g._check_compatible(e)
        return self


class _CountedHandle:
    """Solver callable plus a counter of every call, answered or not."""

    __slots__ = ("_fn", "modulus", "calls")

    def __init__(self, fn: Callable[..., object], modulus: PrimeModulus):
        self._fn = fn
        self.modulus = modulus
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self._fn(*args)


class DlogOracle(_CountedHandle):
    """Counted handle around a solver for DLOG instances.

    The callable receives (g, h) and must return an integer d with
    d*g = h in the group.  Honest handles raise NotAGeneratorError on a
    broken promise; the counter counts every call, answered or not.
    """

    __slots__ = ()


class CdhOracle(_CountedHandle):
    """Counted handle around a solver for CDH instances.

    The callable receives (g, h, k) and must return some representative
    of the coset completing them to a DH-quadruple.
    """

    __slots__ = ()


def honest_dlog_oracle(oracle, escrow: Escrow) -> DlogOracle:
    """A truthful DLOG solver built from escrowed knowledge of the oracle.

    Test plumbing: something must play the oracle the reductions assume,
    and it answers through coset labels without spending counted queries.
    """
    n = oracle.reveal_hidden(escrow)

    def solve(g: GroupElement, h: GroupElement) -> int:
        return _label_quotient(n, g, h)

    return DlogOracle(solve, n.modulus)


def honest_cdh_oracle(oracle, escrow: Escrow, rng=None) -> CdhOracle:
    """A truthful CDH solver built from escrowed knowledge of the oracle.

    Returns the canonical representative of the answer coset by default;
    with ``rng`` it returns a random representative, which exercises
    callers that must not rely on any particular encoding.
    """
    n = oracle.reveal_hidden(escrow)
    modulus = n.modulus
    p = modulus.p
    t = n.level

    def solve(g: GroupElement, h: GroupElement, k: GroupElement) -> GroupElement:
        label = _label_quotient(n, g, h, k)
        if rng is None:
            return canonical_element(modulus, label, t)
        tail = tuple(int(c) for c in rng.integers(0, p, size=t))
        head = (label - sum(c * nc for c, nc in zip(tail, n.coords[1:]))) % p
        return GroupElement((head,) + tail, modulus)

    return CdhOracle(solve, modulus)


def dh_polynomial(inst: DHInstance):
    """Coefficients (a2, a1, a0) of the level-1 quadruple polynomial.

    The product of the affine forms of g and l minus that of h and k; the
    quadruple is a DH-quadruple exactly when the secret is a root.
    """
    g0, g1 = inst.g.coords
    h0, h1 = inst.h.coords
    k0, k1 = inst.k.coords
    l0, l1 = inst.l.coords
    p = inst.modulus.p
    a2 = (g1 * l1 - h1 * k1) % p
    a1 = (g0 * l1 + g1 * l0 - h0 * k1 - h1 * k0) % p
    a0 = (g0 * l0 - h0 * k0) % p
    return a2, a1, a0


def ddh_decide_level1(oracle, inst: DHInstance, check_generator: bool = True) -> int:
    """Decide whether a level-1 quadruple is a DH-quadruple.

    Builds the quadruple polynomial in the secret.  A constant polynomial
    decides immediately with zero queries; otherwise its at most two roots
    are candidate secrets and each costs one identity query, so the
    decision spends at most two counted queries.

    ``check_generator`` spends one extra (separately understood) query to
    validate the promise that g generates the group; disable it when the
    promise is already established and exact per-instance counts matter.
    """
    if inst.level != 1:
        raise ValueError(f"level-1 instance required, got level {inst.level}")
    if inst.l is None:
        raise ValueError("DDH needs a full quadruple, l is missing")
    inst.check()
    _require_same_modulus(oracle, inst)
    if check_generator and oracle.query(inst.g) == 1:
        raise NotAGeneratorError("DDH instance with non-generator g")
    a2, a1, a0 = dh_polynomial(inst)
    if a2 == 0 and a1 == 0:
        return 1 if a0 == 0 else 0
    return 0 if first_on_line(oracle, _roots_int(a2, a1, a0, inst.modulus.p)) is None else 1


def secret_from_dlog(dlog: DlogOracle) -> Residue:
    """Recover the hidden secret with a single DLOG call.

    (1, 0) generates the group whatever the secret is, and (0, 1) has
    label equal to the secret, so the discrete logarithm of that pair is
    the secret itself.  No identity queries are spent.
    """
    modulus = dlog.modulus
    g = GroupElement((1, 0), modulus)
    h = GroupElement((0, 1), modulus)
    return Residue(dlog(g, h), modulus)


def secret_from_dlog_random(dlog: DlogOracle, rng) -> Optional[Residue]:
    """Secret recovery from one DLOG call on a random instance.

    Draws (g, h) uniformly, resampling when the handle rejects a
    non-generator g.  With answer d, h - d*g lies on the hidden line, so
    the secret is -(h0 - d*g0) / (h1 - d*g1) unless the divisor vanishes;
    that degenerate draw has probability 1/p and yields None.
    """
    modulus = dlog.modulus
    p = modulus.p
    for _ in range(_MAX_RESAMPLES):
        coords = rng.integers(0, p, size=4)
        g = GroupElement((int(coords[0]), int(coords[1])), modulus)
        h = GroupElement((int(coords[2]), int(coords[3])), modulus)
        try:
            d = dlog(g, h)
        except NotAGeneratorError:
            continue
        den = (h.coords[1] - d * g.coords[1]) % p
        if den == 0:
            return None
        num = -(h.coords[0] - d * g.coords[0])
        return Residue(num * _inv_int(den, p), modulus)
    raise DishonestOracleError(
        f"no generator accepted in {_MAX_RESAMPLES} draws"
    )


def secret_from_cdh(cdh: CdhOracle, oracle) -> Residue:
    """Recover the hidden secret with a single CDH call.

    Asks the oracle to complete g = (1,0), h = (0,1), k = (1,1).  For the
    answer l, the quadruple polynomial is -x^2 + (l1 - 1)x + l0, so the
    secret solves x^2 + (1 - l1)x - l0 = 0.  Both roots are computed
    exactly and at most two identity queries pick out which root is the
    secret.
    """
    _require_same_modulus(oracle, cdh)
    modulus = cdh.modulus
    p = modulus.p
    g = GroupElement((1, 0), modulus)
    h = GroupElement((0, 1), modulus)
    k = GroupElement((1, 1), modulus)
    l = cdh(g, h, k)
    l0, l1 = l.coords
    s = first_on_line(oracle, _roots_int(1, 1 - l1, -l0, p))
    if s is None:
        raise DishonestOracleError("no root of the CDH answer passes the identity test")
    return Residue(s, modulus)


def secret_from_cdh_random(cdh: CdhOracle, oracle, rng) -> Optional[Residue]:
    """Secret recovery from one CDH call on a random instance.

    Draws (g, h, k) with g screened to be a generator (each screening
    attempt costs one identity query).  The answer l gives the quadruple
    polynomial; when its quadratic coefficient g1*l1 - h1*k1 is nonzero
    the secret is among its at most two roots and the identity oracle
    selects it.  A degenerate (lower-degree) draw yields None; that
    happens with probability at most 2/p.
    """
    modulus = cdh.modulus
    p = modulus.p
    g = None
    for _ in range(_MAX_RESAMPLES):
        cand = GroupElement((int(rng.integers(0, p)), int(rng.integers(0, p))), modulus)
        if oracle.query(cand) == 0:
            g = cand
            break
    if g is None:
        raise DishonestOracleError(
            f"no generator accepted in {_MAX_RESAMPLES} draws"
        )
    coords = rng.integers(0, p, size=4)
    h = GroupElement((int(coords[0]), int(coords[1])), modulus)
    k = GroupElement((int(coords[2]), int(coords[3])), modulus)
    l = cdh(g, h, k)
    inst = DHInstance(g, h, k, l)
    a2, a1, a0 = dh_polynomial(inst)
    if a2 == 0:
        return None
    s = first_on_line(oracle, _roots_int(a2, a1, a0, p))
    return None if s is None else Residue(s, modulus)


def brute_force_secret(oracle, rng=None) -> Residue:
    """Exhaustive search for the secret through point-search queries.

    Sequential order by default; with ``rng`` the candidates are tried in
    a uniformly random order, for an expected (p+1)/2 queries.  The final
    candidate is tested rather than inferred, so the worst case is exactly
    p queries.
    """
    p = oracle.modulus.p
    # The raw leaf answers a range in closed form and scans the buffer of
    # the permutation in numpy; a memoryview of it still yields ints to an
    # oracle that is scanned query by query.
    s = first_on_line(oracle, range(p) if rng is None else memoryview(rng.permutation(p)))
    if s is None:
        raise DishonestOracleError("no candidate passed the identity test")
    return Residue(s, oracle.modulus)


def brute_force_hidden_vector(oracle) -> NormalVector:
    """Recover the full hidden vector coordinate by coordinate.

    Coordinate i is found by one line scan over x = 0, 1, ..., asking
    whether x*e_0 - e_i lies on the hyperplane, which holds exactly at
    x = n_i.  At most p queries per coordinate, so t*p in total at level t.
    """
    p = oracle.modulus.p
    width = oracle.level + 1
    e0 = (1,) + (0,) * (width - 1)
    found = []
    for i in range(1, width):
        minus_ei = tuple(p - 1 if j == i else 0 for j in range(width))
        hit = scan_line(oracle, minus_ei, e0, range(p))
        if hit is None:
            raise DishonestOracleError(f"no candidate for coordinate {i} accepted")
        found.append(hit)
    return NormalVector((1, *found), oracle.modulus)


def dlog_given_secret(secret, g: GroupElement, h: GroupElement) -> Residue:
    """Discrete logarithm once the level-1 secret is known: label(h)/label(g).

    Costs zero oracle queries; the labels are computed from the secret.
    """
    s = secret.value if isinstance(secret, Residue) else secret
    return Residue(_label_quotient(NormalVector.level1(g.modulus, s), g, h), g.modulus)


def cdh_given_secret(secret, inst: DHInstance) -> GroupElement:
    """CDH answer once the level-1 secret is known.

    Returns the canonical representative of label(h)*label(k)/label(g).
    """
    s = secret.value if isinstance(secret, Residue) else secret
    modulus = inst.modulus
    n = NormalVector.level1(modulus, s)
    return canonical_element(modulus, _label_quotient(n, inst.g, inst.h, inst.k), 1)


def lift_element(h: GroupElement) -> GroupElement:
    return GroupElement(h.coords + (0,), h.modulus)


def lift_instance(inst: DHInstance) -> DHInstance:
    """Append a zero coordinate to every element: a level-(t+1) instance.

    DH-quadruple status is preserved in both directions when the oracle is
    lifted the same way (the new coordinate never contributes to labels).
    """
    return DHInstance(
        lift_element(inst.g),
        lift_element(inst.h),
        lift_element(inst.k),
        None if inst.l is None else lift_element(inst.l),
    )


def project_cdh_answer(l_star: GroupElement) -> GroupElement:
    """Drop the last coordinate of a lifted CDH answer."""
    if l_star.level < 2:
        raise ValueError("projection needs a level >= 2 element")
    return GroupElement(l_star.coords[:-1], l_star.modulus)


def lift_oracle(oracle) -> OracleView:
    """The identity oracle one level up, simulated by ``oracle``.

    The lifted hidden vector is the base vector with a zero appended, so
    the view drops the last query coordinate and asks ``oracle``, which
    keeps the only counter.
    """
    return OracleView(oracle, range(oracle.level + 1), oracle.level + 1)


def _pow_mults(e: int) -> int:
    """The modular multiplications square-and-multiply spends on g**e, plus
    one for the product: one squaring per bit after the leading one and
    one multiplication per set bit, or 1 when e = 0."""
    return (e.bit_length() + e.bit_count()) or 1


class EmbeddedOracle(OracleBase):
    """Identity oracle over Z_p^4 built from a prime-order subgroup mod q.

    Four subgroup elements (the DDH input) become the exponent maps
    x -> g_i^x; the oracle answers whether the product of the four mapped
    coordinates is the unit.  Writing g_i = g_1^(a_i), that product is
    g_1 raised to the scalar product of the query with (1, a_2, a_3, a_4),
    so this is an identity black-box group whose hidden vector encodes
    the exponents.  Each coordinate x is mapped with ``pow`` and charged
    in ``mults`` what square-and-multiply spends on e = x mod p
    (:func:`_pow_mults`), so a query costs O(log p) counted modular
    multiplications plus one comparison with the unit.

    A line scan is answered in one loop.  Every g_i has order p, so the
    product for the query base + x*step is H * R^(x mod p), with
    H = prod g_i^(b_i mod p) and R = prod g_i^(s_i mod p): one power per
    candidate.  ``mults`` is charged per candidate what the query would
    charge, the coordinates that do not move with x summed once per scan.
    """

    __slots__ = ("q", "generators", "mults")

    def __init__(self, modulus: PrimeModulus, q: int, generators: Tuple[int, int, int, int]):
        p = modulus.p
        q = operator.index(q)
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        if (q - 1) % p != 0:
            raise ValueError(f"{p} does not divide {q} - 1")
        gens = tuple([operator.index(g) % q for g in generators])
        if len(gens) != 4:
            raise ValueError("exactly four subgroup elements required")
        for g in gens:
            if g == 0 or pow(g, p, q) != 1:
                raise ValueError(f"{g} does not lie in the order-{p} subgroup mod {q}")
        if gens[0] == 1:
            raise ValueError("the first element must generate the subgroup")
        super().__init__(modulus, 3)
        self.q = q
        self.generators = gens
        self.mults = 0

    def _answer(self, coords) -> int:
        p = self.modulus.p
        q = self.q
        acc = 1
        for g, x in zip(self.generators, coords):
            e = operator.index(x) % p
            acc = acc * pow(g, e, q) % q
            self.mults += _pow_mults(e)
        return 1 if acc == 1 else 0

    def _line_loop(self, base, step, numbered) -> Optional[int]:
        p = self.modulus.p
        q = self.q
        head = ratio = 1
        fixed = 0
        moving = []
        for g, b, s in zip(self.generators, map(operator.index, base), map(operator.index, step)):
            b %= p
            s %= p
            head = head * pow(g, b, q) % q
            if s:
                ratio = ratio * pow(g, s, q) % q
                moving.append((b, s))
            else:
                fixed += _pow_mults(b)
        # H * R^e = 1 exactly when R^e is the inverse of H.
        target = pow(head, -1, q)
        for x, _ in numbered:
            e = operator.index(x) % p
            mults = fixed
            for b, s in moving:
                mults += _pow_mults((b + e * s) % p)
            self.mults += mults
            if pow(ratio, e, q) == target:
                return x
        return None

    def reveal_normal(self, escrow: Escrow) -> Tuple[int, ...]:
        """(1, a_2, a_3, a_4): the exponents, by direct scan (test only)."""
        _check_escrow(escrow)
        g1 = self.generators[0]
        p = self.modulus.p
        table = {}
        acc = 1
        for e in range(p):
            table[acc] = e
            acc = acc * g1 % self.q
        return (1,) + tuple(table[g] for g in self.generators[1:])


def embed_generic_group(modulus: PrimeModulus, q: int, generators: Tuple[int, int, int, int]):
    """Embed a DDH input from a multiplicative prime-order subgroup.

    Returns the constructed oracle over Z_p^4 together with the
    unit-vector instance, whose DH-quadruple status in the constructed
    group equals the DDH status of the four subgroup elements.
    """
    oracle = EmbeddedOracle(modulus, q, generators)
    units = []
    for i in range(4):
        c = [0, 0, 0, 0]
        c[i] = 1
        units.append(GroupElement(tuple(c), modulus))
    inst = DHInstance(units[0], units[1], units[2], units[3])
    return oracle, inst


def ddh_decide_by_search(oracle, inst: DHInstance) -> int:
    """Decide DDH at any level by exhaustive recovery of the hidden vector.

    Costs at most t*p queries; the generic upper bound that works where
    no polynomial decision is available.
    """
    if inst.l is None:
        raise ValueError("DDH needs a full quadruple, l is missing")
    inst.check()
    _require_same_modulus(oracle, inst)
    n = brute_force_hidden_vector(oracle)
    return 1 if _label_quotient(n, inst.g, inst.h, inst.k) == coset_label(n, inst.l).value else 0
