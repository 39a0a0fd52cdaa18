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
from math import isqrt
from typing import Callable, NamedTuple, Optional, Tuple

from .blackbox import (
    Escrow,
    GroupElement,
    NormalVector,
    OracleBase,
    OracleView,
    _check_escrow,
    _check_width,
    _index_length,
    canonical_element,
    coset_label,
    first_on_line,
    grover_from_identity,
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

    ``l`` is None for CDH inputs; :meth:`check` is the one rule for an
    instance against an oracle.  Whether g generates the group depends on
    the hidden vector and is checked by the consuming algorithm.
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

    def check(self, oracle) -> "DHInstance":
        """Refuse, before the first query or call, an element that is not
        a query of ``oracle``: no ``GroupElement`` (nothing with a modulus
        and coordinates, such as a tuple, or None anywhere but a missing
        l), or one of another modulus or width (level + 1)."""
        p, width = oracle.modulus.p, oracle.level + 1
        try:
            for e in self if self.l is not None else self[:3]:
                if e.modulus.p != p or len(e.coords) != width:
                    _require_same_modulus(oracle, e)
                    _check_width(oracle, len(e.coords))
        except AttributeError:
            raise ValueError(f"{e!r} is not a GroupElement") from None
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
    are candidate secrets, asked in increasing order as point questions
    (:func:`grover_from_identity`, one identity query each) up to the
    first accepted one, so the decision spends at most two counted queries.

    ``check_generator`` spends one extra (separately understood) query to
    validate the promise that g generates the group; disable it when the
    promise is already established and exact per-instance counts matter.
    """
    if getattr(inst.g, "level", 1) != 1:  # a g that is no element fails the check
        raise ValueError(f"level-1 instance required, got level {inst.level}")
    if inst.l is None:
        raise ValueError("DDH needs a full quadruple, l is missing")
    inst.check(oracle)
    if check_generator and oracle.query(inst.g) == 1:
        raise NotAGeneratorError("DDH instance with non-generator g")
    a2, a1, a0 = dh_polynomial(inst)
    if a2 == 0 and a1 == 0:
        return 1 if a0 == 0 else 0
    return int(any(grover_from_identity(oracle, r) for r in _roots_int(a2, a1, a0, inst.modulus.p)))


def _dlog_rule(dlog: DlogOracle, g: GroupElement, h: GroupElement) -> Optional[Residue]:
    """The secret from one DLOG call on (g, h), or None.

    With answer d, taken through ``operator.index`` so that a fixed-width
    integer cannot wrap, h - d*g lies on the hidden line, so the secret
    is -(h0 - d*g0) / (h1 - d*g1) unless the divisor vanishes.  An
    answer that is no integer raises :class:`DishonestOracleError`.
    """
    p = dlog.modulus.p
    answer = dlog(g, h)
    try:
        d = operator.index(answer)
    except TypeError as e:
        raise DishonestOracleError(f"the DLOG answer {answer!r} is not an integer") from e
    (g0, g1), (h0, h1) = g.coords, h.coords
    den = (h1 - d * g1) % p
    if den == 0:
        return None
    return Residue(-(h0 - d * g0) * _inv_int(den, p), dlog.modulus)


def secret_from_dlog(dlog: DlogOracle) -> Residue:
    """Recover the hidden secret with a single DLOG call.

    The DLOG rule on g = (1, 0), which generates the group whatever the
    secret is, and h = (0, 1): the divisor is 1, so the secret is the
    answer itself, reduced mod p.  No identity queries are spent.
    """
    modulus = dlog.modulus
    return _dlog_rule(dlog, GroupElement((1, 0), modulus), GroupElement((0, 1), modulus))


def secret_from_dlog_random(dlog: DlogOracle, rng) -> Optional[Residue]:
    """Secret recovery from one DLOG call on a random instance.

    Draws (g, h) uniformly, resampling when the handle rejects a
    non-generator g, and applies the DLOG rule; its degenerate draw,
    a vanishing divisor, has probability 1/p and yields None.
    """
    modulus = dlog.modulus
    p = modulus.p
    for _ in range(_MAX_RESAMPLES):
        coords = rng.integers(0, p, size=4)
        g = GroupElement((int(coords[0]), int(coords[1])), modulus)
        h = GroupElement((int(coords[2]), int(coords[3])), modulus)
        try:
            return _dlog_rule(dlog, g, h)
        except NotAGeneratorError:
            continue
    raise DishonestOracleError(
        f"no generator accepted in {_MAX_RESAMPLES} draws"
    )


def _cdh_rule(cdh: CdhOracle, oracle, g: GroupElement, h: GroupElement, k: GroupElement) -> Optional[Residue]:
    """The secret from one CDH call on (g, h, k), or None.

    An answer l that is no element of the oracle's group (None, or one
    that fails ``DHInstance.check``) raises :class:`DishonestOracleError`
    before any query.  Otherwise the secret is a root of the quadruple
    polynomial of (g, h, k, l) when its quadratic coefficient is nonzero,
    and at most two point questions (:func:`grover_from_identity`, one
    identity query each, in increasing order up to the first accepted
    root) pick it out; if none passes, the answer was wrong and raises
    :class:`DishonestOracleError`.  A vanishing quadratic coefficient is
    a degenerate draw and yields None.
    """
    modulus = cdh.modulus
    l = cdh(g, h, k)
    quadruple = DHInstance(g, h, k, l)
    try:
        if l is None:  # DHInstance reads a missing l as a CDH input
            raise ValueError("None is not a GroupElement")
        quadruple.check(oracle)
    except ValueError as e:
        raise DishonestOracleError(f"the CDH answer is not an element of the group: {e}") from e
    a2, a1, a0 = dh_polynomial(quadruple)
    if a2 == 0:
        return None
    s = next((r for r in _roots_int(a2, a1, a0, modulus.p) if grover_from_identity(oracle, r)), None)
    if s is None:
        raise DishonestOracleError("no root of the CDH answer passes the identity test")
    return Residue(s, modulus)


def secret_from_cdh(cdh: CdhOracle, oracle) -> Residue:
    """Recover the hidden secret with a single CDH call.

    The CDH rule on g = (1,0), h = (0,1), k = (1,1); an oracle they are
    not queries of is refused before the call.  For the answer l the
    quadruple polynomial is -x^2 + (l1 - 1)x + l0, never degenerate, so
    at most two identity queries pick out which of its roots is the
    secret.
    """
    modulus = cdh.modulus
    g = GroupElement((1, 0), modulus)
    h = GroupElement((0, 1), modulus)
    k = GroupElement((1, 1), modulus)
    DHInstance(g, h, k).check(oracle)
    return _cdh_rule(cdh, oracle, g, h, k)


def secret_from_cdh_random(cdh: CdhOracle, oracle, rng) -> Optional[Residue]:
    """Secret recovery from one CDH call on a random instance.

    Draws (g, h, k) with g screened to be a generator (each screening
    attempt costs one identity query) and applies the CDH rule.  Its
    degenerate draw, a vanishing quadratic coefficient g1*l1 - h1*k1,
    happens with probability at most 2/p and yields None.
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
    return _cdh_rule(cdh, oracle, g, h, k)


def brute_force_secret(oracle, rng=None) -> Residue:
    """Exhaustive search for the secret through point-search queries.

    Sequential order by default; with ``rng`` the candidates are tried in
    a uniformly random order, for an expected (p+1)/2 queries.  The final
    candidate is tested rather than inferred, so the worst case is exactly
    p queries.
    """
    p = oracle.modulus.p
    # The raw leaf answers a range in closed form and the permutation, an
    # integer array, by its own remainder; an oracle scanned query by
    # query takes each of its values as an int.
    s = first_on_line(oracle, range(p) if rng is None else rng.permutation(p))
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


def _given_normal(secret, g: GroupElement) -> NormalVector:
    """The level-1 normal of a known secret, an int or a Residue; a
    Residue of another modulus than g's is refused."""
    if isinstance(secret, Residue):
        _require_same_modulus(secret, g)
        secret = secret.value
    return NormalVector.level1(g.modulus, secret)


def dlog_given_secret(secret, g: GroupElement, h: GroupElement) -> Residue:
    """Discrete logarithm once the level-1 secret is known: label(h)/label(g).

    Costs zero oracle queries; the labels are computed from the secret.
    """
    return Residue(_label_quotient(_given_normal(secret, g), g, h), g.modulus)


def cdh_given_secret(secret, inst: DHInstance) -> GroupElement:
    """CDH answer once the level-1 secret is known.

    Returns the canonical representative of label(h)*label(k)/label(g).
    """
    n = _given_normal(secret, inst.g)
    return canonical_element(inst.modulus, _label_quotient(n, inst.g, inst.h, inst.k), 1)


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


def _mults_below(n: int) -> int:
    """The sum of :func:`_pow_mults` over 0 <= e < n, in O(log n).

    e = 0 costs 1.  Bit lengths: e has more than j bits exactly when
    e >= 2^j, which holds for n - 2^j of the e < n when 2^j < n, so they
    sum to L*n - (2^L - 1) for L = (n - 1).bit_length().  Bit counts:
    for each set bit j of n, the 2^j numbers below n that share n's bits
    above j and have 0 at j carry those ``ones`` bits and j*2^(j-1) bits
    below j.
    """
    if n <= 0:
        return 0
    length = (n - 1).bit_length()
    total = 2 + length * n - (1 << length)
    ones = 0
    for j in range(n.bit_length() - 1, -1, -1):
        if n >> j & 1:
            total += (ones << j) + (j << j >> 1)
            ones += 1
    return total


def _mults_of_progression(u: int, d: int, k: int, p: int) -> int:
    """The sum of :func:`_pow_mults` over the k exponents (u + i*d) mod p.

    For d != 0 each p consecutive exponents take every residue once, so
    full cycles cost ``_mults_below(p)``.  The rest is a window of
    consecutive residues for d = 1, which wraps at most once, and is
    summed one exponent at a time for any other d.
    """
    if d == 0:
        return k * _pow_mults(u)
    cycles, rest = divmod(k, p)
    total = cycles * _mults_below(p) if cycles else 0
    if d == 1:
        end = u + rest
        return total + _mults_below(min(end, p)) - _mults_below(u) + _mults_below(end - p)
    return total + sum([_pow_mults((u + i * d) % p) for i in range(rest)])


# The most baby steps one discrete log keeps, so that its table stays a
# few megabytes; a longer search takes more giant steps instead.
_MAX_BABY_STEPS = 1 << 16


def _first_power(c: int, goal: int, n: int, q: int) -> Optional[int]:
    """The least i with c^i = goal (mod q) if it is below n; else None or
    some i >= n.

    Shanks' baby-step giant-step: with m baby steps c^j (j < m), the
    first giant step goal * c^(-k*m) that meets one gives i = k*m + j.
    m = ceil(sqrt(n)) up to ``_MAX_BABY_STEPS``, so the search takes
    O(sqrt(n)) multiplications up to n = 2^32, and an i < m is met while
    the baby steps are built, for i + 1 multiplications.  c = 1, or n is
    at most the order of c, so that the baby steps are distinct.
    """
    if n <= 0:
        return None
    if c == 1:
        return 0 if goal == 1 else None
    m = min(isqrt(n - 1) + 1, _MAX_BABY_STEPS)
    baby = {}
    power = 1
    for j in range(m):
        if power == goal:  # the giant step k = 0 would meet it here
            return j
        baby[power] = j
        power = power * c % q
    giant = pow(power, -1, q)
    for k in range(0, n, m):
        j = baby.get(goal)
        if j is not None:
            return k + j
        goal = goal * giant % q
    return None


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

    A line scan of a range is one discrete logarithm.  Every g_i has
    order p, so the product for the query base + x*step is
    H * R^(x mod p), with H = prod g_i^(b_i mod p) and
    R = prod g_i^(s_i mod p) (``_line``).  A range is not drawn
    (``_line_index``): its hit is found by baby-step giant-step, and
    ``mults`` is charged per candidate tried what the query would
    charge, the coordinates that do not move with x summed once per scan
    and the moving ones, whose exponents step by a constant mod p, in
    closed form when that constant is 0 or 1.  Every other scan, a tuple
    or an array included, is asked query by query, so ``_answer`` alone
    decides and charges it.
    """

    __slots__ = ("q", "generators", "mults")

    def __init__(self, modulus: PrimeModulus, q: int, generators: Tuple[int, int, int, int],
                 budget: Optional[int] = None):
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
        super().__init__(modulus, 3, budget)
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

    def _line(self, base, step):
        """The scan of base + x*step as (target, R, fixed, moving).

        The query at x is accepted exactly when R^(x mod p) equals
        target = H^-1.  ``fixed`` is the ``mults`` of the coordinates that
        do not move with x; ``moving`` holds (b, s) for each one that
        does, whose exponent at x is (b + x*s) mod p.
        """
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
        return pow(head, -1, q), ratio, fixed, moving

    def _line_index(self, base, step, seq) -> Optional[int]:
        """The first accepted index of a range, and its ``mults``;
        NotImplemented for any other candidates.

        Candidate i of range(start, stop, stride) is accepted exactly when
        (R^stride)^i = target * R^-start, so its hit is the least such
        i < min(n, p), by :func:`_first_power`.
        """
        if not isinstance(seq, range):
            return NotImplemented
        p = self.modulus.p
        q = self.q
        target, ratio, fixed, moving = self._line(base, step)
        n = _index_length(seq)
        goal = target * pow(ratio, -seq.start % p, q) % q
        i = _first_power(pow(ratio, seq.step % p, q), goal, min(n, p), q)
        tried = n if i is None else min(i + 1, n)
        mults = tried * fixed
        for b, s in moving:
            mults += _mults_of_progression((b + seq.start * s) % p, seq.step * s % p, tried, p)
        self.mults += mults
        return i

    def reveal_normal(self, escrow: Escrow) -> Tuple[int, ...]:
        """(1, a_2, a_3, a_4): the exponents, each one discrete log to
        base g_1 by :func:`_first_power` (test only)."""
        _check_escrow(escrow)
        g1, *rest = self.generators
        return (1,) + tuple(_first_power(g1, g, self.modulus.p, self.q) for g in rest)


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

    Costs at most t*p queries (none on a refused quadruple): the generic
    upper bound where no polynomial decision is available.
    """
    if inst.l is None:
        raise ValueError("DDH needs a full quadruple, l is missing")
    inst.check(oracle)
    n = brute_force_hidden_vector(oracle)
    return 1 if _label_quotient(n, inst.g, inst.h, inst.k) == coset_label(n, inst.l).value else 0
