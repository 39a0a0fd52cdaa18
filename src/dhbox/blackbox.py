"""Identity black-box groups over the ambient vector space Z_p^(t+1).

The group under study is the quotient of Z_p^(t+1) by a hidden hyperplane.
Group operations are ordinary coordinate arithmetic and cost nothing; the
only access to the hidden structure is the identity oracle, which answers
whether a vector lies on the hyperplane and charges one counted query per
evaluation.

Every identity oracle derives from :class:`OracleBase`, which holds the
dimension check, the only counter and the budget, and leaves each leaf
oracle (:class:`RawOracle`, :class:`IdentityOracle`, the embedded oracle
of ``algorithms``) only its answer rule.  The counter has two entry
points: ``query_coords`` charges one query, and ``scan_line`` charges one
query per candidate x of a line base + x*step, in order, up to the first
accepted one.  A raw oracle answers a whole scan in one loop over plain
ints; every other oracle scans through ``query_coords``, so both entry
points ask and charge the same queries.  Views (:class:`PermutedOracle`,
the lifted oracle) keep no counter: they map coordinates, or a scan's
base and step, and charge through the oracle they wrap.
:class:`GroverOracle` asks a level-1 identity oracle, so point-search
queries use the same counter too.

Everything that would let algorithm code peek at the hidden normal vector
is gated behind an explicit :class:`Escrow` capability.  Reference maps
such as :func:`coset_label` take an explicit normal vector, which honest
algorithm code can only obtain through ``reveal_hidden(escrow)``; keeping
Escrow construction out of algorithm code is what makes every reported
query count meaningful.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable, Optional, Sequence, Tuple

from .modmath import PrimeModulus, Residue


class EscrowError(PermissionError):
    """Raised when hidden state is requested without the escrow token."""


class QueryBudgetExceeded(RuntimeError):
    """Raised when an oracle with a query budget is asked one query too many."""


class MalformedOracleError(ValueError):
    """Raised when a raw oracle behaves as if its normal vector were zero."""


class Escrow:
    """Capability token marking trusted test or reference-oracle code.

    Holding an instance is the declared permission to see hidden vectors.
    Algorithm code must never construct one; tests, honest-oracle builders
    and the Grover simulator do.
    """

    __slots__ = ()


def _check_escrow(escrow) -> None:
    if not isinstance(escrow, Escrow):
        raise EscrowError("hidden state requires an Escrow token")


def _canonical_coords(coords: Sequence[int], p: int) -> Tuple[int, ...]:
    """Coordinates as Python ints reduced mod p, refusing fewer than two.

    ``operator.index`` refuses floats and turns fixed-width integers
    (numpy's int64) into ints, whose arithmetic cannot wrap.
    """
    coords = tuple([c % p for c in map(operator.index, coords)])
    if len(coords) < 2:
        raise ValueError(f"need at least two coordinates, got {len(coords)}")
    return coords


class GroupElement:
    """A coordinate vector in Z_p^(t+1), one representative of a group class.

    Note that ``==`` compares ambient coordinates.  Equality *in the
    black-box group* (equality of cosets) is a different relation and
    needs an oracle query; see :func:`equal_in_group`.
    """

    __slots__ = ("coords", "modulus")

    def __init__(self, coords: Sequence[int], modulus: PrimeModulus):
        self.coords = _canonical_coords(coords, modulus.p)
        self.modulus = modulus

    @classmethod
    def zero(cls, modulus: PrimeModulus, level: int) -> "GroupElement":
        return cls((0,) * (level + 1), modulus)

    @property
    def level(self) -> int:
        return len(self.coords) - 1

    def _check_compatible(self, other) -> None:
        # Also takes a NormalVector, which has the same two fields.
        if self.modulus.p != other.modulus.p:
            raise ValueError(
                f"modulus mismatch: {self.modulus.p} vs {other.modulus.p}"
            )
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check_compatible(other)
        p = self.modulus.p
        return GroupElement(
            tuple((a + b) % p for a, b in zip(self.coords, other.coords)),
            self.modulus,
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check_compatible(other)
        p = self.modulus.p
        return GroupElement(
            tuple((a - b) % p for a, b in zip(self.coords, other.coords)),
            self.modulus,
        )

    def __neg__(self) -> "GroupElement":
        p = self.modulus.p
        return GroupElement(tuple(-a % p for a in self.coords), self.modulus)

    def __mul__(self, scalar: int) -> "GroupElement":
        if not isinstance(scalar, int):
            return NotImplemented
        p = self.modulus.p
        return GroupElement(tuple(a * scalar % p for a in self.coords), self.modulus)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.modulus.p == other.modulus.p
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.coords, self.modulus.p))

    def __repr__(self) -> str:
        return f"GroupElement({self.coords} mod {self.modulus.p})"


class NormalVector:
    """Hyperplane normal normalized to leading coordinate 1.

    Stored as (1, n_1, ..., n_t).  Any nonzero normal vector can be brought
    to this form by a coordinate permutation and a scaling, neither of
    which changes the hyperplane; see :func:`normalize_oracle`.
    """

    __slots__ = ("coords", "modulus")

    def __init__(self, coords: Sequence[int], modulus: PrimeModulus):
        self.coords = _canonical_coords(coords, modulus.p)
        self.modulus = modulus
        if self.coords[0] != 1:
            raise ValueError(
                f"normalized normal vector must start with 1, got {self.coords[0]}"
            )

    @classmethod
    def level1(cls, modulus: PrimeModulus, secret: int) -> "NormalVector":
        return cls((1, secret), modulus)

    @property
    def level(self) -> int:
        return len(self.coords) - 1

    @property
    def secret(self) -> int:
        """The single hidden coordinate of a level-1 vector."""
        if self.level != 1:
            raise ValueError(f"secret is a level-1 notion, this is level {self.level}")
        return self.coords[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NormalVector)
            and self.modulus.p == other.modulus.p
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.coords, self.modulus.p, "normal"))

    def __repr__(self) -> str:
        return f"NormalVector({self.coords} mod {self.modulus.p})"


class OracleBase:
    """The one identity-oracle core: checks, counter and budget.

    One counter and budget, with two entry points.  ``query_coords``
    refuses a query of the wrong length or beyond the budget, counts the
    rest, and returns the leaf's answer rule ``_answer(coords)``.
    ``scan_line`` asks the queries base + x*step for each candidate x in
    order and stops at the first accepted one; by default it loops
    through ``query_coords``, and a leaf may answer the whole scan
    itself as long as it asks, charges and refuses exactly the same
    queries.  Views (permuted, lifted) leave the counter unset; they map
    coordinates, or a scan's base and step, and pass the query or scan
    to the oracle they wrap, which checks and charges it.  A view uses
    only the public surface of what it wraps, so a wrapped oracle may
    itself be a view or a proxy.
    """

    __slots__ = ("modulus", "level", "_queries", "_budget")

    def __init__(self, modulus: PrimeModulus, level: int, budget: Optional[int] = None):
        self.modulus = modulus
        self.level = level
        self._queries = 0
        self._budget = budget

    @property
    def queries(self) -> int:
        return self._queries

    def query(self, h: GroupElement) -> int:
        if h.modulus.p != self.modulus.p:
            raise ValueError(f"modulus mismatch: {h.modulus.p} vs {self.modulus.p}")
        return self.query_coords(h.coords)

    def query_coords(self, coords: Sequence[int]) -> int:
        if len(coords) != self.level + 1:
            raise ValueError(
                f"dimension mismatch: oracle level {self.level}, "
                f"query has {len(coords)} coordinates"
            )
        if self._budget is not None and self._queries >= self._budget:
            raise self._over_budget()
        self._queries += 1
        return self._answer(coords)

    def _over_budget(self) -> QueryBudgetExceeded:
        """The refusal of a query beyond the budget; it is not counted."""
        return QueryBudgetExceeded(f"query budget of {self._budget} exhausted")

    def _answer(self, coords: Sequence[int]) -> int:
        raise NotImplementedError

    def scan_line(self, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
        """The first candidate x whose query base + x*step (mod p) is accepted.

        Each candidate tried costs one query, in the given order, and the
        scan stops at the first accepted one.  Returns None when no
        candidate is accepted.
        """
        return _scan_by_queries(self, base, step, candidates)


class RawOracle(OracleBase):
    """Identity oracle whose normal vector is nonzero but not normalized.

    Answers 1 exactly when the scalar product of the query with the
    hidden normal is zero.  The starting point of
    :func:`normalize_oracle`: the hidden normal may have any nonzero
    coordinate pattern.
    """

    __slots__ = ("_normal",)

    def __init__(self, normal: Sequence[int], modulus: PrimeModulus, budget: Optional[int] = None):
        normal = _canonical_coords(normal, modulus.p)
        if not any(normal):
            raise ValueError("normal vector must be nonzero")
        super().__init__(modulus, len(normal) - 1, budget)
        self._normal = normal

    # False in a subclass that overrides _answer or query_coords (a lying
    # test oracle, a recorder): its scans must ask query by query.
    _own_rule = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._own_rule = (
            cls._answer is RawOracle._answer and cls.query_coords is OracleBase.query_coords
        )

    def _answer(self, coords: Sequence[int]) -> int:
        acc = 0
        for c, nc in zip(map(operator.index, coords), self._normal):
            acc += c * nc
        return 1 if acc % self.modulus.p == 0 else 0

    def scan_line(self, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
        """The scan of :meth:`OracleBase.scan_line` in one loop over plain ints.

        The query base + x*step is accepted exactly when
        c0 + x*c1 = 0 (mod p), with c0 = n.base and c1 = n.step for the
        hidden normal n.  The candidates tried are charged together, and
        a scan that outruns the budget is refused at the same candidate,
        with the same count, as the query-by-query loop.  An empty tuple of
        candidates asks nothing and returns None at once.  A subclass that
        changes the answer rule scans query by query instead.

        Base and step pass through ``operator.index``; the candidates are
        taken as they come, so callers hand in ints (a fixed-width integer
        would wrap in x*c1).
        """
        if not self._own_rule:
            return _scan_by_queries(self, base, step, candidates)
        _check_line(self, base, step)
        if isinstance(candidates, tuple) and not candidates:
            return None
        p = self.modulus.p
        c0 = c1 = 0
        for b, s, nc in zip(map(operator.index, base), map(operator.index, step), self._normal):
            c0 += b * nc
            c1 += s * nc
        c0 %= p
        c1 %= p
        rest = iter(candidates)
        scan = rest if self._budget is None else islice(rest, max(self._budget - self._queries, 0))
        tried = 0
        try:
            for tried, x in enumerate(scan, 1):
                if (c0 + x * c1) % p == 0:
                    return x
        finally:
            self._queries += tried
        # The budget cut the scan short if a candidate is left over.
        for _ in rest:
            raise self._over_budget()
        return None

    def reveal_normal(self, escrow: Escrow) -> Tuple[int, ...]:
        _check_escrow(escrow)
        return self._normal


class IdentityOracle(RawOracle):
    """Membership oracle of the hidden hyperplane, with query accounting.

    A raw oracle whose normal is a :class:`NormalVector`: ``query(h)``
    returns 1 exactly when h lies on the hyperplane of the hidden normal
    vector, and increases the counter by one.  The hidden vector is
    reachable only through ``reveal_hidden`` with an escrow token, never
    by the algorithms being measured.
    """

    __slots__ = ("_hidden",)

    def __init__(self, hidden: NormalVector, budget: Optional[int] = None):
        super().__init__(hidden.coords, hidden.modulus, budget)
        self._hidden = hidden

    @classmethod
    def level1(cls, modulus: PrimeModulus, secret: int, budget: Optional[int] = None) -> "IdentityOracle":
        return cls(NormalVector.level1(modulus, secret), budget)

    def reveal_hidden(self, escrow: Escrow) -> NormalVector:
        """Test-escrow accessor for the hidden vector.  Never counted."""
        _check_escrow(escrow)
        return self._hidden


class PermutedOracle(OracleBase):
    """View of a raw oracle through a coordinate permutation.

    Queries are permuted and delegated, so each query here costs exactly
    one query on the wrapped oracle, which keeps the only counter.  The
    effective hidden vector is the permuted, rescaled raw normal, which is
    normalized by construction.
    """

    __slots__ = ("_raw", "perm")

    def __init__(self, raw: RawOracle, perm: Tuple[int, ...]):
        self._raw = raw
        self.perm = perm
        self.modulus = raw.modulus
        self.level = raw.level

    @property
    def queries(self) -> int:
        return self._raw.queries

    def query_coords(self, coords: Sequence[int]) -> int:
        return self._raw.query_coords(self._permute(coords))

    def scan_line(self, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
        return scan_line(self._raw, self._permute(base), self._permute(step), candidates)

    def _permute(self, coords: Sequence[int]) -> Sequence[int]:
        perm = self.perm
        # A vector of the wrong length goes through unpermuted, and the
        # wrapped oracle, which has the same level, refuses it.
        if len(coords) == len(perm):
            return tuple(map(coords.__getitem__, perm))
        return coords

    def reveal_hidden(self, escrow: Escrow) -> NormalVector:
        _check_escrow(escrow)
        raw = self._raw.reveal_normal(escrow)
        permuted = tuple(raw[i] for i in self.perm)
        scale = pow(permuted[0], -1, self.modulus.p)
        return NormalVector(tuple(c * scale for c in permuted), self.modulus)


class GroverOracle:
    """Point-search oracle over Z_p: answers 1 exactly on the hidden value.

    The point question x is the level-1 identity question (x, -1), so the
    oracle asks a level-1 :class:`IdentityOracle` and uses its counter and
    budget.
    """

    __slots__ = ("_line", "modulus")

    def __init__(self, modulus: PrimeModulus, secret: int, budget: Optional[int] = None):
        self._line = IdentityOracle.level1(modulus, secret, budget)
        self.modulus = modulus

    @property
    def queries(self) -> int:
        return self._line.queries

    def query(self, x: int) -> int:
        return grover_from_identity(self._line, x)

    def reveal_secret(self, escrow: Escrow) -> int:
        return self._line.reveal_hidden(escrow).secret


def equal_in_group(oracle, a: GroupElement, b: GroupElement) -> int:
    """Equality of cosets: one identity query on the difference a - b."""
    return oracle.query(a - b)


def _check_line(oracle, base: Sequence[int], step: Sequence[int]) -> None:
    width = oracle.level + 1
    if len(base) != width or len(step) != width:
        raise ValueError(
            f"dimension mismatch: oracle level {oracle.level}, line has "
            f"{len(base)} and {len(step)} coordinates"
        )


def _scan_by_queries(oracle, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
    """The line scan query by query, through ``oracle.query_coords``."""
    _check_line(oracle, base, step)
    p = oracle.modulus.p
    query_coords = oracle.query_coords
    start = [b % p for b in map(operator.index, base)]
    # Only the coordinates where the step is nonzero move with x.
    moving = [(j, start[j], s % p) for j, s in enumerate(map(operator.index, step)) if s % p]
    for x in candidates:
        coords = start.copy()
        for j, b, s in moving:
            coords[j] = (b + x * s) % p
        if query_coords(tuple(coords)) == 1:
            return x
    return None


def scan_line(oracle, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
    """:meth:`OracleBase.scan_line` on any oracle.

    An oracle that is not an :class:`OracleBase` (a proxy, say) is
    scanned query by query through its ``query_coords``.
    """
    if isinstance(oracle, OracleBase):
        return oracle.scan_line(base, step, candidates)
    return _scan_by_queries(oracle, base, step, candidates)


def first_on_line(oracle, candidates: Iterable[int]) -> Optional[int]:
    """The first candidate secret that a level-1 identity oracle accepts.

    (x, -1) lies on the hidden line exactly when x equals the secret, so
    each candidate tried costs one identity query, in the given order,
    and the search stops at the first accepted one.  Returns None when
    no candidate is accepted.
    """
    if oracle.level != 1:
        raise ValueError(f"level-1 oracle required, got level {oracle.level}")
    return scan_line(oracle, (0, oracle.modulus.p - 1), (1, 0), candidates)


def grover_from_identity(oracle, x: int) -> int:
    """Point-search answer for x through one level-1 identity query."""
    return 0 if first_on_line(oracle, (x,)) is None else 1


def identity_from_grover(grover: GroverOracle, h: GroupElement) -> int:
    """Level-1 identity answer for h through at most one point-search query.

    (h0, h1) lies on the hidden line exactly when -h0 = s*h1, which for
    invertible h1 is the point question at -h0/h1; the two h1 = 0 cases
    need no query at all.
    """
    if h.level != 1:
        raise ValueError(f"level-1 element required, got level {h.level}")
    if h.modulus.p != grover.modulus.p:
        raise ValueError(f"modulus mismatch: {h.modulus.p} vs {grover.modulus.p}")
    h0, h1 = h.coords
    p = grover.modulus.p
    if h1 == 0:
        return 1 if h0 == 0 else 0
    return grover.query(-h0 * pow(h1, -1, p) % p)


def coset_label(n: NormalVector, h: GroupElement) -> Residue:
    """Scalar product of h with the normal vector: the label of h's coset.

    Labels identify cosets and turn the quotient into Z_p: the map is a
    surjective homomorphism whose kernel is the hidden hyperplane.  Only
    reference and test code should hold the normal vector needed here.
    """
    h._check_compatible(n)
    acc = 0
    for c, nc in zip(h.coords, n.coords):
        acc += c * nc
    return Residue(acc, h.modulus)


def canonical_element(modulus: PrimeModulus, label: int, level: int) -> GroupElement:
    """The representative (label, 0, ..., 0) of the coset with that label.

    Its first coordinate meets the normalized normal's leading 1, so its
    label is the given one whatever the hidden vector is.
    """
    return GroupElement((label,) + (0,) * level, modulus)


def field_mul(n: NormalVector, h: GroupElement, k: GroupElement) -> GroupElement:
    """Product of the cosets of h and k in the field carried over from F_p.

    Multiplication is transported through the coset labels; the result is
    returned as the canonical representative of the product coset.
    Requires the normal vector, so it is escrow-side only.
    """
    a = coset_label(n, h).value
    b = coset_label(n, k).value
    return canonical_element(h.modulus, a * b, h.level)


def normalize_oracle(raw, verify: bool = False):
    """Locate the first nonzero coordinate of a raw oracle's normal vector.

    Queries the unit vectors e_0, ..., e_(t-1): the answer on e_i is 1
    exactly when coordinate i of the normal is zero.  If all t queries
    answer 1, the last coordinate is nonzero by elimination, so the worst
    case stays at t queries.  Returns the transposition that moves the
    nonzero coordinate to the front together with the permuted oracle
    view, whose hidden vector is normalized; the rescaling costs nothing
    because scaling a normal vector does not change its hyperplane.

    With ``verify=True`` one extra query on e_t is spent to detect a
    malformed (all-zero) oracle instead of trusting elimination.
    """
    t = raw.level
    width = t + 1
    first_nonzero = t
    for i in range(t):
        e = tuple(1 if j == i else 0 for j in range(width))
        if raw.query_coords(e) == 0:
            first_nonzero = i
            break
    else:
        if verify:
            e = tuple(1 if j == t else 0 for j in range(width))
            if raw.query_coords(e) == 1:
                raise MalformedOracleError(
                    "oracle accepts every unit vector: normal vector is zero"
                )
    perm = list(range(width))
    perm[0], perm[first_nonzero] = perm[first_nonzero], perm[0]
    perm = tuple(perm)
    return perm, PermutedOracle(raw, perm)


def random_element(modulus: PrimeModulus, level: int, rng) -> GroupElement:
    coords = tuple(int(c) for c in rng.integers(0, modulus.p, size=level + 1))
    return GroupElement(coords, modulus)


def random_identity_oracle(modulus: PrimeModulus, level: int, rng, budget: Optional[int] = None) -> IdentityOracle:
    """Oracle with a uniformly random hidden vector of the given level."""
    hidden = (1,) + tuple(int(c) for c in rng.integers(0, modulus.p, size=level))
    return IdentityOracle(NormalVector(hidden, modulus), budget)
