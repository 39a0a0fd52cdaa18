"""Identity black-box groups over the ambient vector space Z_p^(t+1).

The group under study is the quotient of Z_p^(t+1) by a hidden hyperplane.
Group operations are ordinary coordinate arithmetic and cost nothing; the
only access to the hidden structure is the identity oracle, which answers
whether a vector lies on the hyperplane and charges one counted query per
evaluation.

Every identity oracle derives from :class:`OracleBase`, which holds the
dimension check, the only counter and the budget, and leaves each leaf
oracle (:class:`RawOracle`, :class:`IdentityOracle`, the embedded oracle
of ``algorithms``) only its answer rule and its line index.  The counter
has two entry points: ``query_coords`` charges one query, and
``scan_line`` charges one query per candidate x of a line base + x*step,
in order, up to the first accepted one.  ``OracleBase.scan_line`` is the
one scaffold of every scan: the width checks, the budget cut, the charge
and the refusal.  A range, a one-dimensional integer numpy array or a
tuple of ints is offered to the leaf's index, which names the first
accepted candidate without a query: a raw oracle accepts x exactly when
x = t (mod p) for one residue t of the line, so it answers a range in
closed form, an array by the array's own remainder and a tuple one
remainder per item; the embedded oracle accepts x exactly when
R^x = H^-1 for two subgroup elements of the line, so it answers a range
by baby-step giant-step and declines the rest.  This module never
imports numpy; an array reaches a scan only from a caller that has.
Any other candidates (an iterator, a list, a memoryview, floats), what
a leaf declines, any oracle without an index, and a subclass that
changes the answer rule are scanned through ``query_coords``, so both
entry points ask and charge the same queries.  The one view,
:class:`OracleView`, keeps no counter: it maps coordinates, or a scan's
base and step, and charges through the oracle it wraps.
:func:`normalize_oracle` and ``algorithms.lift_oracle`` build it.
A point question x is the single query (x, -1), asked by
:func:`grover_from_identity` through ``query_coords``: :class:`GroverOracle`
and the Grover simulator's charge for each phase-oracle application both
ask it, so point-search queries use the same counter too.

Everything that would let algorithm code peek at the hidden normal vector
is gated behind an explicit :class:`Escrow` capability.  Reference maps
such as :func:`coset_label` take an explicit normal vector, which honest
algorithm code can only obtain through ``reveal_hidden(escrow)``, which
scales the normal the oracle answers by to a leading 1; keeping
Escrow construction out of algorithm code is what makes every reported
query count meaningful.
"""

from __future__ import annotations

import operator
import sys
from typing import Iterable, Optional, Sequence, Tuple

from .modmath import PrimeModulus, Residue, _require_same_modulus


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

    @property
    def level(self) -> int:
        return len(self.coords) - 1

    def _check_compatible(self, other) -> None:
        # Also takes a NormalVector, which has the same two fields.
        _require_same_modulus(self, other)
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
    order and stops at the first accepted one.  It holds everything about
    a scan but the answers: a leaf supplies only ``_line_index``, which
    names the first accepted index of a range, an integer array or a
    tuple of ints, or declines it; other candidates, what the leaf
    declines, and an oracle without an index, are scanned through
    ``query_coords``.  A view (:class:`OracleView`)
    leaves the counter unset; it maps coordinates, or a scan's base and
    step, and passes the query or scan to the oracle it wraps, which
    checks and charges it.  A view uses only the public surface of what
    it wraps, so a wrapped oracle may itself be a view or a proxy.
    """

    __slots__ = ("modulus", "level", "_queries", "_budget")

    # The leaf's answer to a scan of a range, an integer array or a tuple
    # of ints, ``_line_index(base, step, seq)``: the least i >= 0 at which
    # seq holds an accepted candidate, or else None or any i past its end;
    # or NotImplemented, before anything is charged, for a kind of seq the
    # leaf does not index, which is then scanned query by query.  A leaf
    # that counts more than queries (``mults``) charges the candidates
    # tried, the first min(i + 1, len(seq)).  None here, and in
    # a subclass that overrides ``_answer`` or ``query_coords`` below the
    # class that wrote the index (a lying test oracle, a recorder): those
    # scan query by query, so a scan believes the answers the queries get.
    _line_index = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        owner = next(k for k in cls.__mro__ if "_line_index" in vars(k))
        if cls._answer is not owner._answer or cls.query_coords is not owner.query_coords:
            cls._line_index = None

    def __init__(self, modulus: PrimeModulus, level: int, budget: Optional[int] = None):
        # An exact count: operator.index, as at every other entry point.
        if budget is not None:
            budget = operator.index(budget)
            if budget < 0:
                raise ValueError(f"query budget must not be negative, got {budget}")
        self.modulus = modulus
        self.level = level
        self._queries = 0
        self._budget = budget

    @property
    def queries(self) -> int:
        return self._queries

    def query(self, h: GroupElement) -> int:
        _require_same_modulus(h, self)
        return self.query_coords(h.coords)

    def query_coords(self, coords: Sequence[int]) -> int:
        _check_width(self, len(coords))
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
        candidate is accepted.  An empty scan asks nothing.

        A range, a one-dimensional integer numpy array or a tuple of ints
        is not drawn when the leaf has a ``_line_index``: it is cut to the
        budget's room, the leaf names the index i of the first accepted
        candidate, and i + 1 queries are charged (the whole room when none
        is accepted, and then a scan that the budget cut short is refused
        as the query-by-query loop refuses it).  Other candidates, and
        those the leaf declines, are scanned query by query.
        """
        index = self._line_index
        n = None if index is None else _index_length(candidates)
        if n is None:
            return _scan_by_queries(self, base, step, candidates)
        _check_line(self, base, step)
        if not n:
            return None
        room = n if self._budget is None else min(n, max(self._budget - self._queries, 0))
        scan = candidates if room == n else candidates[:room]
        i = index(base, step, scan)
        if i is NotImplemented:
            return _scan_by_queries(self, base, step, candidates)
        if i is not None and i < room:
            self._queries += i + 1
            return scan[i]
        self._queries += room
        if room < n:
            raise self._over_budget()
        return None

    def reveal_hidden(self, escrow: Escrow) -> NormalVector:
        """Test-escrow accessor: ``reveal_normal`` scaled to a leading 1.

        Never counted.  Each leaf and view supplies ``reveal_normal``, the
        normal it answers by; the view of :func:`normalize_oracle` makes
        its leading coordinate nonzero.
        """
        normal = self.reveal_normal(escrow)
        if normal[0] == 0:
            raise ValueError("hidden normal has leading coordinate 0; normalize the oracle first")
        if normal[0] != 1:
            scale = pow(normal[0], -1, self.modulus.p)
            normal = [c * scale for c in normal]
        return NormalVector(normal, self.modulus)


class RawOracle(OracleBase):
    """Identity oracle whose normal vector is nonzero but not normalized.

    Answers 1 exactly when the scalar product of the query with the
    hidden normal is zero.  The starting point of
    :func:`normalize_oracle`: the hidden normal may have any nonzero
    coordinate pattern.

    A line scan is decided by one residue t: a candidate is accepted
    exactly when it is t mod p.  A range is answered in closed form, an
    integer array by its own remainder and a tuple of ints one remainder
    per item, so no query is formed per candidate; other candidates are
    scanned query by query.
    """

    __slots__ = ("_normal",)

    def __init__(self, normal: Sequence[int], modulus: PrimeModulus, budget: Optional[int] = None):
        normal = _canonical_coords(normal, modulus.p)
        if not any(normal):
            raise ValueError("normal vector must be nonzero")
        super().__init__(modulus, len(normal) - 1, budget)
        self._normal = normal

    def _answer(self, coords: Sequence[int]) -> int:
        acc = 0
        for c, nc in zip(map(operator.index, coords), self._normal):
            acc += c * nc
        return 1 if acc % self.modulus.p == 0 else 0

    def _line_index(self, base: Sequence[int], step: Sequence[int], seq) -> Optional[int]:
        """The line scan of a range in closed form, of an array by its own
        remainder, of a tuple one remainder per item.

        The query base + x*step is accepted exactly when
        c0 + x*c1 = 0 (mod p), with c0 = n.base and c1 = n.step for the
        hidden normal n.  When c1 = 0 every candidate is accepted or none
        is; otherwise x is accepted exactly when x = t (mod p) for
        t = -c0/c1.  A range's candidates are start + i*step, so the
        first accepted i is (t - start)/step mod p, or 0 or none when
        step = 0 (mod p).
        """
        p = self.modulus.p
        index = operator.index
        c0 = c1 = 0
        for b, s, nc in zip(base, step, self._normal):
            c0 += index(b) * nc
            c1 += index(s) * nc
        c1 %= p
        if c1 == 0:
            return 0 if c0 % p == 0 else None
        # c1 = 1 in first_on_line on a normalized oracle: no inverse to take.
        t = -c0 % p if c1 == 1 else -c0 * pow(c1, -1, p) % p
        if isinstance(seq, range):
            s = seq.step % p
            if s == 0:
                return 0 if (seq.start - t) % p == 0 else None
            return (t - seq.start) * pow(s, -1, p) % p
        if isinstance(seq, tuple):
            i = 0
            for x in seq:
                if x % p == t:
                    return i
                i += 1
            return None
        return _first_residue(seq, p, t)

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

    __slots__ = ()

    def __init__(self, hidden: NormalVector, budget: Optional[int] = None):
        # A NormalVector's coordinates are already canonical and lead with
        # 1: nothing is left for RawOracle.__init__ to reduce or refuse.
        OracleBase.__init__(self, hidden.modulus, hidden.level, budget)
        self._normal = hidden.coords

    @classmethod
    def level1(cls, modulus: PrimeModulus, secret: int, budget: Optional[int] = None) -> "IdentityOracle":
        return cls(NormalVector.level1(modulus, secret), budget)


class OracleView(OracleBase):
    """An oracle read through a map of coordinates.

    A query c of the view is the query (c[pick[0]], ..., c[pick[m]]) of
    ``inner``, so it costs exactly one query there, and a scan maps its
    base and step the same way.  The view checks the width of what it is
    given against its own level, keeps no counter and charges through
    ``inner``, which may itself be a view or a proxy.  Its hidden normal
    puts coordinate k of the inner normal at position pick[k] and zeros
    everywhere else.
    """

    __slots__ = ("_inner", "pick")

    def __init__(self, inner, pick: Sequence[int], level: int):
        pick = tuple(pick)
        if len(pick) != inner.level + 1 or len(set(pick) & set(range(level + 1))) != len(pick):
            raise ValueError(f"pick {pick} does not map level {level} onto level {inner.level}")
        self._inner = inner
        self.pick = pick
        self.modulus = inner.modulus
        self.level = level

    @property
    def queries(self) -> int:
        return self._inner.queries

    def _map(self, coords: Sequence[int]) -> Tuple[int, ...]:
        _check_width(self, len(coords))
        return tuple(map(coords.__getitem__, self.pick))

    def query_coords(self, coords: Sequence[int]) -> int:
        return self._inner.query_coords(self._map(coords))

    def scan_line(self, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
        return scan_line(self._inner, self._map(base), self._map(step), candidates)

    def reveal_normal(self, escrow: Escrow) -> Tuple[int, ...]:
        normal = [0] * (self.level + 1)
        for k, c in zip(self.pick, self._inner.reveal_normal(escrow)):
            normal[k] = c
        return tuple(normal)


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


def equal_in_group(oracle, a: GroupElement, b: GroupElement) -> int:
    """Equality of cosets: one identity query on the difference a - b."""
    return oracle.query(a - b)


def _check_width(oracle, n: int) -> None:
    """Refuse a query, base or step of n coordinates at the wrong level."""
    if n != oracle.level + 1:
        raise ValueError(f"dimension mismatch: oracle level {oracle.level}, got {n} coordinates")


def _check_line(oracle, base: Sequence[int], step: Sequence[int]) -> None:
    width = oracle.level + 1
    if len(base) != width or len(step) != width:
        _check_width(oracle, len(base))
        _check_width(oracle, len(step))


def _index_length(candidates) -> Optional[int]:
    """The number of candidates of a scan that can index them, or None.

    A tuple of exact ints (no bool, no numpy integer), a range or a
    one-dimensional integer numpy array can be indexed; a range is
    counted also when it is longer than sys.maxsize, where len()
    overflows.
    """
    if isinstance(candidates, tuple):
        for x in candidates:
            if type(x) is not int:
                return None
        return len(candidates)
    if isinstance(candidates, range):
        return (candidates[-1] - candidates[0]) // candidates.step + 1 if candidates else 0
    # No ndarray exists before numpy is imported, so the check imports nothing.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(candidates, np.ndarray):
        if candidates.ndim == 1 and candidates.dtype.kind in "iu":
            return len(candidates)
    return None


def _first_residue(values, p: int, t: int) -> Optional[int]:
    """The first index i with values[i] = t (mod p), or None.

    ``values`` is a one-dimensional integer numpy array, read with its
    own methods, so this module imports no numpy.  numpy refuses a
    remainder by a p that the values' own type cannot hold, so types
    narrower than 64 bits are widened to int64 first; every modulus is
    below 2^61, so int64 and uint64 hold it.  One pass over the whole
    array, whose temporaries are the 64-bit values and their remainders,
    one byte per value for the mask, and the indices of the hits.
    """
    work = "int64" if values.dtype.itemsize < 8 else values.dtype
    hits = (values.astype(work, copy=False) % p == t).nonzero()[0]
    return int(hits[0]) if hits.size else None


def _line_point(start: list, moving: list, x: int, p: int) -> Tuple[int, ...]:
    """The query base + x*step, from the reduced base and moving coordinates."""
    coords = start.copy()
    for j, b, s in moving:
        coords[j] = (b + x * s) % p
    return tuple(coords)


def _scan_by_queries(oracle, base: Sequence[int], step: Sequence[int], candidates: Iterable[int]) -> Optional[int]:
    """The line scan query by query, through ``oracle.query_coords``.

    Each candidate is taken through ``operator.index`` before its query
    is formed, so a fixed-width integer (numpy's int64) cannot wrap.
    """
    _check_line(oracle, base, step)
    p = oracle.modulus.p
    index = operator.index
    query_coords = oracle.query_coords
    start = [b % p for b in map(index, base)]
    # Only the coordinates where the step is nonzero move with x.
    moving = [(j, start[j], s % p) for j, s in enumerate(map(index, step)) if s % p]
    for x in candidates:
        try:
            e = index(x)
        except TypeError:
            # No integer (a float): its query is charged, then refused as a
            # leaf refuses it, also when no coordinate moves with x.
            query_coords(_line_point(start, moving, x, p))
            raise
        if query_coords(_line_point(start, moving, e, p)) == 1:
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
    """Point-search answer for x through one level-1 identity query.

    The one rule for a point question: (x, -1) lies on the hidden line
    exactly when x is the secret, so x costs the single query (x, -1),
    asked through ``query_coords`` on any oracle, proxy or view.  Like
    every query, a float x is charged and then refused.
    """
    if oracle.level != 1:
        raise ValueError(f"level-1 oracle required, got level {oracle.level}")
    return 1 if oracle.query_coords((x, -1)) == 1 else 0


def identity_from_grover(grover: GroverOracle, h: GroupElement) -> int:
    """Level-1 identity answer for h through at most one point-search query.

    (h0, h1) lies on the hidden line exactly when -h0 = s*h1, which for
    invertible h1 is the point question at -h0/h1; the two h1 = 0 cases
    need no query at all.
    """
    if h.level != 1:
        raise ValueError(f"level-1 element required, got level {h.level}")
    _require_same_modulus(h, grover)
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
    nonzero coordinate to the front together with the :class:`OracleView`
    through it, whose hidden vector, rescaled, is normalized; the
    rescaling costs nothing because scaling a normal vector does not
    change its hyperplane.

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
    return perm, OracleView(raw, perm, t)


def random_element(modulus: PrimeModulus, level: int, rng) -> GroupElement:
    coords = tuple(int(c) for c in rng.integers(0, modulus.p, size=level + 1))
    return GroupElement(coords, modulus)


def random_identity_oracle(modulus: PrimeModulus, level: int, rng, budget: Optional[int] = None) -> IdentityOracle:
    """Oracle with a uniformly random hidden vector of the given level."""
    hidden = (1,) + tuple(int(c) for c in rng.integers(0, modulus.p, size=level))
    return IdentityOracle(NormalVector(hidden, modulus), budget)
