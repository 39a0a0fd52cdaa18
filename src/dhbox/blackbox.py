"""Identity black-box groups over the ambient vector space Z_p^(t+1).

The group under study is the quotient of Z_p^(t+1) by a hidden hyperplane.
Group operations are ordinary coordinate arithmetic and cost nothing; the
only access to the hidden structure is the identity oracle, which answers
whether a vector lies on the hyperplane and charges one counted query per
evaluation.

Every identity oracle derives from :class:`OracleBase`, which holds the
dimension check, the only counter and the budget, and leaves each leaf
oracle (:class:`RawOracle`, :class:`IdentityOracle`, the embedded oracle
of ``algorithms``) only its answer rule and its line scan.  The counter
has two entry points: ``query_coords`` charges one query, and
``scan_line`` charges one query per candidate x of a line base + x*step,
in order, up to the first accepted one.  ``OracleBase.scan_line`` is the
one scaffold of every scan: the width checks, the budget cut, the charge
and the refusal.  Inside it a leaf answers the whole scan: a raw oracle
accepts x exactly when x = t (mod p) for one residue t of the line, so
it finds the first accepted candidate of a range in closed form and of
an integer buffer (a numpy array, a memoryview) in numpy, and loops over
any other candidates; the embedded oracle compares one power per
candidate.  An oracle without a loop, or a subclass that changes the
answer rule, scans through ``query_coords``, so both entry points ask
and charge the same queries.  The one view, :class:`OracleView`, keeps no counter: it
maps coordinates, or a scan's base and step, and charges through the
oracle it wraps.  :func:`normalize_oracle` and ``algorithms.lift_oracle``
build it.  :class:`GroverOracle` asks a level-1 identity oracle, so
point-search queries use the same counter too.

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
from itertools import count, islice
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

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

    @classmethod
    def zero(cls, modulus: PrimeModulus, level: int) -> "GroupElement":
        return cls((0,) * (level + 1), modulus)

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
    a scan but the answers: a leaf supplies only ``_line_loop``, which
    answers a whole scan in one loop, and may add ``_line_index``, which
    names the first accepted index of a range or integer buffer; an
    oracle without a loop scans through ``query_coords``.  A view (:class:`OracleView`) leaves the
    counter unset; it maps coordinates, or a scan's base and step, and
    passes the query or scan to the oracle it wraps, which checks and
    charges it.  A view uses only the public surface of what it wraps, so
    a wrapped oracle may itself be a view or a proxy.
    """

    __slots__ = ("modulus", "level", "_queries", "_budget")

    # The leaf's loop over a whole scan, ``_line_loop(base, step, numbered)``:
    # it draws (x, _) pairs from ``numbered`` in order and returns the first
    # accepted x, or None once ``numbered`` is exhausted.  None here, and in
    # a subclass that overrides ``_answer`` or ``query_coords`` below the
    # class that wrote the loop (a lying test oracle, a recorder): those
    # scan query by query, so a scan believes the answers the queries get.
    _line_loop = None
    # The leaf's answer to a scan of a range or integer buffer,
    # ``_line_index(base, step, seq)``: the least i >= 0 at which seq,
    # continued past its end, would hold an accepted candidate, or None
    # when no i would.  None here, and wherever ``_line_loop`` is None.
    _line_index = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        owner = next(k for k in cls.__mro__ if "_line_loop" in vars(k))
        if cls._answer is not owner._answer or cls.query_coords is not owner.query_coords:
            cls._line_loop = cls._line_index = None

    def __init__(self, modulus: PrimeModulus, level: int, budget: Optional[int] = None):
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
        candidate is accepted.  An empty tuple of candidates asks nothing.

        With a ``_line_loop`` the candidates drawn are charged together
        when the scan ends, also when a candidate raises, and a scan that
        outruns the budget is refused at the same candidate, with the same
        count and message, as the query-by-query loop.  A range, or a
        one-dimensional buffer of integers, is not drawn at all when the
        leaf also has a ``_line_index``: it is cut to the budget's room,
        the leaf names the index i of the first accepted candidate, and
        i + 1 queries are charged (the whole room when none is accepted).
        """
        loop = self._line_loop
        if loop is None:
            return _scan_by_queries(self, base, step, candidates)
        _check_line(self, base, step)
        if isinstance(candidates, tuple):
            if not candidates:
                return None
        elif self._line_index is not None and _indexable(candidates):
            return self._scan_indexed(base, step, candidates)
        rest = iter(candidates)
        scan = rest if self._budget is None else islice(rest, max(self._budget - self._queries, 0))
        # zip draws a candidate before a number, so the numbers drawn
        # count the candidates drawn, whatever ends the loop.
        drawn = count()
        try:
            hit = loop(base, step, zip(scan, drawn))
        finally:
            self._queries += next(drawn)
        if hit is None:
            # The budget cut the scan short if a candidate is left over.
            for _ in rest:
                raise self._over_budget()
        return hit

    def _scan_indexed(self, base: Sequence[int], step: Sequence[int], candidates) -> Optional[int]:
        """``scan_line`` of a range or integer buffer, by the leaf's index."""
        n = _length(candidates)
        room = n if self._budget is None else min(n, max(self._budget - self._queries, 0))
        scan = candidates[:room]
        i = self._line_index(base, step, scan)
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
        scale = pow(normal[0], -1, self.modulus.p)
        return NormalVector([c * scale for c in normal], self.modulus)


class RawOracle(OracleBase):
    """Identity oracle whose normal vector is nonzero but not normalized.

    Answers 1 exactly when the scalar product of the query with the
    hidden normal is zero.  The starting point of
    :func:`normalize_oracle`: the hidden normal may have any nonzero
    coordinate pattern.

    A line scan is decided by one residue t (``_residue``): a candidate
    is accepted exactly when it is t mod p.  A range is answered in
    closed form and an integer buffer by a numpy remainder, so neither
    loops over its candidates in Python; other candidates are tested one
    remainder each, and a float among them is refused as a query is.
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

    def _residue(self, base: Sequence[int], step: Sequence[int]) -> Optional[int]:
        """The residue t that decides the scan of the line base + x*step.

        The query base + x*step is accepted exactly when
        c0 + x*c1 = 0 (mod p), with c0 = n.base and c1 = n.step for the
        hidden normal n.  When c1 != 0 that is x = t (mod p) for
        t = -c0/c1.  When c1 = 0 no residue decides: every candidate is
        accepted (``_EVERY``) or none is (None).
        """
        p = self.modulus.p
        index = operator.index
        c0 = c1 = 0
        for b, s, nc in zip(base, step, self._normal):
            c0 += index(b) * nc
            c1 += index(s) * nc
        c1 %= p
        if c1 == 0:
            return _EVERY if c0 % p == 0 else None
        # c1 = 1 in first_on_line on a normalized oracle: no inverse to take.
        return -c0 % p if c1 == 1 else -c0 * pow(c1, -1, p) % p

    def _line_loop(self, base: Sequence[int], step: Sequence[int], numbered) -> Optional[int]:
        """The line scan decided by one residue, one remainder per candidate.

        Each candidate is taken through ``operator.index``, as a query
        takes its coordinates: a float is refused, and no product of x is
        formed, so a fixed-width integer (numpy's int64) is exact.
        """
        p = self.modulus.p
        index = operator.index
        t = self._residue(base, step)
        for x, _ in numbered:
            # With no residue (c1 = 0) the first candidate or none is accepted.
            if index(x) % p == t or t == _EVERY:
                return x
        return None

    def _line_index(self, base: Sequence[int], step: Sequence[int], seq) -> Optional[int]:
        """The line scan of a range in closed form, of a buffer in numpy.

        A range's candidates are start + i*step, so the first accepted i
        is (t - start)/step mod p, or 0 or none when step = 0 (mod p).
        """
        t = self._residue(base, step)
        if t is None:
            return None
        if t == _EVERY:
            return 0
        p = self.modulus.p
        if isinstance(seq, range):
            s = seq.step % p
            if s == 0:
                return 0 if (seq.start - t) % p == 0 else None
            return (t - seq.start) * pow(s, -1, p) % p
        return _first_residue(np.asarray(seq), p, t)

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
        super().__init__(hidden.coords, hidden.modulus, budget)

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

    def reveal_secret(self, escrow: Escrow) -> int:
        return self._line.reveal_hidden(escrow).secret


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


# The residue of a scan in which every candidate is accepted; no residue
# mod p is negative.
_EVERY = -1

# The native integer formats of a buffer that a scan reads in numpy.
_INT_FORMATS = frozenset("bBhHiIlLqQ")

# numpy scans a buffer in chunks from 256 elements up, 4 times longer each
# time and at most 2^16 long: an early hit costs one short pass, a miss
# one pass per chunk, and the temporaries stay under a megabyte.
_FIRST_CHUNK = 256
_LAST_CHUNK = 1 << 16


def _indexable(candidates) -> bool:
    """Whether a scan can index its candidates: a range or an integer buffer."""
    if isinstance(candidates, range):
        return True
    if isinstance(candidates, memoryview):
        return candidates.ndim == 1 and candidates.format in _INT_FORMATS
    return isinstance(candidates, np.ndarray) and candidates.ndim == 1 and candidates.dtype.kind in "iu"


def _length(seq) -> int:
    """len(seq), also for a range longer than sys.maxsize, where len() overflows."""
    if isinstance(seq, range) and seq:
        return (seq[-1] - seq[0]) // seq.step + 1
    return len(seq)


def _first_residue(values: np.ndarray, p: int, t: int) -> Optional[int]:
    """The first index i with values[i] = t (mod p), or None.

    numpy refuses a remainder by a p that the values' own type cannot
    hold, so formats narrower than 64 bits are widened to int64 first;
    every modulus is below 2^61, so int64 and uint64 hold it.
    """
    work = np.int64 if values.dtype.itemsize < 8 else values.dtype
    start, size = 0, _FIRST_CHUNK
    while start < len(values):
        chunk = values[start : start + size].astype(work, copy=False)
        hits = np.flatnonzero(chunk % p == t)
        if hits.size:
            return start + int(hits[0])
        start += size
        size = min(4 * size, _LAST_CHUNK)
    return None


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
