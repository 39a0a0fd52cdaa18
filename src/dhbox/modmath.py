"""Exact arithmetic in the prime field F_p.

Everything downstream (oracles, reductions, enumerations) reduces to a
handful of primitives implemented here: canonical residues, modular
inverses, the Legendre symbol, square roots and exact root sets of
polynomials of degree at most two.  Hot loops elsewhere use the private
``_*_int`` helpers, which work on plain integers; the public surface
wraps them in small value types.

Every square root goes through one kernel, ``_sqrt_int``.  For
p = 3 (mod 4) it is one power, a**((p + 1) / 4), checked by squaring.
Otherwise it is one exponentiation, then the discrete log in the 2-Sylow
subgroup of F_p^* read in 8-bit digits from a per-prime table
(Bernstein, "Faster square roots in annoying finite fields", 2001).  The
table depends on p alone: it is built on the first root modulo a prime
p = 1 (mod 4) and kept in a bounded cache keyed by p, so importing the
module or constructing a ``PrimeModulus`` builds nothing, and roots take
no other input than the value and p.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

MAX_MODULUS = 1 << 61

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 2**64)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus:
    """A verified odd prime p shared by all values computed modulo p.

    Construction fails on composites, on even numbers and on p >= 2**61
    (the bound keeps products inside one double-width machine word for
    ports to fixed-width integer languages; experiments never need more).
    p passes through ``operator.index``: numpy integers are stored as
    ints, and floats and strings raise TypeError.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = operator.index(p)
        if p < 3 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus must be below 2**61, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got composite {p}")
        self.p = p

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeModulus", self.p))

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


def _require_same_modulus(a, b) -> None:
    """Refuse two operands, anything with a ``modulus``, modulo different primes."""
    if a.modulus.p != b.modulus.p:
        raise ValueError(f"modulus mismatch: {a.modulus.p} vs {b.modulus.p}")


class Residue:
    """Canonical representative in [0, p) of an element of F_p.

    Immutable; arithmetic returns new residues and raises ValueError when
    the operands live modulo different primes.  Plain ints are accepted on
    either side and reduced first.  The value passes through
    ``operator.index``, which refuses floats and turns fixed-width
    integers (numpy's int64) into ints, whose arithmetic cannot wrap.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        self.value = operator.index(value) % modulus.p
        self.modulus = modulus

    def _coerce(self, other: Union["Residue", int]) -> int:
        if isinstance(other, Residue):
            _require_same_modulus(self, other)
            return other.value
        if isinstance(other, int):
            return other % self.modulus.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        return Residue(pow(self.value, exponent, self.modulus.p), self.modulus)

    def inv(self) -> "Residue":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse modulo {self.modulus.p}")
        return Residue(pow(self.value, -1, self.modulus.p), self.modulus)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Residue):
            return self.modulus.p == other.modulus.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.modulus.p))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.modulus.p})"


def _inv_int(a: int, p: int) -> int:
    if a % p == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {p}")
    return pow(a, -1, p)


def _legendre_int(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def legendre(a: Residue) -> int:
    """Legendre symbol by Euler's criterion: +1, -1, or 0 for a = 0."""
    return _legendre_int(a.value, a.modulus.p)


def _smallest_nonresidue(p: int) -> int:
    """The smallest quadratic non-residue modulo the odd prime p."""
    z = 2
    while _legendre_int(z, p) != -1:
        z += 1
    return z


def find_nonresidue(modulus: PrimeModulus, rng=None) -> Residue:
    """Return a quadratic non-residue modulo p.

    With no generator the candidates 2, 3, 4, ... are scanned in order,
    which is deterministic and fast in practice.  With ``rng`` (a
    numpy Generator) candidates are sampled uniformly; half the nonzero
    residues qualify, so either way termination is certain.
    """
    p = modulus.p
    if rng is None:
        return Residue(_smallest_nonresidue(p), modulus)
    while True:
        c = int(rng.integers(1, p))
        if _legendre_int(c, p) == -1:
            return Residue(c, modulus)


# Digit width of the 2-Sylow discrete log: a table of 2**8 roots of unity.
_WINDOW = 8


@lru_cache(maxsize=32)
def _sylow2(p: int) -> tuple:
    """What the square-root kernel needs of the odd prime p.

    With p - 1 = q * 2**s and z the smallest non-residue, c = z**q
    generates the 2-Sylow subgroup (order 2**s).  Discrete logs e to the
    base c are read in digits of w = min(8, s) bits, lowest first; digit k
    covers bits [w*k, w*k + width) of e, and only the top digit may be
    narrower than w.  Row m holds c**(-d * 2**m) for every digit value d.
    Returns, in order:

    - (q - 1) / 2;
    - the powers of two that lift t to the chain values t**(2**n) the
      digits read, each from the one before, with n rising from the top
      digit's n = 0;
    - the table g**d -> d of the 2**w roots of unity, g = c**(2**(s - w));
    - (offset, shift, correction rows) for each digit past the lowest;
    - (offset, row) for each digit of e / 2;
    - the digit mask 2**w - 1.

    Built on the first root modulo p and cached by p (roots modulo
    p = 3 (mod 4) need no table and never call this), so each prime has
    one table whichever public function takes the root.  At
    p - 1 = 27 * 2**56 it is the table and 7 rows, about 100 KiB.  A plain
    tuple: a NamedTuple class would add to the module's import time.
    """
    z = _smallest_nonresidue(p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    w = min(_WINDOW, s)
    c = pow(z, q, p)
    c_inv = pow(c, -1, p)
    g = pow(c, 1 << (s - w), p)
    log = {}
    x = 1
    for d in range(1 << w):
        log[x] = d
        x = x * g % p

    rows: Dict[int, Tuple[int, ...]] = {}

    def row(m: int) -> Tuple[int, ...]:
        if m not in rows:
            base = pow(c_inv, 1 << m, p)
            powers = [1]
            for _ in range((1 << w) - 1):
                powers.append(powers[-1] * base % p)
            rows[m] = tuple(powers)
        return rows[m]

    offsets = range(0, s, w)
    widths = [min(w, s - o) for o in offsets]
    # Digit k reads the chain value t**(2**n_k).  Times the row
    # offset_i + n_k entry of each lower digit d_i, it is g**(d_k << shift):
    # the bits of e below digit k are gone and its own are at the top.
    ns = [s - o - width for o, width in zip(offsets, widths)]
    up = ns[::-1]
    lifts = tuple(1 << (b - a) for a, b in zip([0] + up, up))
    steps = tuple(
        (offsets[k], w - widths[k], tuple(row(offsets[i] + ns[k]) for i in range(k)))
        for k in range(1, len(ns))
    )
    halves = tuple((o, row(o)) for o in offsets if o < s - 1)
    return q >> 1, lifts, log, steps, halves, (1 << w) - 1


def _sqrt_int(a: int, p: int) -> Optional[Tuple[int, int]]:
    """Both square roots of a modulo p as an ordered pair, or None.

    Returns (0, 0) for a = 0 and None when a is a non-residue.  For
    p = 3 (mod 4) the root is r = a**((p + 1) / 4), since r**2 = a times
    the Legendre symbol of a; no table is built.  Otherwise, with
    p - 1 = q * 2**s, one exponentiation gives b = a**((q - 1) / 2), the
    candidate r = a*b and t = a*b**2 = a**q in the 2-Sylow subgroup.  The
    discrete log e of t to the base c = z**q is read from the squaring
    chain of t in digits, each one lookup in the table of roots of unity
    after the precomputed corrections for the digits below it; an odd
    lowest digit means t**(2**(s-1)) = -1, a non-residue.  The root is
    r * c**(-e/2), with c built from the smallest non-residue z; the pair
    is the same whichever non-residue would be used.
    """
    a %= p
    if a == 0:
        return (0, 0)
    if p & 3 == 3:
        r = pow(a, (p + 1) >> 2, p)
        if r * r % p != a:
            return None
        return (r, p - r) if r <= p - r else (p - r, r)
    half_q, lifts, log, steps, halves, mask = _sylow2(p)
    b = pow(a, half_q, p)
    r = a * b % p
    x = r * b % p
    chain = []
    for lift in lifts:
        x = pow(x, lift, p)
        chain.append(x)
    e = log[chain.pop()]
    if e & 1:
        return None
    digits = [e]
    for offset, shift, rows in steps:
        x = chain.pop()
        for d, row in zip(digits, rows):
            x = x * row[d] % p
        d = log[x] >> shift
        digits.append(d)
        e |= d << offset
    e >>= 1
    for offset, row in halves:
        r = r * row[(e >> offset) & mask] % p
    return (r, p - r) if r <= p - r else (p - r, r)


def sqrt_mod(a: Residue) -> Optional[Tuple[Residue, Residue]]:
    """Square roots {r, p-r} of a residue, ordered r <= p-r, or None.

    Deterministic: the pair depends on the residue alone.
    """
    pair = _sqrt_int(a.value, a.modulus.p)
    if pair is None:
        return None
    return (Residue(pair[0], a.modulus), Residue(pair[1], a.modulus))


class _AllResidues:
    """Marker for the root set of the zero polynomial: every residue."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL_RESIDUES"


ALL_RESIDUES = _AllResidues()


class QuadraticPoly:
    """a2*x**2 + a1*x + a0 with coefficients sharing one modulus."""

    __slots__ = ("a2", "a1", "a0")

    def __init__(self, a2: Residue, a1: Residue, a0: Residue):
        _require_same_modulus(a2, a1)
        _require_same_modulus(a1, a0)
        self.a2 = a2
        self.a1 = a1
        self.a0 = a0

    @classmethod
    def from_ints(cls, modulus: PrimeModulus, a2: int, a1: int, a0: int) -> "QuadraticPoly":
        return cls(Residue(a2, modulus), Residue(a1, modulus), Residue(a0, modulus))

    @property
    def modulus(self) -> PrimeModulus:
        return self.a2.modulus

    def evaluate(self, x: Union[Residue, int]) -> Residue:
        xv = x.value if isinstance(x, Residue) else x
        return Residue((self.a2.value * xv + self.a1.value) * xv + self.a0.value, self.modulus)

    def __repr__(self) -> str:
        return (
            f"QuadraticPoly({self.a2.value}x^2 + {self.a1.value}x + "
            f"{self.a0.value} mod {self.modulus.p})"
        )


def _roots_int(a2: int, a1: int, a0: int, p: int):
    """Sorted tuple of roots of a2 x^2 + a1 x + a0 in F_p, or ALL_RESIDUES.

    Handles the degenerate degrees exactly: a2 = 0 gives the linear case,
    a2 = a1 = 0 gives ALL_RESIDUES or the empty tuple depending on a0.
    """
    a2 %= p
    a1 %= p
    a0 %= p
    if a2 == 0:
        if a1 == 0:
            return ALL_RESIDUES if a0 == 0 else ()
        return ((-a0 * _inv_int(a1, p)) % p,)
    disc = (a1 * a1 - 4 * a2 * a0) % p
    pair = _sqrt_int(disc, p)
    if pair is None:
        return ()
    inv2a = _inv_int(2 * a2, p)
    r1 = (-a1 + pair[0]) * inv2a % p
    r2 = (-a1 - pair[0]) * inv2a % p
    if r1 == r2:
        return (r1,)
    return (r1, r2) if r1 < r2 else (r2, r1)


def solve_quadratic(q: QuadraticPoly):
    """Exact root set of q in F_p.

    Returns a sorted tuple of Residues (possibly empty), or the
    ALL_RESIDUES marker when q is the zero polynomial.  The marker is a
    distinct outcome on purpose: the constant-polynomial branch of the
    DDH decision needs "every residue is a root" as its own case.  Like
    ``sqrt_mod``, it depends on the coefficients alone.
    """
    modulus = q.modulus
    roots = _roots_int(q.a2.value, q.a1.value, q.a0.value, modulus.p)
    if roots is ALL_RESIDUES:
        return ALL_RESIDUES
    return tuple(Residue(r, modulus) for r in roots)
