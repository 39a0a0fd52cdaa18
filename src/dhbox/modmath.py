"""Exact arithmetic in the prime field F_p.

Everything downstream (oracles, reductions, enumerations) reduces to a
handful of primitives implemented here: canonical residues, modular
inverses, the Legendre symbol, Tonelli-Shanks square roots and exact root
sets of polynomials of degree at most two.  Hot loops elsewhere use the
private ``_*_int`` helpers, which work on plain integers; the public
surface wraps them in small value types.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

MAX_MODULUS = 1 << 61

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 2**64)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
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


def _require_same_modulus(a: "Residue", b: "Residue") -> int:
    if a.modulus.p != b.modulus.p:
        raise ValueError(
            f"modulus mismatch: {a.modulus.p} vs {b.modulus.p}"
        )
    return a.modulus.p


class Residue:
    """Canonical representative in [0, p) of an element of F_p.

    Immutable; arithmetic returns new residues and raises ValueError when
    the operands live modulo different primes.  Plain ints are accepted on
    either side and reduced first.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        self.value = value % modulus.p
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


def find_nonresidue(modulus: PrimeModulus, rng=None) -> Residue:
    """Return a quadratic non-residue modulo p.

    With no generator the candidates 2, 3, 4, ... are scanned in order,
    which is deterministic and fast in practice.  With ``rng`` (a
    numpy Generator) candidates are sampled uniformly; half the nonzero
    residues qualify, so either way termination is certain.
    """
    p = modulus.p
    if rng is None:
        for c in range(2, p):
            if _legendre_int(c, p) == -1:
                return Residue(c, modulus)
        raise AssertionError("unreachable: every odd prime has a non-residue")
    while True:
        c = int(rng.integers(1, p))
        if _legendre_int(c, p) == -1:
            return Residue(c, modulus)


def _nonresidue_int(nonresidue: Optional[Residue], p: int) -> Optional[int]:
    """Value of a caller-supplied non-residue modulo p, or None for none.

    A residue modulo another prime or an actual square is a caller bug
    and raises ValueError.
    """
    if nonresidue is None:
        return None
    if nonresidue.modulus.p != p:
        raise ValueError(f"modulus mismatch: {nonresidue.modulus.p} vs {p}")
    if _legendre_int(nonresidue.value, p) != -1:
        raise ValueError(f"{nonresidue.value} is a square modulo {p}, not a non-residue")
    return nonresidue.value


def _sqrt_int(a: int, p: int, nonresidue: Optional[int] = None) -> Optional[Tuple[int, int]]:
    """Both square roots of a modulo p as an ordered pair, or None.

    Returns (0, 0) for a = 0 and None when a is a non-residue.  With a
    known non-residue the Tonelli-Shanks branch is fully deterministic;
    without one the deterministic candidate scan is used instead.
    """
    a %= p
    if a == 0:
        return (0, 0)
    if _legendre_int(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks: write p - 1 = q * 2**s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        if nonresidue is None:
            z = 2
            while _legendre_int(z, p) != -1:
                z += 1
        else:
            z = nonresidue % p
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2i = t
            i = 0
            for i in range(1, m):
                t2i = t2i * t2i % p
                if t2i == 1:
                    break
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return (r, p - r) if r <= p - r else (p - r, r)


def sqrt_mod(a: Residue, nonresidue: Optional[Residue] = None) -> Optional[Tuple[Residue, Residue]]:
    """Square roots {r, p-r} of a residue, ordered r <= p-r, or None.

    A supplied ``nonresidue`` makes the computation deterministic; passing
    an actual square there is rejected as a caller bug.
    """
    p = a.modulus.p
    pair = _sqrt_int(a.value, p, _nonresidue_int(nonresidue, p))
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

    def is_constant(self) -> bool:
        return self.a2.value == 0 and self.a1.value == 0

    def evaluate(self, x: Union[Residue, int]) -> Residue:
        xv = x.value if isinstance(x, Residue) else x
        p = self.modulus.p
        return Residue((self.a2.value * xv + self.a1.value) * xv + self.a0.value, self.modulus)

    def __repr__(self) -> str:
        return (
            f"QuadraticPoly({self.a2.value}x^2 + {self.a1.value}x + "
            f"{self.a0.value} mod {self.modulus.p})"
        )


def _roots_int(a2: int, a1: int, a0: int, p: int, nonresidue: Optional[int] = None):
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
    pair = _sqrt_int(disc, p, nonresidue)
    if pair is None:
        return ()
    inv2a = _inv_int(2 * a2, p)
    r1 = (-a1 + pair[0]) * inv2a % p
    r2 = (-a1 - pair[0]) * inv2a % p
    if r1 == r2:
        return (r1,)
    return (r1, r2) if r1 < r2 else (r2, r1)


def solve_quadratic(q: QuadraticPoly, nonresidue: Optional[Residue] = None):
    """Exact root set of q in F_p.

    Returns a sorted tuple of Residues (possibly empty), or the
    ALL_RESIDUES marker when q is the zero polynomial.  The marker is a
    distinct outcome on purpose: the constant-polynomial branch of the
    DDH decision needs "every residue is a root" as its own case.
    """
    modulus = q.modulus
    nr = _nonresidue_int(nonresidue, modulus.p)
    roots = _roots_int(q.a2.value, q.a1.value, q.a0.value, modulus.p, nr)
    if roots is ALL_RESIDUES:
        return ALL_RESIDUES
    return tuple(Residue(r, modulus) for r in roots)
