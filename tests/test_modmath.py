import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.modmath import (
    ALL_RESIDUES,
    PrimeModulus,
    QuadraticPoly,
    _legendre_int,
    _sqrt_int,
    _sylow2,
    find_nonresidue,
    is_prime,
    legendre,
    solve_quadratic,
    sqrt_mod,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]

M61 = (1 << 61) - 1  # Mersenne prime, the largest admissible modulus


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


def test_is_prime_small():
    primes = {p for p in range(2, 200) if is_prime(p)}
    expected = set()
    for n in range(2, 200):
        if all(n % d for d in range(2, n)):
            expected.add(n)
    assert primes == expected


def test_prime_modulus_validation():
    PrimeModulus(3)
    PrimeModulus(M61)
    with pytest.raises(ValueError):
        PrimeModulus(9)
    with pytest.raises(ValueError):
        PrimeModulus(2)  # odd primes only
    with pytest.raises(ValueError):
        PrimeModulus(1)
    with pytest.raises(ValueError):
        PrimeModulus(1 << 61)  # magnitude bound
    with pytest.raises(ValueError):
        PrimeModulus(2305843009213693953)  # 2^61 + 1, also composite


def test_prime_modulus_takes_int_like_values():
    # Fixed-width integers are stored as ints; floats and strings are refused.
    pm = PrimeModulus(np.int64(101))
    assert pm.p == 101 and type(pm.p) is int
    assert pm == PrimeModulus(101) and hash(pm) == hash(PrimeModulus(101))
    assert type(PrimeModulus(np.int64(M61)).p) is int
    for bad in (101.0, 7.5, "101"):
        with pytest.raises(TypeError):
            PrimeModulus(bad)


def test_arithmetic_examples():
    pm = PrimeModulus(7)
    assert (pm.residue(3) * pm.residue(5)).value == 1
    assert (pm.residue(6) + pm.residue(1)).value == 0
    assert (pm.residue(2) - pm.residue(5)).value == 4
    assert (-pm.residue(3)).value == 4
    assert (pm.residue(3) * 5).value == 1
    assert (5 * pm.residue(3)).value == 1


def test_wide_multiplication_against_bigint_reference():
    pm = PrimeModulus(M61)
    a = (1 << 60) - 1
    assert (pm.residue(a) * pm.residue(a)).value == a * a % M61


def test_residue_values_are_exact_ints():
    # int64 values would wrap in the product; floats are refused.
    pm = PrimeModulus(M61)
    product = pm.residue(np.int64(M61 - 2)) * pm.residue(np.int64(M61 - 3))
    assert product.value == 6 and type(product.value) is int
    assert type(pm.residue(np.int64(-1)).value) is int
    with pytest.raises(TypeError):
        PrimeModulus(7).residue(1.5)


def test_modulus_mismatch_rejected():
    a = PrimeModulus(7).residue(3)
    b = PrimeModulus(11).residue(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_inverse_examples():
    assert PrimeModulus(7).residue(3).inv().value == 5
    assert PrimeModulus(101).residue(1).inv().value == 1
    # independent oracle: scan all residues for the product 1
    pm = PrimeModulus(13)
    expected = next(x for x in range(13) if 4 * x % 13 == 1)
    assert expected == 10
    assert pm.residue(4).inv().value == 10


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeModulus(7).residue(0).inv()


def test_inverse_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        pm = PrimeModulus(p)
        for a in range(1, p):
            assert (pm.residue(a) * pm.residue(a).inv()).value == 1


def test_legendre_examples_and_exhaustive():
    pm = PrimeModulus(7)
    assert legendre(pm.residue(2)) == 1
    assert legendre(pm.residue(3)) == -1
    assert legendre(pm.residue(0)) == 0
    for p in SMALL_PRIMES:
        pm = PrimeModulus(p)
        sq = squares_mod(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in sq else -1)
            assert legendre(pm.residue(a)) == expected


def test_find_nonresidue_deterministic_scan():
    assert find_nonresidue(PrimeModulus(7)).value == 3
    assert find_nonresidue(PrimeModulus(5)).value == 2
    assert find_nonresidue(PrimeModulus(3)).value == 2
    for p in SMALL_PRIMES:
        assert legendre(find_nonresidue(PrimeModulus(p))) == -1


def test_find_nonresidue_random_mode():
    import numpy as np

    for p in (11, 97):
        rng = np.random.default_rng(42)
        r = find_nonresidue(PrimeModulus(p), rng)
        assert legendre(r) == -1
        rng2 = np.random.default_rng(42)
        assert find_nonresidue(PrimeModulus(p), rng2) == r


def test_sqrt_examples():
    pm = PrimeModulus(7)
    r = sqrt_mod(pm.residue(4))
    assert (r[0].value, r[1].value) == (2, 5)
    r = sqrt_mod(pm.residue(2))
    assert (r[0].value, r[1].value) == (3, 4)
    assert sqrt_mod(pm.residue(5)) is None
    z = sqrt_mod(pm.residue(0))
    assert (z[0].value, z[1].value) == (0, 0)


def test_sqrt_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        pm = PrimeModulus(p)
        sq = squares_mod(p)
        for a in range(p):
            pair = sqrt_mod(pm.residue(a))
            if a == 0:
                assert pair == (pm.residue(0), pm.residue(0))
            elif a in sq:
                assert pair is not None
                lo, hi = pair
                assert lo.value <= hi.value
                assert lo.value * lo.value % p == a
                assert hi.value * hi.value % p == a
            else:
                assert pair is None


def test_solve_quadratic_examples():
    pm = PrimeModulus(7)
    # x^2 + x + 2 mod 7: evaluation over all seven points finds only the
    # double root 3 (its discriminant is 1 - 8 = 0 mod 7)
    roots = solve_quadratic(QuadraticPoly.from_ints(pm, 1, 1, 2))
    assert tuple(r.value for r in roots) == (3,)
    roots = solve_quadratic(QuadraticPoly.from_ints(pm, 1, 1, 1))
    assert tuple(r.value for r in roots) == (2, 4)
    assert solve_quadratic(QuadraticPoly.from_ints(pm, 0, 0, 0)) is ALL_RESIDUES
    assert solve_quadratic(QuadraticPoly.from_ints(pm, 1, 0, 1)) == ()


def test_solve_quadratic_matches_evaluation_everywhere():
    # full triple loop over coefficients, roots cross-checked pointwise
    for p in (3, 5, 7, 11, 13):
        pm = PrimeModulus(p)
        for a2 in range(p):
            for a1 in range(p):
                for a0 in range(p):
                    poly = QuadraticPoly.from_ints(pm, a2, a1, a0)
                    expected = {x for x in range(p) if poly.evaluate(x).value == 0}
                    got = solve_quadratic(poly)
                    if got is ALL_RESIDUES:
                        assert expected == set(range(p))
                    else:
                        assert {r.value for r in got} == expected
                        assert list(got) == sorted(got, key=lambda r: r.value)


def test_quadratic_poly_modulus_mismatch():
    a = PrimeModulus(7).residue(1)
    b = PrimeModulus(11).residue(1)
    with pytest.raises(ValueError):
        QuadraticPoly(a, a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([M61, 2147483647, 1000000007]),
    st.integers(min_value=0, max_value=M61 - 1),
    st.integers(min_value=0, max_value=M61 - 1),
)
def test_field_ops_match_integer_reference(p, a, b):
    pm = PrimeModulus(p)
    x, y = pm.residue(a), pm.residue(b)
    assert (x + y).value == (a % p + b % p) % p
    assert (x - y).value == (a % p - b % p) % p
    assert (x * y).value == (a % p) * (b % p) % p
    if a % p:
        assert (x * x.inv()).value == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_sqrt_roundtrip_property(p, data):
    x = data.draw(st.integers(min_value=0, max_value=p - 1))
    pm = PrimeModulus(p)
    square = pm.residue(x * x)
    pair = sqrt_mod(square)
    assert pair is not None
    assert x % p in {pair[0].value, pair[1].value}


# ------------------------------------------------------ square-root kernel

PTS = 27 * (1 << 56) + 1  # p - 1 = 27 * 2**56
# Primes with a large 2-part of p - 1: 2-adicity s = 20, 23, 27, 30, 56.
HIGH_2ADIC = [7 * (1 << 20) + 1, 119 * (1 << 23) + 1, 15 * (1 << 27) + 1, 3 * (1 << 30) + 1, PTS]


def tonelli_shanks(a, p):
    """The Tonelli-Shanks loop the kernel replaced, kept as its reference."""
    a %= p
    if a == 0:
        return (0, 0)
    if _legendre_int(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while _legendre_int(z, p) != -1:
            z += 1
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


def two_adicity(p):
    return ((p - 1) & -(p - 1)).bit_length() - 1


def test_sqrt_kernel_every_residue_below_2000():
    # The pair of each square x**2 is (x, p - x) for x < p/2; every other
    # nonzero residue is a non-residue.  Spot-checked against the loop.
    for p in range(3, 2000):
        if not is_prime(p):
            continue
        expected = {0: (0, 0)}
        for x in range(1, (p + 1) // 2):
            expected[x * x % p] = (x, p - x)
        for a in range(p):
            assert _sqrt_int(a, p) == expected.get(a), (a, p)
        for a in range(0, p, 37):
            assert tonelli_shanks(a, p) == expected.get(a)


@pytest.mark.parametrize("p", [12289, 18433, 40961, 65537])
def test_sqrt_kernel_short_and_full_top_digits(p):
    # s = 12, 11, 13 leave a top digit of 4, 3 and 5 bits above the 8-bit
    # ones; s = 16 is two full digits.  Every residue, against the loop.
    s = two_adicity(p)
    _, _, _, steps, _, _ = _sylow2(p)
    assert len(steps) == 1 and steps[0][1] == (8 - s % 8) % 8
    for a in range(p):
        assert _sqrt_int(a, p) == tonelli_shanks(a, p), a


@pytest.mark.parametrize("p", [13, 41, 17, 97, 193, 641, 257])
def test_sqrt_kernel_one_digit_up_to_the_window(p):
    # s = 2..8: one digit of s bits, no corrections.
    s = two_adicity(p)
    _, _, log, steps, _, _ = _sylow2(p)
    assert len(log) == 1 << s and steps == ()
    for a in range(p):
        assert _sqrt_int(a, p) == tonelli_shanks(a, p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HIGH_2ADIC + [M61]), st.data())
def test_sqrt_kernel_matches_reference_at_large_primes(p, data):
    x = data.draw(st.integers(min_value=1, max_value=p - 1))
    pair = _sqrt_int(x * x, p)
    assert pair == tonelli_shanks(x * x, p)
    assert pair == (min(x, p - x), max(x, p - x))
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    got = _sqrt_int(a, p)
    assert got == tonelli_shanks(a, p)
    assert (got is None) == (_legendre_int(a, p) == -1)


def test_sqrt_kernel_digit_layout_at_large_primes():
    # (offset, shift) of each digit past the lowest: only the top digit is
    # short, and its shift moves its bits to the top of the 8-bit window.
    layouts = {
        7 * (1 << 20) + 1: [(8, 0), (16, 4)],
        119 * (1 << 23) + 1: [(8, 0), (16, 1)],
        3 * (1 << 30) + 1: [(8, 0), (16, 0), (24, 2)],
        PTS: [(8 * k, 0) for k in range(1, 7)],
        M61: [],
    }
    for p, layout in layouts.items():
        _, _, _, steps, _, _ = _sylow2(p)
        assert [(offset, shift) for offset, shift, _ in steps] == layout


def test_find_nonresidue_is_the_kernels_smallest():
    for p in (7, 41, 12289, PTS):
        z = find_nonresidue(PrimeModulus(p)).value
        assert z == next(c for c in range(2, p) if _legendre_int(c, p) == -1)


@pytest.mark.parametrize("p", [3, 7, 103, 65539, M61])
def test_sqrt_three_mod_four_builds_no_table(p):
    # p = 3 (mod 4): one power a**((p + 1) / 4), checked by squaring; the
    # pair is the reference's and no 2-Sylow table is built.
    assert p % 4 == 3
    _sylow2.cache_clear()
    for a in list(range(min(p, 200))) + [p - 1, p - 4, 2**40 + 7]:
        assert _sqrt_int(a, p) == tonelli_shanks(a, p), (a, p)
    assert _sylow2.cache_info().currsize == 0


def test_sqrt_kernel_cache_is_bounded():
    maxsize = _sylow2.cache_info().maxsize
    assert maxsize is not None
    primes = [p for p in range(5, 4000) if is_prime(p)][: 2 * maxsize]
    for p in primes:
        assert _sqrt_int(4, p) == (2, p - 2)
    assert _sylow2.cache_info().currsize <= maxsize
