import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhbox.modmath import (
    ALL_RESIDUES,
    PrimeModulus,
    QuadraticPoly,
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


def test_sqrt_rejects_square_as_nonresidue():
    pm = PrimeModulus(7)
    with pytest.raises(ValueError):
        sqrt_mod(pm.residue(2), nonresidue=pm.residue(4))
    # 2 is a non-residue modulo 11 and modulo 13, but only as a residue of 13
    # may it serve for a polynomial modulo 13
    with pytest.raises(ValueError):
        solve_quadratic(
            QuadraticPoly.from_ints(PrimeModulus(13), 1, 0, -3),
            nonresidue=PrimeModulus(11).residue(2),
        )


def test_sqrt_deterministic_with_nonresidue():
    for p in (13, 17, 41, 73):  # p = 1 mod 4 exercises the full algorithm
        pm = PrimeModulus(p)
        nr = find_nonresidue(pm)
        for a in range(p):
            got = sqrt_mod(pm.residue(a), nonresidue=nr)
            plain = sqrt_mod(pm.residue(a))
            assert got == plain


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
