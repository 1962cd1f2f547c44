"""Kernel tests: integer factorization, polynomials, Sturm counting.

Expected values are either trivial, derived from independent formulas
computed inside the test, or cross-checked against sympy's classical
routines (factorint / discriminant / count_roots / factor_list), which act
as the external oracle for this module.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from nftrace.exact import (
    Factorization,
    IntPoly,
    count_real_roots,
    factor_integer,
    factor_integers,
    factor_poly,
    factor_poly_mod,
    gf_add,
    gf_divmod,
    gf_from_intpoly,
    gf_gcdex,
    gf_mul,
    is_prime,
    jacobi,
    legendre,
    next_prime,
    poly_discriminant,
    poly_gcd,
    resultant,
    squarefree_part,
)

X = sympy.Symbol("x")


def sp(f: IntPoly):
    return sympy.Poly(list(reversed(f.coeffs)), X)


# ----------------------------------------------------------------------
# primality / integer factorization
# ----------------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(-5, 45):
        assert is_prime(n) == (n in primes)


def test_is_prime_pseudoprimes():
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (4027, 241839187, 2**61 - 1):
        assert is_prime(n)


def test_is_prime_beyond_deterministic_bound():
    # exercises the Baillie-PSW leg (inputs above the Miller-Rabin bound)
    m89 = 2**89 - 1  # Mersenne prime
    assert is_prime(m89)
    assert not is_prime(m89 * (2**61 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_factor_quartic_disc():
    # discriminant of the quartic pair: (7*13*43)^2
    fac = factor_integer(15311569)
    assert fac.sign == 1
    assert fac.as_dict() == {7: 2, 13: 2, 43: 2}
    assert fac.value() == 15311569


def test_factor_one():
    fac = factor_integer(1)
    assert fac.sign == 1 and fac.factors == ()
    assert fac.value() == 1


def test_factor_fundamental_disc():
    # 725517561 = 3 * 241839187, the cofactor certified prime
    fac = factor_integer(725517561)
    assert fac.as_dict() == {3: 1, 241839187: 1}
    assert is_prime(241839187)


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_reconstruction_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 10**12) * rng.choice([1, -1])
        fac = factor_integer(n)
        assert fac.value() == n
        assert fac.as_dict() == {int(p): int(e) for p, e in sympy.factorint(n).items() if p > 0}


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(1, ((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        Factorization(1, ((5, 1), (3, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(2, ())


def _sympy_factors(n: int) -> dict[int, int]:
    return {int(p): int(e) for p, e in sympy.factorint(n).items() if p > 0}


def _big_prime_table():
    """Seeded: primes in [10^12, 10^30], products of two of them, powers."""
    rng = random.Random(1993)

    def prime(lo_digits, hi_digits):
        return int(sympy.nextprime(rng.randrange(10**lo_digits, 10**hi_digits)))

    primes = [prime(12, 13), prime(14, 15), prime(15, 16)]
    primes += [prime(d, d + 1) for d in rng.sample(range(16, 30), 6)]
    table = list(primes)
    # a semiprime: Brent's rho needs about 10^6 steps on a factor near
    # 10^12 (seconds in pure Python), so the table holds just one
    table.append(prime(12, 13) * prime(12, 13))
    table += [primes[0] ** 2, primes[1] ** 3, primes[4] ** 2, 2**5 * 3 * primes[-2] ** 2]
    table += [-(2**3) * 7 * primes[3], 999983 * primes[2], 1009**2 * primes[5]]
    return table


def test_factor_integer_vs_sympy_large_primes():
    for n in _big_prime_table():
        fac = factor_integer(n)
        assert fac.value() == n
        assert fac.as_dict() == _sympy_factors(n), n


def test_factor_integers_agrees_with_factor_integer():
    p, q, r = 1000003, 998244353, 2**61 - 1
    values = [
        p * q,  # shares p and q with the next values
        p**2 * r,
        q * r**3,
        -(2**4) * 3**2 * p,  # negative, small primes
        p * q,  # a repeated value
        7**6,  # a perfect power no known prime divides
        -1,
        1,
        r**2 * 5,
    ]
    for known in ((), (p,), (p, r, 101, 7919)):  # 101 and 7919 divide nothing
        facs = factor_integers(values, known)
        assert facs == [factor_integer(v) for v in values], known


def test_factor_integers_random_shared_primes():
    rng = random.Random(11)
    pool = [2, 3, 5, 1009, 65537, 999983, 10**9 + 7]
    for _ in range(40):
        values = []
        for _ in range(rng.randint(1, 6)):
            powers = [rng.choice(pool) ** rng.randint(1, 3) for _ in range(rng.randint(0, 4))]
            values.append(rng.choice([1, -1]) * math.prod(powers))
        known = rng.sample(pool, rng.randint(0, 3))
        assert factor_integers(values, known) == [factor_integer(v) for v in values]


def test_factor_integers_rejects_zero():
    with pytest.raises(ValueError):
        factor_integers([3, 0])


def test_squarefree_part():
    assert squarefree_part(49) == 1
    assert squarefree_part(-4027) == -4027
    assert squarefree_part(15311569) == 1
    assert squarefree_part(12) == 3


def test_jacobi_legendre():
    assert legendre(3, 7) == -1
    assert legendre(2, 7) == 1
    assert legendre(2, 43) == -1
    assert legendre(3, 43) == -1
    # Euler's criterion as oracle
    for p in (3, 5, 7, 11, 13, 43):
        for a in range(1, p):
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
    assert jacobi(2, 15) == 1
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(10**6) == 1000003


# ----------------------------------------------------------------------
# polynomial basics
# ----------------------------------------------------------------------


def test_intpoly_arithmetic():
    f = IntPoly([152, 68, 4, -1, 1])
    assert f.degree == 4 and f.is_monic
    assert f(0) == 152 and f(1) == 224
    assert str(f) == "x^4 - x^3 + 4*x^2 + 68*x + 152"
    g = IntPoly([-1, 1]) * IntPoly([1, 1])
    assert g == IntPoly([-1, 0, 1])
    assert (f - f).is_zero
    assert f.derivative() == IntPoly([68, 8, -3, 4])


def test_intpoly_rejects_non_integers():
    with pytest.raises(ValueError):
        IntPoly([Fraction(1, 2), 1])


def test_poly_gcd():
    f = IntPoly([-1, 0, 1])  # x^2 - 1
    g = IntPoly([1, 1])  # x + 1
    assert poly_gcd(f, g) == g
    assert poly_gcd(f, IntPoly([1])).degree == 0


def test_discriminant_depressed_cubics():
    # oracle: disc(x^3 + p x + q) = -4 p^3 - 27 q^2
    for p, q in [(-8, -15), (10, -1), (0, 1), (-2, -1), (5, 7)]:
        f = IntPoly([q, p, 0, 1])
        assert poly_discriminant(f) == -4 * p**3 - 27 * q**2


def test_discriminant_examples():
    assert poly_discriminant(IntPoly([-15, -8, 0, 1])) == -4027
    assert poly_discriminant(IntPoly([1, 0, 1])) == -4
    assert poly_discriminant(IntPoly([-1, 10, 0, 1])) == -4027


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        poly_discriminant(IntPoly([5]))


def test_discriminant_vs_sympy_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = IntPoly([rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 5)])
        assert poly_discriminant(f) == int(sp(f).discriminant())


def test_discriminant_zero_iff_repeated_root():
    f = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([3, 1])
    assert poly_discriminant(f) == 0
    assert poly_gcd(f, f.derivative()).degree > 0


def test_resultant_classical_convention():
    # Res(x - a, g) = g(a); scaling, swap and multiplicativity laws pin the
    # normalization Res(f, g) = lc(f)^deg(g) * prod g(roots of f)
    rng = random.Random(13)
    for _ in range(30):
        a = rng.randint(-9, 9)
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)])
        assert resultant(IntPoly([-a, 1]), g) == g(a)
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
        n, m = f.degree, g.degree
        assert resultant(f, g) == (-1) ** (n * m) * resultant(g, f)
        assert resultant(3 * f, g) == 3**m * resultant(f, g)
        h = IntPoly([rng.randint(-9, 9), rng.randint(1, 3)])
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


# ----------------------------------------------------------------------
# Sturm counting
# ----------------------------------------------------------------------


def test_count_real_roots_examples():
    assert count_real_roots(IntPoly([152, 68, 4, -1, 1])) == 0
    assert count_real_roots(IntPoly([-1, 0, 1])) == 2
    assert count_real_roots(IntPoly([-15, -8, 0, 1])) == 1


def test_count_real_roots_rejects_non_squarefree():
    f = IntPoly([-1, 1]) * IntPoly([-1, 1])
    with pytest.raises(ValueError):
        count_real_roots(f)


def test_count_real_roots_vs_sympy_random():
    rng = random.Random(17)
    done = 0
    while done < 50:
        n = rng.randint(1, 7)
        f = IntPoly([rng.randint(-20, 20) for _ in range(n)] + [rng.choice([1, -1, 2])])
        if f.degree < 1 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        assert count_real_roots(f) == sp(f).count_roots()
        done += 1


def test_odd_degree_squarefree_has_a_root():
    rng = random.Random(19)
    done = 0
    while done < 30:
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.choice([1, 3, 5]))] + [1])
        if poly_gcd(f, f.derivative()).degree > 0:
            continue
        c = count_real_roots(f)
        assert c >= 1 and c % 2 == f.degree % 2
        done += 1


# ----------------------------------------------------------------------
# factorization over F_p and Z
# ----------------------------------------------------------------------


def test_factor_poly_mod_quartic_at_7():
    # splitting type at 7 forces (x - a) * (x - b)^3
    f = IntPoly([152, 68, 4, -1, 1])
    fac = factor_poly_mod(f, 7)
    degs = sorted((g.degree, e) for g, e in fac)
    assert degs == [(1, 1), (1, 3)]
    # product reproduces f mod 7
    prod = [1]
    for g, e in fac:
        for _ in range(e):
            prod = gf_mul(prod, list(g.coeffs), 7)
    assert prod == gf_from_intpoly(f, 7)


def test_factor_poly_mod_vs_sympy_random():
    from sympy.polys.galoistools import gf_factor
    from sympy.polys.domains import ZZ

    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.randint(1, 7)
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        f = IntPoly(coeffs)
        if gf_from_intpoly(f, p) == []:
            continue
        try:
            mine = factor_poly_mod(f, p)
        except ValueError:
            continue
        _, theirs = gf_factor([ZZ(c) for c in reversed(coeffs)], p, ZZ)
        mine_set = sorted((tuple(g.coeffs), e) for g, e in mine)
        theirs_set = sorted(
            (tuple(int(c) for c in reversed(g)), e) for g, e in theirs
        )
        assert mine_set == theirs_set


def test_gf_divmod_any_modulus_with_unit_leading_coefficient():
    # the Z/m contract: any m, divisor with a unit leading coefficient
    rng = random.Random(31)
    for m in (2, 7, 3**5, 2**9, 10, 5**4 * 7):
        for _ in range(40):
            a = [rng.randrange(m) for _ in range(rng.randint(0, 9))]
            lc = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
            b = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [lc]
            q, r = gf_divmod(a, b, m)
            assert len(r) < len(b)
            assert gf_add(gf_mul(q, b, m), r, m) == gf_from_intpoly(IntPoly(a), m)
    with pytest.raises(ValueError):
        gf_divmod([1, 2, 3], [1, 3], 9)  # 3 is not a unit mod 9


def test_gf_gcdex_bezout_mod_prime():
    rng = random.Random(37)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 101])
        a = [rng.randrange(p) for _ in range(rng.randint(1, 7))] + [1]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 7))] + [1]
        s, t, g = gf_gcdex(a, b, p)
        assert g and g[-1] == 1
        assert gf_add(gf_mul(s, a, p), gf_mul(t, b, p), p) == g
        assert gf_divmod(a, g, p)[1] == [] and gf_divmod(b, g, p)[1] == []


def test_factor_poly_trivial_split():
    f = IntPoly([-1, 0, 1])
    fac = factor_poly(f)
    assert sorted(tuple(g.coeffs) for g, _ in fac) == [(-1, 1), (1, 1)]
    assert all(e == 1 for _, e in fac)


def test_factor_poly_quartic_irreducible():
    f = IntPoly([152, 68, 4, -1, 1])
    fac = factor_poly(f)
    assert len(fac) == 1 and fac[0] == (f, 1)


def test_factor_poly_degree7():
    f = IntPoly([3625, -576520, 62118, 36743, -2233, -609, 0, 1])
    fac = factor_poly(f)
    assert len(fac) == 1 and fac[0][0] == f


def test_factor_poly_with_multiplicities():
    f = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([1, 0, 1])
    fac = dict(factor_poly(f))
    assert fac[IntPoly([-1, 1])] == 2
    assert fac[IntPoly([1, 0, 1])] == 1


def test_factor_poly_nonmonic_and_content():
    f = IntPoly([6, 0, -6])  # -6(x-1)(x+1)
    fac = factor_poly(f)
    assert sorted(tuple(g.coeffs) for g, _ in fac) == [(-1, 1), (1, 1)]


def test_factor_poly_vs_sympy_random():
    rng = random.Random(29)
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            parts.append(IntPoly([rng.randint(-8, 8) for _ in range(d)] + [rng.randint(1, 3)]))
        f = IntPoly([1])
        for g in parts:
            f = f * g
        if f.degree < 1:
            continue
        mine = factor_poly(f)
        _, theirs = sp(f).factor_list()
        mine_norm = sorted((tuple(g.coeffs), e) for g, e in mine)
        theirs_norm = sorted(
            (tuple(int(c) for c in reversed(g.all_coeffs())), e) for g, e in theirs
        )
        assert mine_norm == theirs_norm


def test_factor_poly_reconstruction_up_to_content():
    rng = random.Random(31)
    for _ in range(30):
        f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)])
        if f.degree < 1:
            continue
        prod = IntPoly([1])
        for g, e in factor_poly(f):
            for _ in range(e):
                prod = prod * g
        # equal up to content
        a, b = f.primitive(), prod.primitive()
        assert a == b or a == -b


def test_factor_poly_zero_rejected():
    with pytest.raises(ValueError):
        factor_poly(IntPoly([]))
    with pytest.raises(ValueError):
        factor_poly(IntPoly([3]))
