"""Field construction: maximal orders, discriminants, signatures, traces.

Discriminants of the literature fields are the frozen oracle values (the
quartic pair and F7/L7 were additionally confirmed with an independent
computer algebra run whose output passed the disc(f) = index^2 * disc(K)
consistency gate); everything else is checked through internal identities.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import element, field, one, poly
from test_ore import dedekind_p_maximal
from nftrace.exact import IntPoly, factor_integer, factor_poly, poly_discriminant
from nftrace.numberfield import (
    FieldConstructionError,
    is_fundamental_disc,
    is_galois,
    new_field,
    trace_gram,
)


def test_gauss_field():
    K = field("gauss")
    assert K.degree == 2
    assert K.disc == -4
    assert K.signature == (0, 1)
    assert K.index == 1
    assert K.integral_basis == ((1, 0), (0, 1))


def test_quartic_pair_invariants():
    K, L = field("K4"), field("L4")
    assert K.disc == L.disc == 15311569
    assert 15311569 == (7 * 13 * 43) ** 2
    assert K.signature == L.signature == (0, 2)
    assert K.index == 8
    assert L.index == 1


def test_degree7_ae_pair():
    F, L = field("F7"), field("L7")
    assert F.disc == L.disc == 5**2 * 11**6 * 19**4
    assert F.signature == L.signature == (7, 0)
    assert F.index == 625
    assert L.index == 3881


def test_degree7_galois_pair():
    A, B = field("G7a"), field("G7b")
    assert A.disc == B.disc == 7**12 * 29**6
    assert A.signature == B.signature == (7, 0)


def test_sextic_pair_fundamental_disc():
    A, B = field("S6a"), field("S6b")
    assert A.disc == B.disc == 725517561
    assert A.index == 5
    assert B.index == 7
    assert A.signature == B.signature == (6, 0)


def test_cyclic_cubics():
    assert field("c49").disc == 49
    assert field("c81").disc == 81
    a, b = field("c8281a"), field("c8281b")
    assert a.disc == b.disc == 8281
    assert a.index == 2
    assert b.index == 3
    assert a.signature == (3, 0)


def test_cubic_pair_disc():
    a, b = field("C3a"), field("C3b")
    assert a.disc == b.disc == -4027
    assert a.signature == (1, 1)


def test_rejections():
    with pytest.raises(FieldConstructionError):
        new_field(IntPoly([1, 1, 2]))  # not monic
    with pytest.raises(FieldConstructionError, match="factor"):
        new_field(IntPoly([-1, 0, 1]))  # reducible
    with pytest.raises(FieldConstructionError):
        new_field(IntPoly([3, 1]))  # degree 1


def test_index_square_divides_poly_disc():
    for name in ("K4", "L4", "F7", "S6a", "c8281a", "c8281b"):
        K = field(name)
        df = poly_discriminant(K.defining_poly)
        assert df == K.index**2 * K.disc


def test_basis_determinant_is_inverse_index():
    for name in ("K4", "F7", "S6a", "c8281b"):
        K = field(name)
        det = Fraction(1)
        for i in range(K.degree):
            det *= K.integral_basis[i][i]
        assert det == Fraction(1, K.index)


def test_omega1_is_one():
    for name in ("K4", "L4", "F7", "L7", "S6a", "c8281a"):
        K = field(name)
        assert K.integral_basis[0][0] == 1
        assert not any(K.integral_basis[0][1:])


def test_mult_table_closure_random_products():
    K = field("K4")
    rng = random.Random(3)
    for _ in range(20):
        a = element(K, [rng.randint(-5, 5) for _ in range(4)])
        b = element(K, [rng.randint(-5, 5) for _ in range(4)])
        prod = a * b
        assert prod.is_integral_coords()


def test_trace_gram_gauss():
    G = trace_gram(field("gauss"))
    assert G.entries == ((2, 0), (0, -2))


def test_trace_gram_disc49_cubic():
    # hand-computed from power sums of x^3 + x^2 - 2x - 1 (basis = powers)
    G = trace_gram(field("c49"))
    assert G.entries == ((3, -1, 5), (-1, 5, -4), (5, -4, 13))
    assert G.det() == 49


def test_trace_gram_det_equals_disc():
    for name in ("K4", "L4", "C3a", "C3b", "F7", "L7", "S6a", "S6b", "c8281a", "c8281b", "G7a", "G7b"):
        K = field(name)
        assert trace_gram(K).det() == K.disc


def test_disc_factorization_is_read_off_disc_f():
    from conftest import CORPUS

    for name in CORPUS:
        K = field(name)
        assert K.disc_factorization == factor_integer(K.disc), name


def test_per_field_memo_lives_with_the_field():
    import gc
    import weakref

    K = new_field(IntPoly([-2, 0, 0, 1]))
    assert trace_gram(K) is trace_gram(K)
    assert is_galois(K) is False and len(K._memo) == 2
    ref = weakref.ref(K)
    del K
    gc.collect()
    assert ref() is None


def test_element_trace():
    K = field("gauss")
    i = element(K, [0, 1])
    assert one(K).trace() == 2
    assert i.trace() == 0
    assert (i * i).trace() == -2


def test_dedekind_criterion_matches_round2():
    # index 1 fields: Z[theta] already maximal at every squared prime
    for name, idx in (("L4", 1), ("c49", 1), ("c81", 1)):
        K = field(name)
        for p, e in factor_integer(poly_discriminant(K.defining_poly)):
            if p > 0 and e >= 2:
                assert dedekind_p_maximal(K.defining_poly, p) == (K.index % p != 0)
    # K4 has index 8: Dedekind must fail at 2
    assert not dedekind_p_maximal(poly("K4"), 2)
    assert not dedekind_p_maximal(poly("c8281a"), 2)
    assert not dedekind_p_maximal(poly("c8281b"), 3)
    assert not dedekind_p_maximal(poly("S6a"), 5)


def test_sympy_round_two_agreement_where_consistent():
    # independent oracle on the fields where sympy's round_two output
    # passes the disc(f) = index^2 * disc(K) gate
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    for name in ("K4", "L4", "C3a", "F7"):
        K = field(name)
        T = sympy.Poly([int(c) for c in reversed(K.defining_poly.coeffs)], sympy.Symbol("x"))
        ZK, dK = round_two(T)
        df = poly_discriminant(K.defining_poly)
        q, r = divmod(df, int(dK))
        if r != 0 or not q >= 1:
            continue  # inconsistent oracle output, skip
        import math

        idx = math.isqrt(q)
        if idx * idx != q:
            continue
        assert K.disc == int(dK)
        assert K.index == idx


def test_random_fields_structural_invariants():
    rng = random.Random(5)
    built = 0
    while built < 12:
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        f = IntPoly(coeffs)
        if f.degree < 2:
            continue
        fac = factor_poly(f)
        if len(fac) != 1 or fac[0][1] != 1:
            continue
        K = new_field(f)
        df = poly_discriminant(f)
        assert df == K.index**2 * K.disc
        assert K.r1 + 2 * K.r2 == K.degree
        assert (K.disc < 0) == (K.r2 % 2 == 1)
        assert trace_gram(K).det() == K.disc
        built += 1


# ----------------------------------------------------------------------
# Galois and fundamental discriminants
# ----------------------------------------------------------------------


def test_is_galois_quadratics():
    assert is_galois(field("gauss"))
    assert is_galois(field("x2p2"))


def test_is_galois_cyclic_cubics():
    assert is_galois(field("c49"))
    assert is_galois(field("c81"))
    assert is_galois(field("c8281a"))
    assert is_galois(field("c8281b"))


def test_is_not_galois_cubic():
    assert not is_galois(field("C3a"))
    assert not is_galois(field("C3b"))


def test_is_galois_degree7_pair():
    assert is_galois(field("G7a"))
    assert is_galois(field("G7b"))


def test_is_not_galois_quartic_pair():
    assert not is_galois(field("K4"))
    assert not is_galois(field("L4"))


def test_is_not_galois_ae_pair():
    assert not is_galois(field("F7"))
    assert not is_galois(field("L7"))


def test_is_galois_v4_quartic():
    # x^4 + 1 defines Q(zeta_8), Galois with group V4: exercises the
    # totally-split certification path (no inert primes exist)
    assert is_galois(field("zeta8"))


def test_is_galois_more_known_fields():
    # cyclotomic C4 quintic field, biquadratic V4, and the S3-regular
    # sextic x^6 + 108 (splitting field of x^3 - 2, again without inert
    # primes, so its six roots come from the lattice count at a totally
    # split prime)
    z5 = new_field(IntPoly([1, 1, 1, 1, 1]))
    assert z5.disc == 125 and is_galois(z5)
    v4 = new_field(IntPoly([1, 0, -10, 0, 1]))  # sqrt2 + sqrt3
    assert v4.disc == 2304 and is_galois(v4)
    s3 = new_field(IntPoly([108, 0, 0, 0, 0, 0, 1]))
    assert is_galois(s3)
    z7 = new_field(IntPoly([1] * 7))
    assert z7.disc == -(7**5) and is_galois(z7)


def test_index_two_quadratic():
    # x^2 + 4 defines the Gaussian field with index 2
    K = new_field(IntPoly([4, 0, 1]))
    assert K.disc == -4 and K.index == 2
    assert trace_gram(K).det() == -4


def test_cyclotomic_discriminants():
    # closed-form cyclotomic discriminants up to degree 10
    z11 = new_field(IntPoly([1] * 11))
    assert z11.disc == -(11**9)
    assert z11.signature == (0, 5)
    assert is_galois(z11)
    z16 = new_field(IntPoly([1, 0, 0, 0, 0, 0, 0, 0, 1]))
    assert z16.disc == 2**24
    z12 = new_field(IntPoly([1, 0, -1, 0, 1]))
    assert z12.disc == 144 and is_galois(z12)


def test_is_not_galois_sextics():
    assert not is_galois(field("S6a"))


def test_is_fundamental_disc():
    assert is_fundamental_disc(725517561)
    assert not is_fundamental_disc(49)
    assert is_fundamental_disc(-4027)
    assert is_fundamental_disc(-4)
    assert is_fundamental_disc(-3)
    assert is_fundamental_disc(8)
    assert is_fundamental_disc(-8)
    assert is_fundamental_disc(5)
    assert is_fundamental_disc(12)  # disc of Q(sqrt 3)
    assert not is_fundamental_disc(1)
    assert not is_fundamental_disc(20)  # Q(sqrt 5) has disc 5
    assert not is_fundamental_disc(-9)
    assert not is_fundamental_disc(-4027 * 4)


def _fundamental_disc_oracle(d: int) -> bool:
    """Definition: d = 1 mod 4 squarefree, or 4m with m = 2, 3 mod 4
    squarefree (squarefree by trial division)."""

    def squarefree(n):
        return all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1))

    if d in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def test_is_fundamental_disc_accepts_factorization():
    for d in range(-400, 401):
        want = _fundamental_disc_oracle(d)
        assert is_fundamental_disc(d) == want, d
        if d:
            assert is_fundamental_disc(factor_integer(d)) == want, d
    for name in ("S6a", "C3a", "K4", "c49", "gauss", "x2p2", "zeta8"):
        K = field(name)
        assert is_fundamental_disc(K.disc_factorization) == is_fundamental_disc(K.disc)
