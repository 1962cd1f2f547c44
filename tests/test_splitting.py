"""Prime decomposition tests, anchored on the published (e,f) table for the
quartic pair and on structural identities (sum e_i f_i = n, the tame
exponent law, the different exponent, Galois uniformity, agreement of the
splitting routes)."""

import random
import re
from fractions import Fraction

import pytest

from conftest import element, field, one, poly
from nftrace import splitting
from nftrace._linalg import frac_matrix_inverse
from nftrace.exact import (
    IntPoly,
    InternalInvariantError,
    factor_integer,
    factor_poly,
    poly_discriminant,
)
from nftrace.local import split_by_idempotents
from nftrace.numberfield import new_field
from nftrace.splitting import (
    decomposition_type,
    is_tame,
    is_tame_field,
    ramified_primes,
    split_prime,
)


def ef(name, p):
    return list(split_prime(field(name), p).pairs)


def test_quartic_table_at_7():
    assert ef("K4", 7) == [(1, 1), (3, 1)]
    assert ef("L4", 7) == [(2, 1), (2, 1)]


def test_quartic_table_at_13():
    assert ef("K4", 13) == [(2, 1), (2, 1)]
    assert ef("L4", 13) == [(1, 1), (3, 1)]


def test_quartic_table_at_43():
    assert ef("K4", 43) == [(2, 1), (2, 1)]
    assert ef("L4", 43) == [(1, 1), (3, 1)]


def test_gauss_splittings():
    assert ef("gauss", 5) == [(1, 1), (1, 1)]
    assert ef("gauss", 2) == [(2, 1)]
    assert ef("gauss", 3) == [(1, 2)]


def test_wild_dyadic():
    assert ef("x2p2", 2) == [(2, 1)]
    assert not is_tame(field("x2p2"), 2)


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        split_prime(field("gauss"), 6)
    with pytest.raises(ValueError):
        split_prime(field("gauss"), 1)


def test_decomposition_types():
    assert decomposition_type(field("K4"), -1).fs == (2, 2)
    assert decomposition_type(field("F7"), -1).fs == (1,) * 7
    assert decomposition_type(field("K4"), 13).fs == (1, 1)
    assert decomposition_type(field("gauss"), -1).fs == (2,)


def test_tameness():
    assert is_tame(field("K4"), 7)
    assert is_tame(field("F7"), 11)
    assert is_tame_field(field("K4"))
    assert is_tame_field(field("L4"))
    assert is_tame_field(field("F7"))
    assert is_tame_field(field("L7"))
    assert not is_tame_field(field("x2p2"))
    # C7 fields ramified at 7 are wild there
    assert not is_tame(field("G7a"), 7)
    assert not is_tame_field(field("G7a"))


def test_ramified_primes():
    assert ramified_primes(field("K4")) == {7, 13, 43}
    assert ramified_primes(field("gauss")) == {2}
    assert ramified_primes(field("c49")) == {7}
    assert ramified_primes(field("G7a")) == {7, 29}
    assert ramified_primes(field("S6a")) == {3, 241839187}


def test_galois_fields_have_uniform_pairs():
    for name, ps in (("G7a", (7, 29)), ("G7b", (7, 29)), ("c8281a", (7, 13)), ("c49", (7,))):
        K = field(name)
        for p in ps:
            pairs = set(split_prime(K, p).pairs)
            assert len(pairs) == 1


def test_degree7_galois_ramification():
    # totally ramified at both ramified primes, e = 7
    assert ef("G7a", 7) == [(7, 1)]
    assert ef("G7a", 29) == [(7, 1)]
    assert ef("G7b", 29) == [(7, 1)]


def test_tame_exponent_law():
    # v_p(disc) = n - sum f_i at tame primes
    for name in ("K4", "L4", "F7", "L7", "S6a", "S6b", "c49", "c81", "c8281a", "c8281b"):
        K = field(name)
        dfac = factor_integer(K.disc).as_dict()
        for p in ramified_primes(K):
            sp = split_prime(K, p)
            if sp.is_tame:
                assert dfac[p] == K.degree - sp.residue_degree_sum, (name, p)


def test_index_prime_splittings_consistent():
    # order-route splittings at p | index: unramified when p does not
    # divide disc, and sum e_i f_i = n always holds (checked internally)
    K = field("K4")  # index 8
    sp = split_prime(K, 2)
    assert all(e == 1 for e, _ in sp.pairs)
    assert sum(f for _, f in sp.pairs) == 4
    F = field("F7")  # index 5^4, 5 ramified with v_5(disc) = 2
    sp5 = split_prime(F, 5)
    assert sum(e * f for e, f in sp5.pairs) == 7
    assert sp5.is_tame
    assert 7 - sp5.residue_degree_sum == 2
    L = field("L7")  # index 3881, unramified there
    sp3881 = split_prime(L, 3881)
    assert all(e == 1 for e, _ in sp3881.pairs)


def _minpoly_of_element(K, coords):
    """Minimal polynomial of an element via exact power-dependence."""
    n = K.degree
    alpha = element(K, coords)
    rows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    cur = one(K)
    while True:
        cur = cur * alpha
        # solve: cur in span(rows)?
        m = len(rows)
        aug = [[rows[i][j] for i in range(m)] + [cur.coords[j]] for j in range(n)]
        # gaussian
        piv = {}
        r = 0
        for c in range(m):
            pr = next((i for i in range(r, n) if aug[i][c]), None)
            if pr is None:
                continue
            aug[r], aug[pr] = aug[pr], aug[r]
            inv = 1 / aug[r][c]
            aug[r] = [a * inv for a in aug[r]]
            for i in range(n):
                if i != r and aug[i][c]:
                    fct = aug[i][c]
                    aug[i] = [a - fct * b for a, b in zip(aug[i], aug[r])]
            piv[c] = r
            r += 1
        if all(not aug[i][m] for i in range(r, n)):
            sol = [Fraction(0)] * m
            for c, i in piv.items():
                sol[c] = aug[i][m]
            coeffs = [-s for s in sol] + [Fraction(1)]
            assert all(c.denominator == 1 for c in coeffs)
            return IntPoly([int(c) for c in coeffs])
        rows.append(list(cur.coords))


def test_index_prime_splitting_via_second_generator():
    # independent check of the order-route splitting of 2 in the quartic K:
    # find another primitive integral generator whose minimal polynomial
    # has odd index, where Dedekind's theorem applies directly
    K = field("K4")
    target = sorted(split_prime(K, 2).pairs)
    rng = random.Random(41)
    checked = False
    for _ in range(40):
        coords = [rng.randint(-3, 3) for _ in range(4)]
        g = _minpoly_of_element(K, coords)
        if g.degree != 4:
            continue
        dg = poly_discriminant(g)
        if dg == 0:
            continue
        v2 = 0
        while dg % 2 == 0:
            dg //= 2
            v2 += 1
        if v2 != 0:
            continue  # 2 could divide the new index
        # disc(g) odd: index of Z[alpha] is odd, Dedekind applies at 2
        from nftrace.exact import factor_poly_mod

        pairs = sorted(
            ((e, h.degree) for h, e in factor_poly_mod(g, 2)), key=lambda t: (t[1], t[0])
        )
        assert pairs == target
        checked = True
        break
    assert checked, "no generator with odd index found"


def test_two_routes_agree_off_the_index():
    # the Dedekind route and the maximal-order route must agree at every
    # p not dividing the index
    for name in ("K4", "c8281a", "c8281b", "S6a"):
        K = field(name)
        for p in (2, 3, 5, 7, 11, 13, 43):
            if K.index % p == 0:
                continue
            dedekind = split_prime(K, p).pairs
            order_route = tuple(
                sorted(split_by_idempotents(K._mult, p), key=lambda t: (t[1], t[0]))
            )
            assert order_route == dedekind, (name, p)


def test_sum_ef_random_fields():
    rng = random.Random(43)
    built = 0
    while built < 8:
        n = rng.randint(2, 5)
        f = IntPoly([rng.randint(-8, 8) for _ in range(n)] + [1])
        if f.degree < 2:
            continue
        fac = factor_poly(f)
        if len(fac) != 1 or fac[0][1] != 1:
            continue
        K = new_field(f)
        for p in (2, 3, 5, 7, 11):
            sp = split_prime(K, p)
            assert sum(e * fi for e, fi in sp.pairs) == K.degree
        built += 1


def test_ramified_iff_divides_disc():
    for name in ("K4", "L4", "C3a", "S6a", "c8281a"):
        K = field(name)
        ram = ramified_primes(K)
        for p in (2, 3, 5, 7, 11, 13, 43):
            assert split_prime(K, p).is_ramified == (p in ram), (name, p)


@pytest.mark.parametrize("wrong", [[(5, 1)], [(1, 2), (1, 3)]], ids=["too wild", "unramified"])
def test_split_prime_checks_the_different_exponent(wrong, monkeypatch):
    # d_K = 5 * 1741 and 5 | index: the true pairs (2, 1)(1, 3) give
    # sum f (e - 1) = 1 = v_5(d_K) with e tame.  (5, 1) passes sum e f = n but
    # needs v_5(d_K) > 4; an unramified answer needs v_5(d_K) = 0
    f = IntPoly([9765625, 1562500, 0, 1875, 0, 1])
    assert split_prime(new_field(f), 5).pairs == ((2, 1), (1, 3))
    monkeypatch.setattr(splitting, "split_by_idempotents", lambda C, p: wrong)
    with pytest.raises(InternalInvariantError, match=re.escape(f"f = {f} at p = 5")):
        split_prime(new_field(f), 5)
