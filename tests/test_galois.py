"""Galois detection: the witness-first root search and its coordinate bound.

Three former routines are kept here as oracles: the n^n tuple search that
the lattice count replaced (at the same prime and bound both must count
the same roots), the inert count that lifted every root to p^k > 2*bound,
and the coordinate bound computed through the Fraction inverse of the
Gram matrix.
"""

import json
import time
from fractions import Fraction

import pytest

from conftest import CORPUS, field
from test_order_arithmetic import _rescaled
from test_quadform import SMOOTH, _rescaled_corpus
from nftrace import GaloisScanExceeded, numberfield
from nftrace._linalg import frac_matrix_inverse
from nftrace.cli import main
from nftrace.exact import (
    IntPoly,
    _centered,
    factor_poly_mod,
    gf_factor_degrees,
    gf_from_intpoly,
    gf_gcdex,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
    is_prime,
)
from nftrace.numberfield import (
    _all_roots_inert,
    _coordinate_bound,
    _count_roots_split,
    _poly_eval_mod,
    _verify_root,
    is_galois,
    new_field,
    trace_gram,
)


def _matrix_inverse_mod(M, m, p):
    """Inverse of M over Z/m (m a power of the prime p); pivots are units."""
    n = len(M)
    A = [[M[i][j] % m for j in range(n)] + [1 if i == j else 0 for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c] % p)
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], -1, m)
        A[c] = [a * inv % m for a in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                fct = A[i][c]
                A[i] = [(a - fct * b) % m for a, b in zip(A[i], A[c])]
    return [row[n:] for row in A]


def _old_count_roots_split(K, p, bound):
    """The former count: every n-tuple of lifted roots is a candidate.

    A tuple is read as the images of theta under the n embeddings, so the
    inverse Vandermonde matrix gives power coordinates and K._minv basis
    coordinates mod p^k; a candidate inside the bound that passes
    _verify_root is a root.  Both maps are linear, so they are composed
    once and summed down the tuple tree, which tries the same n^n
    candidates as the old product loop but finishes degree 7 in seconds.
    """
    f = K.defining_poly
    n = K.degree
    k = 1
    while p**k <= 2 * bound:
        k += 1
    pk = p**k
    roots_mod_p = [(-g[0]) % p for g, _ in factor_poly_mod(f, p)]
    fprime = f.derivative()
    lifted = []
    for r in roots_mod_p:
        m = p
        while m < pk:
            m = min(m * m, pk)
            r = (r - f(r) * pow(fprime(r), -1, m)) % m
        lifted.append(r)
    V = [[pow(rho, j, pk) for j in range(n)] for rho in lifted]
    Vinv = _matrix_inverse_mod(V, pk, p)
    # c = sum_t combo[t] * W[t] with W[t][j] = sum_i Vinv[i][t] * minv[i][j]
    W = [[sum(Vinv[i][t] * K._minv[i][j] for i in range(n)) % pk for j in range(n)]
         for t in range(n)]
    found = set()

    def walk(depth, acc):
        w = W[depth]
        if depth < n - 1:
            for r in lifted:
                walk(depth + 1, [a + r * x for a, x in zip(acc, w)])
            return
        for r in lifted:  # the last embedding: test the bound coordinate-wise
            for a, x in zip(acc, w):
                if bound < (a + r * x) % pk < pk - bound:
                    break
            else:
                c = tuple(_centered(a + r * x, pk) for a, x in zip(acc, w))
                if c not in found and _verify_root(K, list(c)):
                    found.add(c)

    walk(0, [0] * n)
    return len(found)


def _first_split_prime(K):
    disc_f = K.index**2 * K.disc
    p = 2
    while (
        disc_f % p == 0
        or gf_factor_degrees(gf_from_intpoly(K.defining_poly, p), p) != [1] * K.degree
    ):
        p += 1
        while not is_prime(p):
            p += 1
    return p


def _cyclotomic(n):
    import sympy

    x = sympy.Symbol("x")
    return IntPoly([int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())])


# (name, ascending coefficients, roots of f in the field, or None for CORPUS)
_ORACLE_FIELDS = [(name, c, None) for name, c in CORPUS.items() if len(c) > 3]
_ORACLE_FIELDS += [(f"zeta8@{c}", [c**4, 0, 0, 0, 1], 4) for c in (2, 3, 4, 6, 8, 9, 12)]
_ORACLE_FIELDS += [
    ("phi8", [1, 0, 0, 0, 1], 4),
    ("phi12", [1, 0, -1, 0, 1], 4),
    ("x^6+108", [108, 0, 0, 0, 0, 0, 1], 6),
    ("x^4-2", [-2, 0, 0, 0, 1], 2),
    ("x^6-2", [-2, 0, 0, 0, 0, 0, 1], 2),
    ("x^5-2", [-2, 0, 0, 0, 0, 1], 1),
]


@pytest.mark.parametrize("name,coeffs,roots", _ORACLE_FIELDS, ids=[t[0] for t in _ORACLE_FIELDS])
def test_split_count_equals_the_tuple_search(name, coeffs, roots):
    K = field(name) if name in CORPUS else new_field(IntPoly(coeffs))
    p = _first_split_prime(K)
    bound = _coordinate_bound(K)
    count = _count_roots_split(K, p, bound)
    assert count == _old_count_roots_split(K, p, bound)
    if roots is not None:
        assert count == roots
    assert (count == K.degree) == is_galois(K)
    if name == "x^4-2":
        assert p == 73


_FORMER_CLIFFS = {
    "x^6 + 3": IntPoly([3, 0, 0, 0, 0, 0, 1]),
    **{f"phi{n}": _cyclotomic(n) for n in (15, 16, 20, 21, 24)},
}


@pytest.mark.parametrize("name", sorted(_FORMER_CLIFFS))
def test_former_cliffs_are_galois_within_budget(name, capsys):
    # the tuple search tried 6^6 candidates for x^6 + 3 (about 2 s) and 8^8
    # or 12^12 for the cyclotomics, which never finished
    t0 = time.perf_counter()
    K = new_field(_FORMER_CLIFFS[name])
    assert is_galois(K)
    assert time.perf_counter() - t0 < 5
    poly = str(list(_FORMER_CLIFFS[name].coeffs))
    outs = []
    for _ in range(2):
        assert main(["inspect", "--json", poly]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["fields"][0]["galois"] is True


def test_x6p3_galois_group_order_is_the_degree():
    import sympy
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = sympy.Symbol("x")
    G, _ = galois_group(sympy.Poly(x**6 + 3, x))
    assert G.order() == 6
    assert is_galois(new_field(_FORMER_CLIFFS["x^6 + 3"]))


def test_galois_scan_cap_raises_typed_error(monkeypatch):
    # x^6 + 3 has no inert prime and no totally split prime below 61
    monkeypatch.setattr(numberfield, "_GALOIS_SCAN_CAP", 50)
    K = new_field(_FORMER_CLIFFS["x^6 + 3"])
    with pytest.raises(GaloisScanExceeded) as info:
        is_galois(K)
    assert isinstance(info.value, RuntimeError)
    assert info.value.last_prime == 47 and info.value.cap == 50


def test_galois_scan_cap_exits_with_code_5(monkeypatch, capsys):
    monkeypatch.setattr(numberfield, "_GALOIS_SCAN_CAP", 50)
    assert main(["inspect", "x^6 + 3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "is_galois" in lines[0] and "47" in lines[0]
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# the witness-first inert route against the former full lift
# ----------------------------------------------------------------------


def _old_inert_roots(K, p, bound):
    """The former inert route: every element of the Frobenius orbit of x is
    Newton-lifted to p^k > 2*bound, read as basis coordinates centred mod
    p^k, and kept if it lies within the bound and is a root."""
    f = K.defining_poly
    n = K.degree
    k = 1
    while p**k <= 2 * bound:
        k += 1
    pk = p**k
    fb = gf_from_intpoly(f, p)
    fprime = f.derivative()
    orbit = [[0, 1]]
    for _ in range(n - 1):
        orbit.append(gf_pow_mod(orbit[-1], p, fb, p))
    found = set()
    for r0 in orbit:
        r = list(r0)
        d0 = _poly_eval_mod(fprime, r, fb, p)
        u, _, g = gf_gcdex(d0, fb, p)
        assert g == [1]
        m = p
        while m < pk:
            m = min(m * m, pk)
            fm = gf_from_intpoly(f, m)
            fr = _poly_eval_mod(f, r, fm, m)
            r = gf_sub(r, gf_rem(gf_mul(fr, u, m), fm, m), m)
            fpr = _poly_eval_mod(fprime, r, fm, m)
            corr = gf_sub([2], gf_rem(gf_mul(fpr, u, m), fm, m), m)
            u = gf_rem(gf_mul(u, corr, m), fm, m)
        assert not _poly_eval_mod(f, r, gf_from_intpoly(f, pk), pk)
        a = list(r) + [0] * (n - len(r))
        c = [_centered(sum(a[t] * K._minv[t][j] for t in range(n)), pk) for j in range(n)]
        if all(abs(x) <= bound for x in c) and _verify_root(K, c):
            found.add(tuple(c))
    return found


def _old_coordinate_bound(K):
    """The former bound: Cauchy bound B, basis rows over Fraction, and the
    L1 rows of the Fraction inverse of the Gram matrix."""
    f = K.defining_poly
    n = K.degree
    B = Fraction(1 + max([abs(c) for c in f.coeffs[:-1]] or [0]))
    M = K.integral_basis
    Bj = [sum(abs(M[j][k]) * B**k for k in range(n)) for j in range(n)]
    Ginv = frac_matrix_inverse([list(r) for r in trace_gram(K).entries])
    tb = [n * B * b for b in Bj]
    C = max(sum(abs(Ginv[j][k]) * tb[k] for k in range(n)) for j in range(n))
    return int(C) + 1


def _first_inert_prime(K):
    disc_f = K.index**2 * K.disc
    for p in range(2, 3000):
        if (
            is_prime(p)
            and disc_f % p
            and gf_factor_degrees(gf_from_intpoly(K.defining_poly, p), p) == [K.degree]
        ):
            return p
    return None


# a field has an inert prime iff its Galois group holds an n-cycle: K4 and
# L4 (group A4) and zeta8 = phi8 ((Z/8)^* is not cyclic) have none, nor has
# phi_n for any n <= 24 outside the list below
_INERT_FIELDS = [(name, None) for name in CORPUS if name not in ("K4", "L4", "zeta8")]
_INERT_FIELDS += [
    (f"{name}@{c}", _rescaled(CORPUS[name], c))
    for name in ("G7a", "G7b", "F7", "L7")
    for c in SMOOTH
]
_INERT_FIELDS += [
    (f"phi{n}", _cyclotomic(n)) for n in (3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 17, 18, 19, 22, 23)
]


@pytest.mark.parametrize("name,f", _INERT_FIELDS, ids=[t[0] for t in _INERT_FIELDS])
def test_witness_route_equals_the_full_lift(name, f):
    K = field(name) if f is None else new_field(f)
    p = _first_inert_prime(K)
    assert p is not None
    galois = len(_old_inert_roots(K, p, _old_coordinate_bound(K))) == K.degree
    assert _all_roots_inert(K, p, _coordinate_bound(K)) == galois
    assert is_galois(K) == galois


def _record_lifts(monkeypatch):
    """Wrap _inert_lifts; returns (orbit elements tried, those lifted past m = p)."""
    tried, lifted = [], []
    lifts = numberfield._inert_lifts

    def recording(f, r0, p, pk):
        tried.append(r0)
        for step, item in enumerate(lifts(f, r0, p, pk)):
            if step == 1:
                lifted.append(r0)
            yield item

    monkeypatch.setattr(numberfield, "_inert_lifts", recording)
    return tried, lifted


def test_phi23_decides_with_no_newton_step(monkeypatch):
    # every root theta^i is read off mod p: its coordinates are 0, 1 or -1
    tried, lifted = _record_lifts(monkeypatch)
    assert is_galois(new_field(_cyclotomic(23)))
    assert len(tried) == 22
    assert lifted == []


def test_f7_at_12_is_refuted_after_lifting_at_most_two_roots(monkeypatch):
    # theta is a root; the next orbit element lifts to no root, which takes
    # the full lift, and the route stops there
    tried, lifted = _record_lifts(monkeypatch)
    assert not is_galois(new_field(_rescaled(CORPUS["F7"], 12)))
    assert 1 <= len(lifted) <= 2
    assert len(tried) == 2


@pytest.mark.parametrize("name", ["phi12", "x^6 + 3"])
def test_split_route_decides_with_one_reduction_at_the_witness_precision(name, monkeypatch):
    K = new_field(_cyclotomic(12) if name == "phi12" else _FORMER_CLIFFS[name])
    n = K.degree
    p = _first_split_prime(K)
    k = 1
    while p ** (2 * k) <= (4 * n) ** n:
        k += 1
    # below the precision the bound would certify
    assert p ** (2 * k) <= (4 * n * _coordinate_bound(K) ** 2) ** n
    moduli = []
    reduce = numberfield.lll_reduce

    def recording(rows):
        moduli.append(rows[0][0])
        return reduce(rows)

    monkeypatch.setattr(numberfield, "lll_reduce", recording)
    assert is_galois(K)
    assert moduli == [p**k]


# ----------------------------------------------------------------------
# the coordinate bound
# ----------------------------------------------------------------------


def _bound_fields():
    from test_acceptance import _random_fields

    return [field(name) for name in CORPUS] + list(_random_fields()) + _rescaled_corpus()


def _roots(K, bound, monkeypatch):
    """Every root of f in O_K, found exactly with a valid bound: by the full
    lift at an inert prime, else by the lattice count at a split prime."""
    p = _first_inert_prime(K)
    if p is not None:
        return _old_inert_roots(K, p, bound)
    found = set()
    verify = numberfield._verify_root

    def recording(K, c):
        ok = verify(K, c)
        if ok:
            found.add(tuple(c))
        return ok

    monkeypatch.setattr(numberfield, "_verify_root", recording)
    _count_roots_split(K, _first_split_prime(K), bound)
    monkeypatch.setattr(numberfield, "_verify_root", verify)
    return found


def test_totally_real_bound_holds_every_root_and_never_exceeds_the_old_one(monkeypatch):
    checked = 0
    for K in _bound_fields():
        if not K.is_totally_real:
            continue
        bound, old = _coordinate_bound(K), _old_coordinate_bound(K)
        assert bound <= old
        roots = _roots(K, old, monkeypatch)
        assert roots  # theta itself is a root
        assert all(abs(c) <= bound for r in roots for c in r)
        checked += 1
    assert checked >= 50


def test_complex_place_bound_equals_the_fraction_formula():
    checked = 0
    for K in _bound_fields():
        if not K.is_totally_real:
            assert _coordinate_bound(K) == _old_coordinate_bound(K)
            checked += 1
    assert checked >= 50
