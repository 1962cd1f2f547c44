"""Galois detection: the lattice root count at a totally split prime.

The n^n tuple search that the lattice count replaced is kept here as an
oracle; at the same prime and bound both must count the same roots.
"""

import json
import time

import pytest

from conftest import CORPUS, field
from nftrace import GaloisScanExceeded, numberfield
from nftrace.cli import main
from nftrace.exact import IntPoly, _centered, factor_poly_mod, is_prime
from nftrace.numberfield import (
    _coordinate_bound,
    _count_roots_split,
    _factor_degree_pattern,
    _verify_root,
    is_galois,
    new_field,
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
    while disc_f % p == 0 or _factor_degree_pattern(K.defining_poly, p) != [1] * K.degree:
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
