"""Integer order arithmetic against a Fraction oracle.

The oracle is the rational construction of the structure constants: invert
the basis matrix over Q, multiply basis vectors in Q[x]/(f) and read the
coordinates through the inverse.  The integer `_mult_table` must return the
same (C, minv) at every order Round-2 visits, and `_alg_mul` must agree with
the oracle's rational product.
"""

import random
from fractions import Fraction

import pytest

from conftest import CORPUS
from nftrace import numberfield
from nftrace._linalg import frac_matrix_inverse
from nftrace.exact import InternalInvariantError, IntPoly
from nftrace.numberfield import _alg_mul, _mult_table, new_field


def _fr_mul_mod(a, b, f):
    """Product of Fraction coefficient lists reduced mod the monic f."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    n = f.degree
    for d in range(len(out) - 1, n - 1, -1):
        c = out[d]
        if c:
            for k in range(n + 1):
                out[d - n + k] -= c * f[k]
    return out[:n]


def _oracle_coords(M, Minv, v):
    n = len(M)
    return [sum(v[k] * Minv[k][t] for k in range(n)) for t in range(n)]


def _oracle_mult_table(f, den, rows):
    n = f.degree
    M = [[Fraction(a, den) for a in r] for r in rows]
    Minv = frac_matrix_inverse(M)
    minv = [[int(a) for a in r] for r in Minv]
    assert all(a.denominator == 1 for r in Minv for a in r)
    C = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            coords = _oracle_coords(M, Minv, _fr_mul_mod(M[i], M[j], f))
            assert all(c.denominator == 1 for c in coords)
            C[i][j] = C[j][i] = tuple(int(c) for c in coords)
    return C, minv


def _cyclotomic(n):
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.divmod_exact(_cyclotomic(d))
    return num


def _rescaled(coeffs, c):
    n = len(coeffs) - 1
    return IntPoly([a * c ** (n - k) for k, a in enumerate(coeffs)])


POLYS = (
    [(name, IntPoly(c)) for name, c in CORPUS.items()]
    + [(f"{name}@{c}", _rescaled(g, c)) for name, g in CORPUS.items() for c in (6, 12)]
    + [(f"phi{n}", _cyclotomic(n)) for n in (7, 9, 12, 19)]
)


@pytest.mark.parametrize("name,f", POLYS, ids=[name for name, _ in POLYS])
def test_mult_table_matches_fraction_oracle_at_every_round2_step(name, f, monkeypatch):
    visited = []

    def recording(f, den, rows):
        out = _mult_table(f, den, rows)
        visited.append((den, [list(r) for r in rows], out))
        return out

    monkeypatch.setattr(numberfield, "_mult_table", recording)
    K = new_field(f)
    # every order Round-2 visits at each prime, then the maximal order
    assert visited[-1][:2] == (K._den, K._rows)
    for den, rows, (C, minv) in visited:
        assert (C, minv) == _oracle_mult_table(f, den, rows), (name, den)


def test_mult_table_rejects_a_lattice_that_is_not_an_order():
    f = IntPoly([1, 0, 1])  # x^2 + 1: (1 + i)/2 is not integral
    with pytest.raises(InternalInvariantError, match="not closed"):
        _mult_table(f, 2, [[2, 0], [1, 1]])
    with pytest.raises(InternalInvariantError, match="Z\\[theta\\]"):
        _mult_table(f, 1, [[1, 0], [0, 2]])


@pytest.mark.parametrize("name", ["K4", "G7a", "F7", "S6b", "c8281a", "zeta8"])
def test_alg_mul_matches_fraction_product(name):
    K = new_field(IntPoly(CORPUS[name]))
    f, n = K.defining_poly, K.degree
    M = [[Fraction(a) for a in r] for r in K.integral_basis]
    Minv = frac_matrix_inverse(M)
    rng = random.Random(name)
    for _ in range(25):
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(n)]
        A = [sum(a[i] * M[i][k] for i in range(n)) for k in range(n)]
        B = [sum(b[i] * M[i][k] for i in range(n)) for k in range(n)]
        want = _oracle_coords(M, Minv, _fr_mul_mod(A, B, f))
        assert _alg_mul(K._mult, a, b) == want
