"""Lattice kernels: integral LLL and nearest plane, checked exactly, and
the fraction-free adjugate against the Fraction inverse.

The checker recomputes Gram-Schmidt in Fraction and tests the LLL
conditions with delta = 3/4; sympy's DomainMatrix.lll output on the same
random bases must pass it too, which validates the checker itself.
"""

import random
from fractions import Fraction

import pytest

from nftrace._linalg import (
    frac_matrix_inverse,
    hnf_rows,
    int_adjugate,
    int_det,
    lattice_coords,
    lll_reduce,
    nearest_plane,
)


def _gram_schmidt(rows):
    """(b*_i, mu) over Fraction."""
    star, mu = [], [[Fraction(0)] * len(rows) for _ in rows]
    for i, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(b, star[j])) / sum(y * y for y in star[j])
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
    return star, mu


def _assert_lll_reduced(rows):
    star, mu = _gram_schmidt(rows)
    norms = [sum(x * x for x in s) for s in star]
    for i in range(len(rows)):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2), ("size reduction", i, j)
    for k in range(1, len(rows)):
        assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1], ("Lovasz", k)
    return norms


def _random_bases(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 12)
        scale = 10 ** rng.randint(1, 9)
        rows = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]
        if int_det(rows):
            out.append(rows)
    return out


def _knapsack_bases(seed, count):
    """The shape the split-prime root count reduces: m*e_1 and e_j - s_j*e_1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        m = rng.randrange(2, 10**40)
        rows = [[m] + [0] * (n - 1)]
        rows += [[-rng.randrange(m)] + [int(t == j) for t in range(1, n)] for j in range(1, n)]
        out.append(rows)
    return out


RANDOM_BASES = _random_bases(11, 30)
BASES = RANDOM_BASES + _knapsack_bases(12, 15)


@pytest.mark.parametrize("rows", BASES, ids=lambda r: f"dim{len(r)}")
def test_lll_reduced_same_lattice_and_gram_determinants(rows):
    reduced, d = lll_reduce(rows)
    norms = _assert_lll_reduced(reduced)
    assert hnf_rows(reduced) == hnf_rows(rows)
    assert d[0] == 1
    assert [Fraction(d[i + 1], d[i]) for i in range(len(rows))] == norms
    assert d[-1] == int_det(rows) ** 2


def test_sympy_lll_passes_the_same_checker():
    # random bases only: on every knapsack basis above, sympy 1.14 trips its
    # own size-reduction assertion at the end of DomainMatrix.lll
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

    for rows in RANDOM_BASES:
        n = len(rows)
        M = DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, n), ZZ)
        theirs = [[int(x) for x in r] for r in M.lll(delta=QQ(3, 4)).to_list()]
        _assert_lll_reduced(theirs)
        assert hnf_rows(theirs) == hnf_rows(rows)


def test_checker_rejects_an_unreduced_basis():
    with pytest.raises(AssertionError):
        _assert_lll_reduced([[1, 0], [7, 1]])  # mu = 7
    with pytest.raises(AssertionError):
        _assert_lll_reduced([[10, 0], [0, 1]])  # Lovasz fails


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent"):
        lll_reduce([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def test_nearest_plane_residue_is_in_the_coset_and_the_box():
    rng = random.Random(13)
    for rows in BASES:
        reduced, d = lll_reduce(rows)
        residue = nearest_plane(reduced, d)
        H = hnf_rows(reduced)
        star, _ = _gram_schmidt(reduced)
        for _ in range(3):
            t = [rng.randint(-(10**30), 10**30) for _ in rows]
            e = residue(t)
            assert lattice_coords(H, [a - b for a, b in zip(t, e)]) is not None
            for s in star:
                c = sum(x * y for x, y in zip(e, s)) / sum(y * y for y in s)
                assert -Fraction(1, 2) <= c < Fraction(1, 2)


def test_nearest_plane_returns_a_short_coset_member():
    # a coset point shorter than half of every |b*_i| is the residue itself
    rng = random.Random(14)
    checked = 0
    for rows in _knapsack_bases(15, 10):
        reduced, d = lll_reduce(rows)
        min_norm = min(Fraction(d[i + 1], d[i]) for i in range(len(rows)))
        residue = nearest_plane(reduced, d)
        for _ in range(3):
            short = [rng.randint(-3, 3) for _ in rows]
            if 4 * sum(x * x for x in short) >= min_norm:
                continue
            w = [rng.randint(-5, 5) for _ in rows]
            far = [x + sum(c * r[t] for c, r in zip(w, reduced)) for t, x in enumerate(short)]
            assert residue(far) == short
            checked += 1
    assert checked >= 20


def _adjugate_cases(seed):
    """Seeded nonsingular integer matrices of dimension 1-12, sparse enough
    that leading pivots are often zero, with both signs of determinant."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 13):
        for _ in range(6):
            scale = 10 ** rng.randint(0, 8)
            while True:
                M = [[rng.randint(-scale, scale) if rng.random() < 0.6 else 0 for _ in range(n)]
                     for _ in range(n)]
                if int_det(M):
                    break
            out.append(M)
    out.append([[0, 1], [1, 0]])  # zero first pivot, det -1
    out.append([[0, 0, 2], [0, 3, 0], [5, 0, 0]])  # two swaps needed, det -30
    return out


def test_int_adjugate_is_det_times_the_inverse():
    cases = _adjugate_cases(21)
    assert any(M[0][0] == 0 for M in cases)
    assert any(int_det(M) < 0 for M in cases)
    for M in cases:
        d, adj = int_adjugate(M)
        assert d == int_det(M)
        inv = frac_matrix_inverse(M)
        assert adj == [[d * x for x in row] for row in inv]


def test_int_adjugate_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        int_adjugate([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(ValueError, match="singular"):
        int_adjugate([[0, 0], [0, 5]])
