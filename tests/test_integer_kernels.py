"""The integer kernels against the Fraction versions they replaced.

`diagonalize_rational`, `jordan_form_odd`, `poly_gcd`, the Sturm chain and
`IntPoly.divmod_exact` eliminate and divide over Z (or Z/p^K); the
references below are the earlier elimination and Euclid over Q, kept here
as oracles.  Every case must give the same value or raise the same
exception type.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from conftest import CORPUS, field
from nftrace.exact import (
    InternalInvariantError,
    IntPoly,
    _sturm_chain,
    count_real_roots,
    is_prime,
    legendre,
    poly_gcd,
)
from nftrace.numberfield import trace_gram
from nftrace.quadform import (
    NONSQUARE,
    SQUARE,
    DiagonalForm,
    JordanForm,
    diagonalize_rational,
    jordan_form_odd,
    trace_jordan,
)

ODD_PRIMES = [p for p in range(3, 50) if is_prime(p)]
X = sympy.Symbol("x")

# ----------------------------------------------------------------------
# Fraction oracles
# ----------------------------------------------------------------------


def _frac_matrix(G):
    M = [[Fraction(a) for a in row] for row in G]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("matrix is not square")
    if any(M[i][j] != M[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix is not symmetric")
    return M


def _swap(M, i, j):
    M[i], M[j] = M[j], M[i]
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add(M, i, j):
    for c in range(len(M)):
        M[i][c] += M[j][c]
    for r in range(len(M)):
        M[r][i] += M[r][j]


def _eliminate(M, k):
    piv = M[k][k]
    for i in range(k + 1, len(M)):
        if M[i][k]:
            c = M[i][k] / piv
            for j in range(len(M)):
                M[i][j] -= c * M[k][j]
            for j in range(len(M)):
                M[j][i] -= c * M[j][k]


def diagonalize_oracle(G) -> DiagonalForm:
    M = _frac_matrix(G)
    n = len(M)
    for k in range(n):
        if not M[k][k]:
            l = next((l for l in range(k + 1, n) if M[l][l]), None)
            if l is not None:
                _swap(M, k, l)
            else:
                l = next((l for l in range(k + 1, n) if M[k][l]), None)
                if l is None:
                    raise ValueError("matrix is singular")
                _add(M, k, l)
        _eliminate(M, k)
    return DiagonalForm(tuple(M[i][i] for i in range(n)))


def _vp(x: Fraction, p: int) -> int:
    v, a, b = 0, x.numerator, x.denominator
    while a % p == 0:
        a, v = a // p, v + 1
    while b % p == 0:
        b, v = b // p, v - 1
    return v


def _unit_part(x: Fraction, p: int) -> int:
    a, b = x.numerator, x.denominator
    while a % p == 0:
        a //= p
    while b % p == 0:
        b //= p
    return a * b


def jordan_oracle(G, p: int) -> JordanForm:
    if p == 2:
        raise ValueError("dyadic Jordan decomposition is not supported")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    M = _frac_matrix(G)
    n = len(M)
    for k in range(n):
        keys = [
            (_vp(M[i][j], p), i != j, i, j)
            for i in range(k, n)
            for j in range(i, n)
            if M[i][j]
        ]
        if not keys:
            raise ValueError("matrix is singular")
        _, offdiag, i, j = min(keys)
        if offdiag:
            _add(M, i, j)
        if i != k:
            _swap(M, k, i)
        _eliminate(M, k)
    blocks: dict[int, list[Fraction]] = {}
    for i in range(n):
        blocks.setdefault(_vp(M[i][i], p), []).append(M[i][i])
    if any(v < 0 for v in blocks):
        raise InternalInvariantError("negative valuation in integral Jordan form")
    classes = {}
    for v, ds in blocks.items():
        u = 1
        for d in ds:
            u *= _unit_part(d, p)
        classes[v] = SQUARE if legendre(u, p) == 1 else NONSQUARE
    higher = tuple((v, len(blocks[v]), classes[v]) for v in sorted(blocks) if v >= 2)
    return JordanForm(
        p,
        len(blocks.get(0, [])),
        classes.get(0, SQUARE),
        len(blocks.get(1, [])),
        classes.get(1, SQUARE),
        higher,
    )


def _frac_divmod(a, b):
    b = [Fraction(c) for c in b]
    a = [Fraction(c) for c in a]
    while a and not a[-1]:
        a.pop()
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            a[d + i] -= c * bc
        while a and not a[-1]:
            a.pop()
    return q, a


def _to_int_poly(c):
    den = math.lcm(*(x.denominator for x in c))
    return IntPoly([int(x * den) for x in c])


def divmod_exact_oracle(f: IntPoly, g: IntPoly):
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = _frac_divmod(f.coeffs, g.coeffs)
    if any(r) or any(c.denominator != 1 for c in q):
        return None
    return IntPoly([int(c) for c in q])


def poly_gcd_oracle(f: IntPoly, g: IntPoly) -> IntPoly:
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    if not a:
        return IntPoly([])
    out = _to_int_poly([Fraction(c) for c in a]).primitive()
    return out if out.lc > 0 else -out


def sturm_chain_oracle(f: IntPoly) -> list[list[int]]:
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        _, r = _frac_divmod(chain[-2].coeffs, chain[-1].coeffs)
        if not r:
            break
        rem = _to_int_poly([-c for c in r])
        g = abs(rem.content())
        chain.append(IntPoly([c // g for c in rem.coeffs]))
    return [list(g.coeffs) for g in chain]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InternalInvariantError) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# trace forms of fields
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_fields():
    """CORPUS, the 150 random fields and the 105 smooth rescalings."""
    from test_acceptance import _random_fields
    from test_quadform import _rescaled_corpus

    return tuple([field(name) for name in CORPUS] + _random_fields() + _rescaled_corpus())


def test_oracle_fields_cover_the_stated_families():
    assert len(_all_fields()) == len(CORPUS) + 150 + 105


def test_trace_form_kernels_match_fraction_oracles():
    for K in _all_fields():
        G = trace_gram(K)
        name = str(K.defining_poly)
        assert diagonalize_rational(G) == diagonalize_oracle(G.entries), name
        for p in ODD_PRIMES:
            want = jordan_oracle(G.entries, p)
            assert jordan_form_odd(G, p) == want, (name, p)
            assert trace_jordan(K, p) == want, (name, p)


def test_defining_polynomial_kernels_match_fraction_oracles():
    for K in _all_fields():
        f = K.defining_poly
        df = f.derivative()
        assert poly_gcd(f, df) == poly_gcd_oracle(f, df) == IntPoly([1]), str(f)
        assert _sturm_chain(f) == sturm_chain_oracle(f), str(f)
        assert count_real_roots(f) == K.signature[0], str(f)


# ----------------------------------------------------------------------
# seeded symmetric matrices
# ----------------------------------------------------------------------

_JORDAN_PRIMES = (3, 5, 7, 11, 13)


def _random_symmetric(rng):
    n = rng.randint(1, 6)
    kind = rng.random()
    zero_rate = rng.choice((0.0, 0.3, 0.6))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= zero_rate:
                M[i][j] = M[j][i] = rng.randint(-12, 12)
    if kind < 0.15 and n >= 2:
        # hyperbolic-style zero diagonal: every pivot repair is an add
        for i in range(n):
            M[i][i] = 0
    elif kind < 0.3 and n >= 2:
        # singular: one row (and column) a combination of two others
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        i, j = rng.sample(range(n), 2) if n >= 3 else (0, 0)
        t = rng.randrange(n)
        if t not in (i, j):
            row = [a * x + b * y for x, y in zip(M[i], M[j])]
            for c in range(n):
                M[t][c] = row[c]
            for c in range(n):
                M[c][t] = M[t][c]
            M[t][t] = a * a * M[i][i] + 2 * a * b * M[i][j] + b * b * M[j][j]
    elif kind < 0.45:
        # p-power scaled entries: deep Jordan blocks
        p = rng.choice(_JORDAN_PRIMES)
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = M[i][j] * p ** rng.randint(0, 3)
    elif kind < 0.65:
        # rational entries
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = Fraction(M[i][j], rng.choice((1, 1, 2, 3, 4, 5, 7, 9)))
    return M


def _p_integral(M, p):
    return all(Fraction(a).denominator % p for row in M for a in row)


def test_symmetric_matrix_kernels_match_fraction_oracles():
    rng = random.Random(19)
    counts = {"singular": 0, "rational": 0, "refused": 0, "zero_pivot": 0}
    for _ in range(2400):
        M = _random_symmetric(rng)
        want = _outcome(diagonalize_oracle, M)
        assert _outcome(diagonalize_rational, M) == want, M
        counts["singular"] += want is ValueError
        counts["zero_pivot"] += not M[0][0]
        rational = any(type(a) is Fraction for row in M for a in row)
        counts["rational"] += rational
        for p in _JORDAN_PRIMES:
            got = _outcome(jordan_form_odd, M, p)
            if _p_integral(M, p):
                assert got == _outcome(jordan_oracle, M, p), (M, p)
            else:
                assert got is ValueError, (M, p)
                counts["refused"] += 1
    assert min(counts.values()) >= 100, counts


def test_jordan_refuses_a_form_that_is_not_p_integral():
    G = [[Fraction(1, 3), 0], [0, 1]]
    with pytest.raises(ValueError, match="not 3-integral"):
        jordan_form_odd(G, 3)
    # the Fraction elimination only found out after the whole run
    with pytest.raises(InternalInvariantError):
        jordan_oracle(G, 3)
    # a denominator prime to p is fine: 1/5 = 5 * (1/5)^2 has the class of 5
    J = jordan_form_odd([[Fraction(1, 5), 0], [0, 1]], 3)
    assert J == jordan_oracle([[5, 0], [0, 1]], 3)
    assert J.unimodular_class == NONSQUARE


# ----------------------------------------------------------------------
# seeded polynomials
# ----------------------------------------------------------------------


def _rand_poly(rng, deg, height=9):
    return IntPoly([rng.randint(-height, height) for _ in range(deg + 1)])


def _sympy_primitive_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    h = sympy.Poly(sympy.gcd(_expr(f), _expr(g)), X)
    out = IntPoly([int(c) for c in reversed(h.all_coeffs())]).primitive()
    return out if out.lc >= 0 else -out


def _expr(f: IntPoly):
    return sum(c * X**i for i, c in enumerate(f.coeffs))


def test_poly_gcd_matches_sympy_and_oracle():
    rng = random.Random(1967)
    for _ in range(300):
        h = _rand_poly(rng, rng.randint(0, 3), 5)
        f = h * _rand_poly(rng, rng.randint(0, 4))
        g = h * _rand_poly(rng, rng.randint(0, 4))
        if rng.random() < 0.1:
            g = IntPoly([])
        got = poly_gcd(f, g)
        assert got == poly_gcd_oracle(f, g), (f, g)
        if not (f.is_zero and g.is_zero):
            assert got == _sympy_primitive_gcd(f, g), (f, g)


def test_sturm_chain_matches_oracle_and_sympy_root_count():
    rng = random.Random(1829)
    squarefree = repeated = 0
    while squarefree < 300 or repeated < 50:
        f = _rand_poly(rng, rng.randint(1, 8), rng.choice((3, 20, 1000)))
        if rng.random() < 0.2:
            h = _rand_poly(rng, rng.randint(1, 2), 3)
            f = f * h * h
        if f.degree < 1:
            continue
        assert _sturm_chain(f) == sturm_chain_oracle(f), f
        if poly_gcd(f, f.derivative()).degree > 0:
            # the chain ends at gcd(f, f'), which is not constant
            with pytest.raises(ValueError, match="squarefree"):
                count_real_roots(f)
            repeated += 1
        else:
            assert count_real_roots(f) == sympy.Poly(_expr(f), X).count_roots(), f
            squarefree += 1


def test_divmod_exact_matches_fraction_oracle():
    rng = random.Random(4)
    for _ in range(600):
        g = _rand_poly(rng, rng.randint(0, 4))
        if g.is_zero:
            g = IntPoly([rng.choice((-3, -1, 1, 2))])
        q = _rand_poly(rng, rng.randint(0, 4))
        f = q * g
        kind = rng.random()
        if kind < 0.3:
            f = f + _rand_poly(rng, rng.randint(0, max(g.degree - 1, 0)), 2)
        elif kind < 0.5:
            f = _rand_poly(rng, rng.randint(0, 8))
        assert f.divmod_exact(g) == divmod_exact_oracle(f, g), (f, g)
    with pytest.raises(ZeroDivisionError):
        IntPoly([1, 1]).divmod_exact(IntPoly([]))
    assert IntPoly([]).divmod_exact(IntPoly([0, 2])) == IntPoly([])
    # the quotient would need x/2: refused at the first leading coefficient
    assert IntPoly([0, 1]).divmod_exact(IntPoly([1, 2])) is None
