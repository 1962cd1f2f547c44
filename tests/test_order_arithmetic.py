"""Integer order arithmetic against a Fraction oracle, and Round-2 against
its former self.

The Fraction oracle is the rational construction of the structure
constants: invert the basis matrix over Q, multiply basis vectors in
Q[x]/(f) and read the coordinates through the inverse.  The integer
`_mult_table` must return the same (C, minv) at every order Round-2 visits,
and `_alg_mul` must agree with the oracle's rational product.

The Round-2 reference is the procedure before the Newton start and the
discriminant stop: every prime starts from Z[theta] and is enlarged until
an enlargement finds nothing, with the right-to-left power ladder.  The
maximal order must come out the same, and disc(K) must equal that of sympy
`round_two` wherever sympy returns one.
"""

import collections
import math
import random
from fractions import Fraction

import pytest

from conftest import CORPUS
from test_bench_outputs import _is_irreducible, _workloads
from nftrace import numberfield
from nftrace._linalg import frac_matrix_inverse, hnf_rows
from nftrace.exact import InternalInvariantError, IntPoly, factor_integer, poly_discriminant
from nftrace.numberfield import (
    _alg_mul,
    _alg_pow,
    _canonical_basis,
    _enlarge_at_p,
    _frobenius_power_matrix,
    _maximal_order,
    _mult_table,
    _newton_start,
    new_field,
)


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


# ----------------------------------------------------------------------
# Round-2 against the reference: Z[theta] start, no discriminant stop
# ----------------------------------------------------------------------


def _old_alg_pow(mult, one, v, e):
    """v^e by right-to-left square-and-multiply, starting from `one`."""
    result, base = one, v
    while e:
        if e & 1:
            result = mult(result, base)
        base = mult(base, base)
        e >>= 1
    return result


def _old_frobenius_power_matrix(C, p, n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numberfield, "_alg_pow", _old_alg_pow)
        return _frobenius_power_matrix(C, p, n)


def _reference_maximal_order(f, disc_f_fac):
    """(den, rows, index) by enlarging Z[theta] at every p with p^2 | disc(f)
    until an enlargement finds nothing."""
    n = f.degree
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    parts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numberfield, "_alg_pow", _old_alg_pow)
        for p, e in disc_f_fac:
            if e < 2:
                continue
            den, rows = 1, identity
            while (nxt := _enlarge_at_p(f, den, rows, p)) is not None:
                den, rows = nxt
            if den > 1:
                parts.append((den, rows))
    if not parts:
        return 1, identity, 1
    L = math.lcm(*[d for d, _ in parts])
    stacked = [[L * a for a in r] for r in identity]
    for d, rows in parts:
        stacked += [[a * (L // d) for a in r] for r in rows]
    den, rows = _canonical_basis(L, hnf_rows(stacked))
    return den, rows, den**n // math.prod(rows[i][i] for i in range(n))


def _steep_draws(count=120):
    """Irreducible f with a_(n-k) = p^ceil(k*lam) * u at p in {2, 3, 5, 7}, so
    that the p-adic Newton polygon has least slope at least lam = r/s."""
    rng = random.Random(18)
    out = []
    while len(out) < count:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 6)
        s = rng.randint(1, n)
        r = rng.randint(1, 2 * s)
        coeffs = [1]
        for k in range(1, n + 1):
            u = rng.randint(-5, 5) or (1 if k == n else 0)
            coeffs.append(p ** (-(-k * r // s)) * u)
        f = IntPoly(coeffs[::-1])
        if _is_irreducible(f.coeffs):
            out.append((f"p{p}:{f}", f))
    return out


def _rescalings():
    return [
        (f"{name}@{c}", _rescaled(g, c))
        for name, g in CORPUS.items()
        if len(g) > 3
        for c in (2, 3, 4, 6, 8, 9, 12)
    ]


def _round2_inputs(group):
    if group == "corpus":
        return [(name, IntPoly(c)) for name, c in CORPUS.items()]
    if group == "rescalings":
        return _rescalings()
    if group == "cyclotomic":
        return [(f"phi{n}", _cyclotomic(n)) for n in range(3, 25)]
    if group == "random":
        from test_acceptance import _random_fields

        return [(str(K.defining_poly), K.defining_poly) for K in _random_fields()]
    return _steep_draws()


@pytest.mark.parametrize("group", ["corpus", "rescalings", "cyclotomic", "random", "steep"])
def test_maximal_order_equals_the_reference_round2(group):
    inputs = _round2_inputs(group)
    assert len(inputs) >= {"rescalings": 105, "random": 150, "steep": 100}.get(group, 17)
    for name, f in inputs:
        disc_f_fac = factor_integer(poly_discriminant(f))
        assert _maximal_order(f, disc_f_fac) == _reference_maximal_order(f, disc_f_fac), name


def test_field_discriminant_matches_sympy_round_two():
    # sympy 1.14 `round_two` raises ClosureFailure on some inputs (G7a, G7b
    # and the rescalings of the sextics and septics among them) and returns
    # a wrong discriminant on others: 1 for x^4 - 4x^3 + 6x^2 + x + 1, 0 for
    # L7, 46433 for S6a.  Every wrong value seen is caught by the necessary
    # condition that disc(f) / d_K is a nonzero square, so only values that
    # meet it are compared, and the three counts are pinned so that the
    # cross-check cannot shrink unnoticed.
    from sympy import Poly, Symbol
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.exceptions import ClosureFailure

    x = Symbol("x")
    inputs = [f for group in ("corpus", "rescalings", "cyclotomic", "random")
              for _, f in _round2_inputs(group)]
    inputs.append(IntPoly([3, 0, 0, 0, 0, 0, 1]))
    # sympy takes 0.1-0.5 s on each steep draw of degree >= 5
    inputs += [f for _, f in _steep_draws() if f.degree <= 3]
    refused = inconsistent = agreed = 0
    for f in inputs:
        try:
            _, disc = round_two(Poly(list(reversed(f.coeffs)), x))
        except ClosureFailure:
            refused += 1
            continue
        disc, disc_f = int(disc), poly_discriminant(f)
        if disc == 0 or disc_f % disc or math.isqrt(disc_f // disc) ** 2 != disc_f // disc:
            inconsistent += 1
            continue
        assert disc == new_field(f).disc, str(f)
        agreed += 1
    assert (len(inputs), refused, inconsistent, agreed) == (341, 45, 10, 286)


# ----------------------------------------------------------------------
# enlargement counts
# ----------------------------------------------------------------------


def _enlargements(f, monkeypatch):
    """Counter of _enlarge_at_p calls per prime while building the maximal order."""
    calls = collections.Counter()

    def counting(f, den, rows, p):
        calls[p] += 1
        return _enlarge_at_p(f, den, rows, p)

    monkeypatch.setattr(numberfield, "_enlarge_at_p", counting)
    _maximal_order(f, factor_integer(poly_discriminant(f)))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", [name for name, c in CORPUS.items() if len(c) > 3])
def test_rescaling_needs_the_enlargements_of_g_at_every_prime(name, monkeypatch):
    # theta / p^v_p(c) is a root of g up to a p-adic unit, and the Newton
    # start of c^n g(x/c) is the image of that of g
    g = IntPoly(CORPUS[name])
    want = _enlargements(g, monkeypatch)
    for c in (2, 3, 4, 6, 8, 9, 12):
        got = _enlargements(_rescaled(CORPUS[name], c), monkeypatch)
        assert +got == +want, (name, c)


def test_inspect_structured_table_takes_at_most_400_enlargements(monkeypatch):
    # the Z[theta] start with no discriminant stop took 1340
    from nftrace.cli import parse_polynomial

    ops, _ = _workloads().inspect_structured(1)
    assert len(ops) == 128
    total = 0
    for op in ops:
        total += sum(_enlargements(parse_polynomial(op["poly"]), monkeypatch).values())
    assert total <= 400


def test_x3_minus_4_starts_at_theta_squared_over_two(monkeypatch):
    f = IntPoly([-4, 0, 0, 1])  # slope 2/3 at 2
    assert _newton_start(f, 2) == (2, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert _newton_start(f, 3) == (1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # v_2(disc f) = 4 and the start has index 2, so one enlargement at 2
    # confirms that it is already 2-maximal
    assert _enlargements(f, monkeypatch) == {2: 1, 3: 1}
    K = new_field(f)
    assert (K.index, K.disc) == (2, -108)
    assert (K._den, K._rows) == (2, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])


# ----------------------------------------------------------------------
# the power ladder and the Frobenius matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_alg_pow_equals_repeated_alg_mul(name):
    K = new_field(IntPoly(CORPUS[name]))
    n, C = K.degree, K._mult
    one = [1] + [0] * (n - 1)
    rng = random.Random(name)
    big = 2**61 - 1
    for p in (2, 3, 7):

        def mult(u, v):
            return [c % p for c in _alg_mul(C, u, v)]

        for _ in range(3):
            v = [rng.randrange(p) for _ in range(n)]
            acc = one
            for e in range(41):
                assert _alg_pow(mult, one, v, e) == acc, (p, e)
                acc = mult(acc, v)
            assert _alg_pow(mult, one, v, big) == _old_alg_pow(mult, one, v, big)

    def mult_z(u, v):
        return _alg_mul(C, u, v)

    v = [rng.randint(-2, 2) for _ in range(n)]
    acc = one
    for e in range(41):
        assert _alg_pow(mult_z, one, v, e) == acc, e
        acc = mult_z(acc, v)
    # over Z the big exponent is only feasible on torsion: (-1)^e = -1
    minus_one = [-1] + [0] * (n - 1)
    assert _alg_pow(mult_z, one, minus_one, big) == minus_one


@pytest.mark.parametrize("name,order", [("gauss", 4), ("zeta8", 8)])
def test_alg_pow_of_a_root_of_unity_at_a_large_exponent(name, order):
    K = new_field(IntPoly(CORPUS[name]))
    n = K.degree
    theta = [0, 1] + [0] * (n - 2)  # both orders are Z[theta]

    def mult(u, v):
        return _alg_mul(K._mult, u, v)

    want = [1] + [0] * (n - 1)
    for _ in range((2**61 - 1) % order):
        want = mult(want, theta)
    assert _alg_pow(mult, None, theta, 2**61 - 1) == want


_FROBENIUS_POLYS = POLYS + [("x^6 + 3", IntPoly([3, 0, 0, 0, 0, 0, 1]))] + _steep_draws(30)


@pytest.mark.parametrize("name,f", _FROBENIUS_POLYS, ids=[name for name, _ in _FROBENIUS_POLYS])
def test_frobenius_power_matrix_unchanged_on_every_visited_order(name, f, monkeypatch):
    visited = []

    def recording(f, den, rows, p):
        visited.append((den, rows, p))
        return _enlarge_at_p(f, den, rows, p)

    monkeypatch.setattr(numberfield, "_enlarge_at_p", recording)
    new_field(f)
    for den, rows, p in visited:
        C, _ = _mult_table(f, den, rows)
        n = f.degree
        assert _frobenius_power_matrix(C, p, n) == _old_frobenius_power_matrix(C, p, n), (den, p)
