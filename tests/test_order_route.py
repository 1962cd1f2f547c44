"""The order route of split_prime against the route it replaced.

`local.split_by_idempotents` splits O_K/pO_K by its idempotents and reads e*f and f
off two ranks.  The route before it is kept here as the reference: it
projects onto the semisimple quotient O/J, splits that into fields along
eigenspaces of Frobenius-fixed elements, and takes each e as the largest
power of the prime ideal (an HNF lattice) that still contains pO_K.  Both
must give the same (e, f) pairs at every (f, p) with p^2 | disc(f) of the
Round-2 input groups and at every prime below 60 on CORPUS, the cyclotomic
and the random fields; two mutants of the new route must be caught there.

The reference solves its F_p systems with `solve_row_combo_mod_p`, kept
here as a test-only copy of the solver the package used before
`local.minimal_polynomial` read the polynomial off a kernel; the two
minimal polynomials must agree on seeded elements of O_K/pO_K.
"""

import functools
import inspect
import random
import textwrap

import pytest

from conftest import CORPUS
from test_acceptance import _random_fields
from test_order_arithmetic import _cyclotomic, _round2_inputs
from nftrace import local
from nftrace._linalg import hnf_rows, lattice_coords, nullspace_mod_p
from nftrace.exact import (
    InternalInvariantError,
    IntPoly,
    factor_integer,
    factor_poly_mod,
    poly_discriminant,
)
from nftrace.local import alg_mul, alg_pow, frobenius_matrix, minimal_polynomial
from nftrace.numberfield import new_field


def solve_row_combo_mod_p(rows, target, p):
    """x with sum x_i rows[i] = target over F_p, or None."""
    if not rows:
        return None if any(a % p for a in target) else []
    ncols = len(rows[0])
    aug = [[rows[i][j] % p for i in range(len(rows))] + [target[j] % p]
           for j in range(ncols)]
    nvars = len(rows)
    piv_of_col: dict[int, int] = {}
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [a * inv % p for a in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    for i in range(r, len(aug)):
        if aug[i][nvars]:
            return None
    x = [0] * nvars
    for c, i in piv_of_col.items():
        x[c] = aug[i][nvars]
    return x


def _reference_split_via_order(K, p):
    """(e, f) pairs from eigenspaces of Frobenius-fixed elements and HNF ideal powers."""
    n = K.degree
    C = K._mult
    rad = nullspace_mod_p(frobenius_matrix(C, p)[1], p)

    def mult_mod_p(u, v):
        return [c % p for c in alg_mul(C, u, v)]

    one = [1] + [0] * (n - 1)
    if rad:
        # complement of the radical: unit vectors completing J to a basis
        stacked = [list(v) for v in rad]
        comp = []
        for i in range(n):
            e_i = [1 if j == i else 0 for j in range(n)]
            if solve_row_combo_mod_p(stacked, e_i, p) is None:
                stacked.append(e_i)
                comp.append(e_i)
        basis_change = stacked  # rows: radical basis then complement

        def project(v):
            coef = solve_row_combo_mod_p(basis_change, v, p)
            if coef is None:
                raise InternalInvariantError("projection to semisimple quotient failed")
            out = [0] * n
            for c, w in zip(coef[len(rad):], comp):
                if c:
                    for t in range(n):
                        out[t] = (out[t] + c * w[t]) % p
            return out

        def mult(u, v):
            return project(mult_mod_p(u, v))

        basis = comp
        unit = project(one)
    else:
        mult = mult_mod_p
        basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        unit = one

    factors = _split_unital(mult, unit, basis, p)
    if sum(len(b) for b, _ in factors) + len(rad) != n:
        raise InternalInvariantError("semisimple factor dimensions do not add up")
    pairs = []
    for i, (fac_basis, _) in enumerate(factors):
        others = [v for j, (b, _) in enumerate(factors) if j != i for v in b]
        span = [list(v) for v in rad] + [list(v) for v in others]
        ideal_rows = [[p if c == r else 0 for c in range(n)] for r in range(n)]
        ideal_rows += [[a % p for a in v] for v in span]
        P = hnf_rows(ideal_rows)
        if len(P) != n:
            raise InternalInvariantError("prime ideal lattice lost rank")
        e = _valuation_of_p(K, P, p)
        pairs.append((e, len(fac_basis)))
    return pairs


def _split_unital(mult, one, basis, p):
    """Simple factors of a commutative semisimple unital F_p-algebra.

    `basis` spans the algebra inside the ambient coordinate space, `one`
    is its identity, `mult` multiplies ambient vectors within it.
    Returns a list of (factor basis, factor identity).
    """
    m = len(basis)

    # Frobenius in basis coordinates; fixed-space dimension = factor count
    cols = []
    for b in basis:
        img = alg_pow(mult, one, b, p)
        x = solve_row_combo_mod_p(basis, img, p)
        if x is None:
            raise InternalInvariantError("Frobenius left the algebra")
        cols.append(x)
    frob_minus_id = [
        [(cols[c][r] - (1 if r == c else 0)) % p for c in range(m)] for r in range(m)
    ]
    fixed = nullspace_mod_p(frob_minus_id, p)
    if len(fixed) == 1:
        return [(basis, one)]

    # a fixed element with minimal polynomial of degree >= 2 splits the algebra
    for y in fixed:
        alpha = [0] * len(one)
        for c, b in zip(y, basis):
            if c:
                for t in range(len(alpha)):
                    alpha[t] = (alpha[t] + c * b[t]) % p
        mp = _minimal_polynomial(mult, one, basis, alpha, p)
        if len(mp) - 1 >= 2:
            break
    else:
        raise InternalInvariantError("no splitting element in Frobenius-fixed space")

    roots = []
    for g, e in factor_poly_mod(IntPoly(mp), p):
        if g.degree != 1 or e != 1:
            raise InternalInvariantError("fixed element has non-split minimal polynomial")
        roots.append((-g[0]) % p)

    out = []
    for c in roots:
        # kernel of (alpha - c) on the algebra, in basis coordinates
        ker_rows = []
        images = []
        for b in basis:
            img = mult(alpha, b)
            img = [(a - c * bb) % p for a, bb in zip(img, b)]
            images.append(solve_row_combo_mod_p(basis, img, p))
        mat = [[images[j][r] for j in range(m)] for r in range(m)]
        ker = nullspace_mod_p(mat, p)
        sub_basis = []
        for y in ker:
            v = [0] * len(one)
            for cc, b in zip(y, basis):
                if cc:
                    for t in range(len(v)):
                        v[t] = (v[t] + cc * b[t]) % p
            sub_basis.append(v)
        # identity of the factor: Lagrange idempotent of alpha at c
        eps = one
        denom = 1
        for c2 in roots:
            if c2 != c:
                term = mult(alpha, one)
                term = [(a - c2 * b) % p for a, b in zip(term, one)]
                eps = mult(eps, term)
                denom = denom * (c - c2) % p
        eps = [a * pow(denom, p - 2, p) % p for a in eps]
        out.extend(_split_unital(mult, eps, sub_basis, p))
    return out


def _minimal_polynomial(mult, one, basis, alpha, p):
    """Monic minimal polynomial coefficients (ascending) of alpha."""
    powers = [one]
    rows = [one]
    while True:
        nxt = mult(powers[-1], alpha)
        combo = solve_row_combo_mod_p(rows, nxt, p)
        if combo is not None:
            return [(-c) % p for c in combo] + [1]
        powers.append(nxt)
        rows.append(nxt)
        if len(powers) > len(basis) + 1:
            raise InternalInvariantError("minimal polynomial exceeded algebra dimension")


def _valuation_of_p(K, P_hnf, p):
    """e = v_P(p O_K) as the largest e with p O_K inside P^e."""
    n = K.degree
    C = K._mult
    p_gens = [[p if c == r else 0 for c in range(n)] for r in range(n)]

    def contains_pO(lattice):
        return all(lattice_coords(lattice, v) is not None for v in p_gens)

    if not contains_pO(P_hnf):
        raise InternalInvariantError("prime ideal does not contain pO_K")
    base = [list(r) for r in P_hnf]
    power = base
    e = 1
    while e <= n:
        prods = [alg_mul(C, a, b) for a in power for b in base]
        nxt = hnf_rows(prods)
        if len(nxt) == n and contains_pO(nxt):
            power = nxt
            e += 1
        else:
            break
    return e


# ----------------------------------------------------------------------
# the two routes on the Round-2 inputs and at the small primes
# ----------------------------------------------------------------------


def _sorted(pairs):
    return sorted(pairs, key=lambda t: (t[1], t[0]))


@functools.cache
def _field(coeffs):
    return new_field(IntPoly(coeffs))


@functools.cache
def _reference(coeffs, p):
    return _sorted(_reference_split_via_order(_field(coeffs), p))


def _index_prime_cases(group):
    """(name, coeffs, p) at every p with p^2 | disc(f)."""
    return [
        (name, f.coeffs, p)
        for name, f in _round2_inputs(group)
        for p, e in factor_integer(poly_discriminant(f))
        if e >= 2
    ]


_SMALL_PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


def _small_prime_cases(group):
    if group == "corpus":
        polys = [IntPoly(c) for c in CORPUS.values()]
    elif group == "cyclotomic":
        polys = [_cyclotomic(n) for n in range(3, 25)]
    else:
        polys = [K.defining_poly for K in _random_fields()]
    return [(str(f), f.coeffs, p) for f in polys for p in _SMALL_PRIMES]


def _disagreements(route, cases):
    bad = []
    for name, coeffs, p in cases:
        try:
            pairs = _sorted(route(_field(coeffs)._mult, p))
        except InternalInvariantError as exc:
            pairs = exc
        if pairs != _reference(coeffs, p):
            bad.append((name, p, pairs))
    return bad


# cases per Round-2 input group: the regular plus the irregular pairs of
# test_ore._COUNTS, 714 in all
_INDEX_CASES = {"corpus": 38, "rescalings": 360, "cyclotomic": 25, "random": 112, "steep": 179}


@pytest.mark.parametrize("group", list(_INDEX_CASES))
def test_order_route_equals_the_reference_where_p_squared_divides_disc_f(group):
    cases = _index_prime_cases(group)
    assert len(cases) == _INDEX_CASES[group]
    assert _disagreements(local.split_by_idempotents, cases) == []


@pytest.mark.parametrize("group", ["corpus", "cyclotomic", "random"])
def test_order_route_equals_the_reference_below_60(group):
    assert _disagreements(local.split_by_idempotents, _small_prime_cases(group)) == []


def _mutant(old, new):
    """split_by_idempotents with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(local.split_by_idempotents))
    assert source.count(old) == 1, old
    namespace = dict(vars(local))
    exec(compile(source.replace(old, new), local.__file__, "exec"), namespace)
    return namespace["split_by_idempotents"]


_MUTANTS = {
    "an idempotent dropped": ("for eps in idempotents:", "for eps in idempotents[1:]:"),
    "e and f read from swapped ranks": (
        "ef = n - len(nullspace_mod_p([mult(eps, b) for b in basis], p))\n"
        "        f = n - len(nullspace_mod_p([mult(eps, v) for v in residue], p))",
        "f = n - len(nullspace_mod_p([mult(eps, b) for b in basis], p))\n"
        "        ef = n - len(nullspace_mod_p([mult(eps, v) for v in residue], p))",
    ),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_mutants_of_the_order_route_are_caught(mutant):
    route = _mutant(*_MUTANTS[mutant])
    assert _disagreements(route, _index_prime_cases("corpus") + _small_prime_cases("corpus"))


# ----------------------------------------------------------------------
# the minimal polynomial against the solve_row_combo_mod_p version
# ----------------------------------------------------------------------


def _old_minimal_polynomial(mult, one, alpha, p):
    """Monic minimal polynomial coefficients (ascending) of alpha."""
    powers = [one]
    while len(powers) <= len(one):
        nxt = mult(powers[-1], alpha)
        combo = solve_row_combo_mod_p(powers, nxt, p)
        if combo is not None:
            return [(-c) % p for c in combo] + [1]
        powers.append(nxt)
    raise InternalInvariantError("minimal polynomial exceeded algebra dimension")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_minimal_polynomial_equals_the_row_combo_version(p):
    rng = random.Random(p)
    for name, coeffs in CORPUS.items():
        K = _field(tuple(coeffs))
        n = K.degree
        one = [1] + [0] * (n - 1)

        def mult(u, v):
            return [c % p for c in alg_mul(K._mult, u, v)]

        elements = [[0] * n, one] + [[rng.randrange(p) for _ in range(n)] for _ in range(6)]
        for alpha in elements:
            mp = minimal_polynomial(mult, one, alpha, p)
            assert mp == _old_minimal_polynomial(mult, one, alpha, p), (name, alpha)
            assert mp[-1] == 1, (name, alpha)
            value = [0] * n
            for c in reversed(mp):
                value = mult(value, alpha)
                value[0] = (value[0] + c) % p
            assert not any(value), (name, alpha)
