"""Ore's theorem (local.ore) against Round-2, the order route and Dedekind.

At every (f, p) with p^2 | disc(f), over CORPUS, its rescalings, the
cyclotomic polynomials, the random fields and the steep Newton-polygon
draws: where f is p-regular, Ore's index exponent must equal v_p of the
index of the reference Round-2 (Z[theta] start, enlarged until nothing is
found) and Ore's (e, f) pairs must equal those of the order route; where it
is not, Ore's exponent must not exceed the reference.  Mutants of the
lattice count and of the residual polynomials must be caught by the same
comparison.  Dedekind's criterion, which no longer runs in the library, is
kept here as an oracle: it holds exactly when f is regular with index
exponent 0.
"""

import functools
import itertools
import random
import re

import pytest

from conftest import CORPUS
from test_bench_outputs import _workloads
from test_order_arithmetic import _reference_maximal_order, _round2_inputs
from nftrace import local
from nftrace.exact import (
    InternalInvariantError,
    IntPoly,
    factor_integer,
    factor_poly_mod,
    gf_add,
    gf_from_intpoly,
    gf_gcd,
    gf_monic,
    gf_mul,
    gf_rem,
    gf_trim,
    poly_discriminant,
)
from nftrace import numberfield, splitting
from nftrace.local import _factor_degrees, _fq_distinct_degree, _fq_gcd, _fq_mul, _valuation, ore
from nftrace.numberfield import new_field
from nftrace.splitting import _split_via_order, split_prime


def dedekind_p_maximal(f: IntPoly, p: int) -> bool:
    """Dedekind's criterion: is Z[theta] already p-maximal?"""
    fb = gf_monic(gf_from_intpoly(f, p), p)
    fac = factor_poly_mod(f, p)
    gstar = [1]
    hstar = [1]
    for g, e in fac:
        gstar = gf_mul(gstar, list(g.coeffs), p)
        for _ in range(e - 1):
            hstar = gf_mul(hstar, list(g.coeffs), p)
    # lift monic and form (g*h - f)/p over Z
    g_lift = [c % p for c in gstar]
    h_lift = [c % p for c in hstar]
    gl = IntPoly(g_lift[:-1] + [1]) if len(g_lift) > 1 else IntPoly([1])
    hl = IntPoly(h_lift[:-1] + [1]) if len(h_lift) > 1 else IntPoly([1])
    diff = gl * hl - f
    if any(c % p for c in diff.coeffs):
        raise InternalInvariantError(f"Dedekind lift is not f mod p at p={p}")
    T = [c // p for c in diff.coeffs]
    Tb = gf_rem([c % p for c in T], fb, p) if T else []
    u = gf_gcd(gf_gcd(Tb if Tb else [0], gstar, p), hstar, p)
    return len(u) <= 1


# ----------------------------------------------------------------------
# Ore against the references
# ----------------------------------------------------------------------


@functools.cache
def _reference(coeffs):
    """[(p, v_p(reference index), K)] at every p with p^2 | disc(f)."""
    f = IntPoly(coeffs)
    fac = factor_integer(poly_discriminant(f))
    index = _reference_maximal_order(f, fac)[2]
    K = new_field(f)
    return [(p, _valuation(index, p), K) for p, e in fac if e >= 2]


@functools.cache
def _order_route(K, p):
    return sorted(_split_via_order(K, p), key=lambda t: (t[1], t[0]))


def _check(inputs):
    """((regular, irregular) pair counts, disagreements) of ore on inputs."""
    regular = irregular = 0
    bad = []
    for name, f in inputs:
        for p, ref_exp, K in _reference(f.coeffs):
            is_regular, exp, pairs = ore(f, p)
            if is_regular:
                regular += 1
                if exp != ref_exp or list(pairs) != _order_route(K, p):
                    bad.append((name, p, "regular", exp, ref_exp, pairs))
            else:
                irregular += 1
                if pairs is not None or exp > ref_exp:
                    bad.append((name, p, "irregular", exp, ref_exp))
            if (is_regular and exp == 0) != dedekind_p_maximal(f, p):
                bad.append((name, p, "dedekind", exp))
    return (regular, irregular), bad


# (regular pairs, irregular pairs, sides with deg phi > 1 whose residual
# polynomial has degree >= 2) per input group
_COUNTS = {
    "corpus": (35, 3, 0),
    "rescalings": (329, 31, 0),
    "cyclotomic": (25, 0, 0),
    "random": (100, 12, 1),
    "steep": (158, 21, 1),
}


@pytest.mark.parametrize("group", list(_COUNTS))
def test_ore_equals_round2_and_the_order_route(group, monkeypatch):
    inputs = _round2_inputs(group)
    for _, f in inputs:
        _reference(f.coeffs)  # builds each field, which runs ore once more
    fq_sides = []
    original = local._factor_degrees

    def counting(r, phi, p):
        if len(phi) > 2 and len(r) > 2:
            fq_sides.append((r, phi, p))
        return original(r, phi, p)

    monkeypatch.setattr(local, "_factor_degrees", counting)
    counts, bad = _check(inputs)
    assert bad == []
    assert (*counts, len(fq_sides)) == _COUNTS[group]


_MUTATION_INPUTS = _round2_inputs("corpus") + _round2_inputs("rescalings")


def _mutant_residual(mutate):
    original = local._residual

    def mutant(a, v, side, p):
        e_s, res = original(a, v, side, p)
        return mutate(e_s, res)

    return mutant


_MUTANTS = {
    "one lattice point too many": (
        "_lattice_points",
        lambda start, end: _ORIGINAL_LATTICE(start, end) + (start[0] == 0),
    ),
    "one lattice point too few": (
        "_lattice_points",
        lambda start, end: max(_ORIGINAL_LATTICE(start, end) - 1, 0),
    ),
    "a dropped residual coefficient": (
        "_residual",
        # a point on the side read as one above it
        _mutant_residual(lambda e_s, res: (e_s, res[:1] + [[]] + res[2:] if len(res) > 2 else res)),
    ),
    "a side of degree 1": (
        "_residual",
        _mutant_residual(lambda e_s, res: (e_s * (len(res) - 1), [res[0], res[-1]])),
    ),
}
_ORIGINAL_LATTICE = local._lattice_points


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_mutants_of_the_polygon_are_caught(mutant, monkeypatch):
    name, replacement = _MUTANTS[mutant]
    monkeypatch.setattr(local, name, replacement)
    _, bad = _check(_MUTATION_INPUTS)
    assert bad, mutant


def test_x3_minus_4_has_ore_index_one_at_2():
    # one side (0, 2) -> (3, 0): slope -2/3, degree 1, lattice points
    # (1, 1) only; at 3, f = (x-1)^3 + 3(x-1)^2 + 3(x-1) - 3
    f = IntPoly([-4, 0, 0, 1])
    assert ore(f, 2) == (True, 1, ((3, 1),))
    assert ore(f, 3) == (True, 0, ((3, 1),))


def test_irregular_pair_gives_a_lower_bound_only():
    # x^2 + 4 = x^2 mod 2 with the side (0, 2) -> (2, 0) of degree 2 and
    # residual polynomial y^2 + 1 = (y + 1)^2 over F_2: not regular
    f = IntPoly([4, 0, 1])
    assert ore(f, 2) == (False, 1, None)
    # the index of Z[2i] in Z[i] is 2, so Ore's bound is attained here
    assert new_field(f).index == 2


@pytest.mark.parametrize(
    "lie",
    [lambda r, e, pairs: (r, e + 1, pairs), lambda r, e, pairs: (False, e + 1, None)],
    ids=["regular", "irregular"],
)
def test_round2_raises_when_ore_disagrees(lie, monkeypatch):
    # K4 has index 8 and is regular at 2 with Ore's exponent 3: one more is
    # past Round-2 at a regular pair and above it at an irregular one
    real = numberfield.ore
    monkeypatch.setattr(numberfield, "ore", lambda f, p: lie(*real(f, p)) if p == 2 else real(f, p))
    f = IntPoly(CORPUS["K4"])
    with pytest.raises(InternalInvariantError, match=re.escape(f"f = {f} at p = 2")):
        new_field(f)


def test_split_prime_reads_ore_pairs_wherever_f_is_regular(monkeypatch):
    # at a regular pair split_prime neither factors f mod p again nor splits
    # O_K/pO_K; the irregular pairs are index primes and take the order route
    calls, factored = [], []
    monkeypatch.setattr(
        splitting, "_split_via_order", lambda K, p: calls.append(p) or _split_via_order(K, p)
    )
    monkeypatch.setattr(
        splitting, "factor_poly_mod", lambda f, p: factored.append(p) or factor_poly_mod(f, p)
    )
    irregular = 0
    for name, coeffs in CORPUS.items():
        K = new_field(IntPoly(coeffs))
        for p, e in factor_integer(poly_discriminant(K.defining_poly)):
            if e < 2:
                continue
            regular = ore(K.defining_poly, p)[0]
            irregular += not regular
            before = len(calls), len(factored)
            pairs = split_prime(K, p).pairs
            assert len(calls) - before[0] == (not regular), (name, p)
            assert regular or K.index % p == 0, (name, p)
            if regular:
                assert len(factored) == before[1], (name, p)
            assert list(pairs) == _order_route(K, p), (name, p)
    assert irregular == 3


def test_inspect_structured_table_takes_at_most_13_order_route_splits(monkeypatch):
    # 24 before Ore's pairs were read at the regular index primes
    from nftrace.cli import inspect_field, parse_polynomial

    calls = []
    monkeypatch.setattr(
        splitting, "_split_via_order", lambda K, p: calls.append(p) or _split_via_order(K, p)
    )
    ops, _ = _workloads().inspect_structured(1)
    for op in ops:
        inspect_field(new_field(parse_polynomial(op["poly"])))
    assert len(calls) <= 13


# ----------------------------------------------------------------------
# the F_q kernels against products of known irreducibles
# ----------------------------------------------------------------------


def _fq_eval(poly, alpha, phi, p):
    acc = []
    for c in reversed(poly):
        acc = gf_add(gf_rem(gf_mul(acc, alpha, p), phi, p), c, p)
    return acc


def _field(p, m):
    """(phi, elements) of F_(p^m) = F_p[x]/(phi), phi the first monic
    polynomial of degree m with no root mod p."""
    elements = [gf_trim(list(c), p) for c in itertools.product(range(p), repeat=m)]
    for low in itertools.product(range(p), repeat=m):
        phi = list(low) + [1]
        if m == 1 or all(sum(c * x**k for k, c in enumerate(phi)) % p for x in range(p)):
            return phi, elements
    raise AssertionError("no irreducible modulus")


def _irreducibles(p, m, rng, count):
    """Distinct monic irreducibles of degree 1-3 over F_(p^m): for degree
    <= 3 that is having no root in the field."""
    phi, elements = _field(p, m)
    seen, out = set(), []
    while len(out) < count:
        d = rng.randint(1, 3)
        psi = [rng.choice(elements) for _ in range(d)] + [[1]]
        key = tuple(map(tuple, psi))
        if key in seen:
            continue
        if d == 1 or all(_fq_eval(psi, alpha, phi, p) for alpha in elements):
            seen.add(key)
            out.append(psi)
    return phi, out


_FIELDS = [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)]


@pytest.mark.parametrize("p,m", _FIELDS)
def test_fq_degree_split_of_products_of_irreducibles(p, m):
    rng = random.Random(f"fq{p}^{m}")
    phi, irreducibles = _irreducibles(p, m, rng, 5)
    for _ in range(20):
        parts = rng.sample(irreducibles, rng.randint(1, 4))
        prod = [[1]]
        for psi in parts:
            prod = _fq_mul(prod, psi, phi, p)
        degrees = sorted(len(psi) - 1 for psi in parts)
        assert sorted(_fq_distinct_degree(prod, phi, p)) == degrees
        if len(prod) > 2:
            assert sorted(_factor_degrees(prod, phi, p)) == degrees
            square = _fq_mul(prod, parts[0], phi, p)
            assert _factor_degrees(square, phi, p) is None


@pytest.mark.parametrize("p,m", _FIELDS)
def test_fq_gcd_of_products_of_irreducibles(p, m):
    rng = random.Random(f"gcd{p}^{m}")
    phi, irreducibles = _irreducibles(p, m, rng, 5)
    for _ in range(20):
        a, b, c, d = rng.sample(irreducibles, 4)
        common = _fq_mul(a, b, phi, p)
        left = _fq_mul(common, c, phi, p)
        right = _fq_mul(common, d, phi, p)
        assert _fq_gcd(left, right, phi, p) == common
        assert _fq_gcd(c, d, phi, p) == [[1]]
        # the gcd is monic whatever the scaling of its arguments
        unit = rng.choice([e for e in _field(p, m)[1] if e])
        scaled = [gf_rem(gf_mul(unit, x, p), phi, p) for x in left]
        assert _fq_gcd(scaled, right, phi, p) == common
