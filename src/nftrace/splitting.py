"""Decomposition of rational primes (and the infinite place) in a field.

Two routes: for p not dividing the index, Dedekind's theorem reads the
(e_i, f_i) pairs straight off the factorization of f mod p.  For index
primes the quotient O_K/pO_K is split explicitly: its nilradical comes
from the Frobenius kernel, the semisimple quotient is cut into fields
along eigenspaces of Frobenius-fixed elements, and each ramification
index is the exact valuation e = max{e : pO_K in P^e} computed with HNF
ideal powers.

The infinite place follows the Conway convention p = -1 and decomposes
into r1 real pairs (1,1) and r2 complex pairs (1,2).
"""

from __future__ import annotations

from dataclasses import dataclass

from nftrace._linalg import hnf_rows, in_row_lattice, nullspace_mod_p, solve_row_combo_mod_p
from nftrace.exact import InternalInvariantError, IntPoly, factor_poly_mod, is_prime
from nftrace.numberfield import (
    NumberField,
    _alg_mul,
    _alg_pow,
    _frobenius_power_matrix,
    per_field,
)


@dataclass(frozen=True)
class PrimeSplitting:
    """Decomposition of a place: (e_i, f_i) pairs sorted by (f, e)."""

    p: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def g(self) -> int:
        return len(self.pairs)

    @property
    def residue_degree_sum(self) -> int:
        return sum(f for _, f in self.pairs)

    @property
    def is_ramified(self) -> bool:
        return any(e > 1 for e, _ in self.pairs)

    @property
    def is_tame(self) -> bool:
        if self.p == -1:
            return True
        return all(e % self.p != 0 for e, _ in self.pairs)

    def decomposition_type(self) -> "DecompositionType":
        return DecompositionType(tuple(sorted(f for _, f in self.pairs)))


@dataclass(frozen=True)
class DecompositionType:
    """Residue degrees f_1 <= ... <= f_g of the primes above p."""

    fs: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(f) for f in self.fs) + ")"


@per_field
def split_prime(K: NumberField, p: int) -> PrimeSplitting:
    """Decompose a rational prime (or -1, the infinite place) in K."""
    if p == -1:
        pairs = tuple([(1, 1)] * K.r1 + [(1, 2)] * K.r2)
        return PrimeSplitting(-1, pairs)
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if K.index % p:
        fac = factor_poly_mod(K.defining_poly, p)
        pairs = sorted(((e, g.degree) for g, e in fac), key=lambda t: (t[1], t[0]))
    else:
        pairs = sorted(_split_via_order(K, p), key=lambda t: (t[1], t[0]))
    if sum(e * f for e, f in pairs) != K.degree:
        raise InternalInvariantError(f"sum e_i f_i != n at p={p}")
    return PrimeSplitting(p, tuple(pairs))


def _split_via_order(K: NumberField, p: int) -> list[tuple[int, int]]:
    """(e, f) pairs from the structure of O_K/pO_K (used when p | index)."""
    n = K.degree
    C = K._mult
    rad = nullspace_mod_p(_frobenius_power_matrix(C, p, n), p)

    def mult_mod_p(u, v):
        return [c % p for c in _alg_mul(C, u, v)]

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
        img = _alg_pow(mult, one, b, p)
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


def _valuation_of_p(K: NumberField, P_hnf, p: int) -> int:
    """e = v_P(p O_K) as the largest e with p O_K inside P^e."""
    n = K.degree
    C = K._mult
    p_gens = [[p if c == r else 0 for c in range(n)] for r in range(n)]

    def contains_pO(lattice):
        return all(in_row_lattice(lattice, v) for v in p_gens)

    if not contains_pO(P_hnf):
        raise InternalInvariantError("prime ideal does not contain pO_K")
    base = [list(r) for r in P_hnf]
    power = base
    e = 1
    while e <= n:
        prods = [_alg_mul(C, a, b) for a in power for b in base]
        nxt = hnf_rows(prods)
        if len(nxt) == n and contains_pO(nxt):
            power = nxt
            e += 1
        else:
            break
    return e


# ----------------------------------------------------------------------
# derived queries
# ----------------------------------------------------------------------


def decomposition_type(K: NumberField, p: int) -> DecompositionType:
    """Sorted residue degrees at p; at p = -1, ones and twos by signature."""
    return split_prime(K, p).decomposition_type()


def is_tame(K: NumberField, p: int) -> bool:
    """No ramification index above p is divisible by p."""
    return split_prime(K, p).is_tame


def is_tame_field(K: NumberField) -> bool:
    """Tame at every ramified prime."""
    return all(is_tame(K, p) for p in ramified_primes(K))


def ramified_primes(K: NumberField) -> set[int]:
    """Primes dividing disc(K), cross-checked against e_i > 1."""
    out = set(K.disc_factorization.primes())
    for p in out:
        if not split_prime(K, p).is_ramified:
            raise InternalInvariantError(f"p={p} divides disc but no e_i > 1")
    return out
