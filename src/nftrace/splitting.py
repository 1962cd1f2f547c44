"""Decomposition of rational primes (and the infinite place) in a field.

Three routes.  Where p^2 divides disc(f) and f is p-regular, Ore's
theorem reads the (e_i, f_i) pairs off the phi-Newton polygons of f;
new_field keeps those pairs in the field (local.ore).  At the other primes
not dividing the index, Dedekind's theorem reads them straight off the
factorization of f mod p.  At the other index primes, where f is not
p-regular, the quotient O_K/pO_K is split by its idempotents: Frobenius
fixes exactly their F_p-span, its elements cut 1 into one idempotent per
prime P above p, and two ranks over F_p give e*f (multiplication by the
idempotent) and f (the same on the image of x -> x^(p^m), p^m >= n).

Every route is checked against sum e_i f_i = n and against Dedekind's
different theorem, v_p(d_K) >= sum f_i (e_i - 1) with equality exactly
when no e_i is divisible by p.

The infinite place follows the Conway convention p = -1 and decomposes
into r1 real pairs (1,1) and r2 complex pairs (1,2).
"""

from __future__ import annotations

from dataclasses import dataclass

from nftrace._linalg import nullspace_mod_p, solve_row_combo_mod_p
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
    if p in K._ore_pairs:
        pairs = K._ore_pairs[p]
    elif K.index % p:
        fac = factor_poly_mod(K.defining_poly, p)
        pairs = sorted(((e, g.degree) for g, e in fac), key=lambda t: (t[1], t[0]))
    else:
        pairs = sorted(_split_via_order(K, p), key=lambda t: (t[1], t[0]))
    if sum(e * f for e, f in pairs) != K.degree:
        raise InternalInvariantError(f"sum e_i f_i != n at p={p}")
    # Dedekind's different theorem: v_P(D) >= e - 1, with equality iff p does not divide e
    v = K.disc_factorization.as_dict().get(p, 0)
    bound = sum(f * (e - 1) for e, f in pairs)
    if v < bound or (v == bound) != all(e % p for e, _ in pairs):
        raise InternalInvariantError(
            f"different exponent law fails for f = {K.defining_poly} at p = {p}: "
            f"v_p(d_K) = {v}, sum f_i (e_i - 1) = {bound}"
        )
    return PrimeSplitting(p, tuple(pairs))


def _split_via_order(K: NumberField, p: int) -> list[tuple[int, int]]:
    """(e, f) pairs from the idempotents of O_K/pO_K (used when p | index).

    O_K/pO_K is the product of the local rings O_K/P_i^e_i.  Frobenius
    x -> x^p fixes exactly the F_p-span of their identities eps_i, so a
    basis of the fixed space cuts 1 into the eps_i along the values of its
    elements.  Then e_i f_i = rank(x -> eps_i x), and since x -> x^(p^m)
    with p^m >= n kills the nilradical, f_i = rank of eps_i times its image.
    """
    n = K.degree
    C = K._mult

    def mult(u, v):
        return [c % p for c in _alg_mul(C, u, v)]

    one = [1] + [0] * (n - 1)
    basis = [[int(k == i) for k in range(n)] for i in range(n)]
    frob = [_alg_pow(mult, one, b, p) for b in basis]
    fixed = nullspace_mod_p(
        [[(frob[c][r] - (r == c)) % p for c in range(n)] for r in range(n)], p
    )
    idempotents = [one]
    for y in fixed:
        if len(idempotents) == len(fixed):
            break
        # 1 - (y - c)^(p-1) is the sum of the eps_i on which y equals c
        parts = []
        for g, e in factor_poly_mod(IntPoly(_minimal_polynomial(mult, one, y, p)), p):
            if g.degree != 1 or e != 1:
                raise InternalInvariantError("fixed element has non-split minimal polynomial")
            shifted = [(a + g[0] * b) % p for a, b in zip(y, one)]
            power = _alg_pow(mult, one, shifted, p - 1)
            parts.append([(b - a) % p for a, b in zip(power, one)])
        products = [mult(eps, part) for eps in idempotents for part in parts]
        idempotents = [v for v in products if any(v)]
    if len(idempotents) != len(fixed):
        raise InternalInvariantError(
            f"{len(idempotents)} idempotents for {len(fixed)} primes at p={p}"
        )
    Fm = _frobenius_power_matrix(C, p, n)
    residue = [[Fm[r][c] for r in range(n)] for c in range(n)]
    pairs = []
    for eps in idempotents:
        ef = n - len(nullspace_mod_p([mult(eps, b) for b in basis], p))
        f = n - len(nullspace_mod_p([mult(eps, v) for v in residue], p))
        if ef % f:
            raise InternalInvariantError(f"residue degree {f} does not divide {ef}")
        pairs.append((ef // f, f))
    return pairs


def _minimal_polynomial(mult, one, alpha, p):
    """Monic minimal polynomial coefficients (ascending) of alpha."""
    powers = [one]
    while len(powers) <= len(one):
        nxt = mult(powers[-1], alpha)
        combo = solve_row_combo_mod_p(powers, nxt, p)
        if combo is not None:
            return [(-c) % p for c in combo] + [1]
        powers.append(nxt)
    raise InternalInvariantError("minimal polynomial exceeded algebra dimension")


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
