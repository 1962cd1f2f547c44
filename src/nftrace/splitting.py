"""Decomposition of rational primes (and the infinite place) in a field.

Three routes.  Where p^2 divides disc(f) and f is p-regular, Ore's
theorem reads the (e_i, f_i) pairs off the phi-Newton polygons of f;
new_field keeps those pairs in the field (local.ore).  At the other primes
not dividing the index, Dedekind's theorem reads them straight off the
factorization of f mod p.  At the other index primes, where f is not
p-regular, the quotient O_K/pO_K is split by its idempotents
(local.split_by_idempotents): Frobenius fixes exactly their F_p-span, its
elements cut 1 into one idempotent per prime P above p, and two ranks over
F_p give e*f (multiplication by the idempotent) and f (the same on the
image of x -> x^(p^m), p^m >= n).  This module only chooses the route and
checks its answer.

Every route is checked against sum e_i f_i = n and against Dedekind's
different theorem, v_p(d_K) >= sum f_i (e_i - 1) with equality exactly
when no e_i is divisible by p.

The infinite place follows the Conway convention p = -1 and decomposes
into r1 real pairs (1,1) and r2 complex pairs (1,2).
"""

from __future__ import annotations

from dataclasses import dataclass

from nftrace.exact import InternalInvariantError, factor_poly_mod, is_prime
from nftrace.local import split_by_idempotents
from nftrace.numberfield import NumberField, per_field


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
        pairs = sorted(split_by_idempotents(K._mult, p), key=lambda t: (t[1], t[0]))
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
