"""Normalized local root numbers computed from trace-form data.

The normalized value at p is h_p(q_K) * (2, disc K)_p, the local second
Stiefel-Whitney class of the field.  Un-normalized local root numbers are
not computable from this data alone; comparisons between two fields are
therefore exposed only under the equal-discriminant hypothesis, where the
determinant characters coincide and cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

from nftrace.exact import InternalInvariantError, is_prime
from nftrace.numberfield import NumberField
from nftrace.quadform import hilbert_symbol, trace_hasse
from nftrace.splitting import ramified_primes


@dataclass(frozen=True)
class NormalizedRootNumber:
    """Local Stiefel-Whitney value w_2(K)_p in {+1, -1}."""

    p: int
    value: int


@dataclass(frozen=True)
class DetCharacter:
    """Square class of disc(K); trivial iff the determinant character is."""

    square_class: int

    @property
    def is_trivial(self) -> bool:
        return self.square_class == 1


def stiefel_whitney_local(K: NumberField, p: int) -> NormalizedRootNumber:
    """w_2(K)_p = h_p(q_K) * (2, disc K)_p at a finite prime."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not a finite prime")
    value = trace_hasse(K, p) * hilbert_symbol(2, K.disc, p)
    return NormalizedRootNumber(p, value)


def det_rho_discriminant(K: NumberField) -> DetCharacter:
    """The determinant character's square class, which is disc(K)."""
    return DetCharacter(K.disc_factorization.squarefree_part())


@dataclass(frozen=True)
class RootNumberComparison:
    """Per-prime comparison of normalized root numbers at odd p | disc."""

    applicable: bool
    reason: str | None
    agree: tuple[int, ...] = ()
    differ: tuple[int, ...] = ()
    per_prime: tuple[tuple[int, int, int], ...] = ()  # (p, w_K, w_L)

    @property
    def all_equal(self) -> bool:
        return self.applicable and not self.differ


def compare_root_numbers(K: NumberField, L: NumberField) -> RootNumberComparison:
    """Compare normalized root numbers at every odd prime dividing disc.

    Licensed only when disc(K) = disc(L): equality of discriminants makes
    the determinant characters (hence their local root numbers) coincide,
    so the normalized values compare the fields' own root numbers.
    """
    if K.disc != L.disc:
        return RootNumberComparison(
            False,
            "discriminants differ, so the determinant characters need not "
            "match and the normalized values are not comparable",
        )
    agree, differ, evidence = [], [], []
    for p in sorted(ramified_primes(K)):
        if p == 2:
            continue
        wK = stiefel_whitney_local(K, p)
        wL = stiefel_whitney_local(L, p)
        evidence.append((p, wK.value, wL.value))
        if (wK.value == wL.value) != (trace_hasse(K, p) == trace_hasse(L, p)):
            raise InternalInvariantError(
                "root-number and Hasse comparisons disagree at equal discriminant"
            )
        (agree if wK.value == wL.value else differ).append(p)
    return RootNumberComparison(True, None, tuple(agree), tuple(differ), tuple(evidence))
