"""Shared corpus of fields from the literature examples, built once, and a
rational field-element oracle."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from nftrace.exact import IntPoly
from nftrace.local import alg_mul
from nftrace.numberfield import NumberField, new_field

# ascending coefficient lists
CORPUS = {
    # the quartic pair with different root numbers at 7 and 43
    "K4": [152, 68, 4, -1, 1],
    "L4": [121, -21, -15, 0, 1],
    # degree-7 Galois (C7) weakly-AE pair
    "G7a": [3625, -576520, 62118, 36743, -2233, -609, 0, 1],
    "G7b": [77517, -87696, -40194, 48111, -2233, -609, 0, 1],
    # sextic weakly-AE pair with fundamental discriminant
    "S6a": [-24, 33, 52, -5, -14, 0, 1],
    "S6b": [5, 27, 37, -1, -17, -3, 1],
    # cubic weakly-AE pair of discriminant -4027
    "C3a": [-15, -8, 0, 1],
    "C3b": [-1, 10, 0, 1],
    # degree-7 arithmetically equivalent totally real pair
    "F7": [-5217, -3782, 496, 755, 25, -47, -2, 1],
    "L7": [19, 233, 793, 480, -8, -47, -2, 1],
    # cyclic cubics
    "c49": [-1, -2, 1, 1],
    "c81": [-1, -3, 0, 1],
    "c8281a": [64, -30, -1, 1],
    "c8281b": [-27, -30, -1, 1],
    # small standards
    "gauss": [1, 0, 1],
    "x2p2": [2, 0, 1],
    "zeta8": [1, 0, 0, 0, 1],
}


def poly(name: str) -> IntPoly:
    return IntPoly(CORPUS[name])


@lru_cache(maxsize=None)
def field(name: str):
    return new_field(poly(name))


@dataclass(frozen=True)
class FieldElement:
    """Element of a field in integral-basis coordinates, with Fraction
    arithmetic: the test-side oracle for products and traces."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def __mul__(self, other):
        out = alg_mul(self.field._mult, self.coords, other.coords)
        return FieldElement(self.field, tuple(Fraction(c) for c in out))

    def trace(self) -> Fraction:
        return sum(c * t for c, t in zip(self.coords, self.field._trace_vec))

    def is_integral_coords(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)


def element(K: NumberField, coords) -> FieldElement:
    return FieldElement(K, tuple(Fraction(c) for c in coords))


def one(K: NumberField) -> FieldElement:
    return element(K, [1] + [0] * (K.degree - 1))
