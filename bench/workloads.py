"""Seeded input generators for the three benchmark workloads.

Every generator returns a list of ops.  An op is a plain dict holding the
polynomial strings the program receives, plus a name that identifies the
input (the name keys the recorded output digests, so it depends only on the
input, never on the seed or the position of the op).

Generation is pure Python and runs before any timing.  The only call into
the program is the irreducibility filter for random draws, which is passed
in by the caller (it needs the program's `factor_poly`).
"""

from __future__ import annotations

import itertools
import random

# The CORPUS of tests/conftest.py (ascending coefficient lists).
CORPUS = {
    "K4": [152, 68, 4, -1, 1],
    "L4": [121, -21, -15, 0, 1],
    "G7a": [3625, -576520, 62118, 36743, -2233, -609, 0, 1],
    "G7b": [77517, -87696, -40194, 48111, -2233, -609, 0, 1],
    "S6a": [-24, 33, 52, -5, -14, 0, 1],
    "S6b": [5, 27, 37, -1, -17, -3, 1],
    "C3a": [-15, -8, 0, 1],
    "C3b": [-1, 10, 0, 1],
    "F7": [-5217, -3782, 496, 755, 25, -47, -2, 1],
    "L7": [19, 233, 793, 480, -8, -47, -2, 1],
    "c49": [-1, -2, 1, 1],
    "c81": [-1, -3, 0, 1],
    "c8281a": [64, -30, -1, 1],
    "c8281b": [-27, -30, -1, 1],
    "gauss": [1, 0, 1],
    "x2p2": [2, 0, 1],
    "zeta8": [1, 0, 0, 0, 1],
}

# The two stall repros of ROADMAP item 4: (a) stalls in hasse_profile,
# (b) stalls in factor_integer(disc f) inside new_field.
ITEM4_REPROS = {
    "item4a": "x^10 + 55*x^9 - 36*x^8 - 22*x^7 + 71*x^6 + 88*x^5 - 57*x^4 "
    "- 8*x^3 - 79*x^2 - 77*x - 86",
    "item4b": "x^12 + 713*x^11 + 107*x^10 - 37*x^9 + 468*x^8 - 608*x^7 "
    "- 521*x^6 + 128*x^5 - 469*x^4 - 40*x^3 + 715*x^2 + 861*x - 974",
}

# Smooth rescaling factors for c^n * g(x / c).
SMOOTH = (2, 3, 4, 6, 8, 9, 12)

# Random draws: (coefficient bound, degrees, draws per degree).  The large
# scale stops at degree 6 because almost every degree 7-8 draw at that
# scale stalls in factor_integer past any cap, which would make the cost of
# a run a coin flip per seed; the two fixed item-4 repros track that stall.
RANDOM_CELLS = ((9, range(2, 9), 9), (99, range(2, 7), 9))
PANEL_SEED = 2024


def poly_str(coeffs: list[int]) -> str:
    """Render ascending integer coefficients as `x^3 - 2*x + 5`."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            mono = "x" if k == 1 else f"x^{k}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def cyclotomic(n: int) -> list[int]:
    """Ascending coefficients of the n-th cyclotomic polynomial."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div_monic(num, cyclotomic(d))
    return num


def _exact_div_monic(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    if any(a):
        raise ValueError("division is not exact")
    return q


def rescale(coeffs: list[int], c: int) -> list[int]:
    """c^n * g(x / c): monic again, with index divisible by powers of c."""
    n = len(coeffs) - 1
    return [a * c ** (n - k) for k, a in enumerate(coeffs)]


def inspect_structured(seed: int) -> tuple[list[dict], dict]:
    """Cyclotomics, x^6 + 3 and every smooth rescaling, in seeded order.

    Only the order depends on `seed`, for the reason given at
    `inspect_random`.
    """
    ops = [{"name": f"phi{n}", "poly": poly_str(cyclotomic(n))} for n in range(3, 25)]
    ops.append({"name": "x6p3", "poly": "x^6 + 3"})
    for name, coeffs in CORPUS.items():
        if len(coeffs) - 1 >= 3:
            for c in SMOOTH:
                ops.append({"name": f"{name}@{c}", "poly": poly_str(rescale(coeffs, c))})
    random.Random(seed).shuffle(ops)
    return ops, {}


def inspect_random(seed: int, is_irreducible) -> tuple[list[dict], dict]:
    """A fixed table of random monic irreducible draws, in seeded order.

    The table is drawn from PANEL_SEED, a fixed number per (scale, degree);
    reducible draws are discarded and counted, as `_random_fields` in
    tests/test_acceptance.py does, and no draw is dropped for being slow.
    Only the order depends on `seed`: a fresh draw of this size per seed
    varies in cost by far more than any regression bound (ops_per_s from
    4.2 to 6.7 over four seeds), so it could not detect a regression.
    """
    panel = random.Random(PANEL_SEED)
    ops = []
    discarded = 0
    for bound, degrees, per_degree in RANDOM_CELLS:
        for n in degrees:
            kept = 0
            while kept < per_degree:
                coeffs = [panel.randint(-bound, bound) for _ in range(n)] + [1]
                if not is_irreducible(coeffs):
                    discarded += 1
                    continue
                s = poly_str(coeffs)
                ops.append({"name": s, "poly": s})
                kept += 1
    ops += [{"name": name, "poly": s} for name, s in ITEM4_REPROS.items()]
    random.Random(seed).shuffle(ops)
    return ops, {"reducible_discarded": discarded}


def compare_pool(seed: int) -> tuple[list[dict], dict]:
    rng = random.Random(seed)
    pairs = list(itertools.combinations(CORPUS, 2))
    rng.shuffle(pairs)
    ops = [{"name": f"{a}|{b}", "pair": [a, b]} for a, b in pairs]
    return ops, {"pool": {name: poly_str(c) for name, c in CORPUS.items()}}
