"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Criterion 5's property suites share a 150-field random corpus; each suite
evaluates at least 10^3 individual instances and the combined runtime is
checked against the 60 s budget at the end of the file.
"""

import functools
import random
import time
from fractions import Fraction
from functools import lru_cache

from conftest import CORPUS, field
from nftrace.cli import compare
from nftrace.exact import IntPoly, factor_integer, factor_poly
from nftrace.numberfield import new_field, trace_gram
from nftrace.quadform import (
    NONSQUARE,
    SQUARE,
    DiagonalForm,
    diagonalize_rational,
    hasse_profile,
    hilbert_symbol,
    jordan_form_odd,
    rational_equivalent,
    trace_hasse,
)
from nftrace.rootnum import compare_root_numbers
from nftrace.local import split_by_idempotents
from nftrace.splitting import (
    is_tame,
    is_tame_field,
    ramified_primes,
    split_prime,
)
from nftrace.zeta import weakly_equivalent

_DURATIONS: dict[str, float] = {}


def criterion(name: str):
    """Print one PASS/FAIL line per criterion, with its runtime."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
                raise
            print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - t0:.2f}s) {detail}")

        return wrapper

    return deco


@lru_cache(maxsize=None)
def _random_fields():
    rng = random.Random(2024)
    out = []
    while len(out) < 150:
        n = rng.randint(2, 5)
        f = IntPoly([rng.randint(-9, 9) for _ in range(n)] + [1])
        if f.degree < 2:
            continue
        fac = factor_poly(f)
        if len(fac) != 1 or fac[0][1] != 1:
            continue
        out.append(new_field(f))
    return out


# ----------------------------------------------------------------------
# criterion 1: the final-lemma quartic pair, exact, < 10 s
# ----------------------------------------------------------------------


@criterion("criterion 1 (final lemma quartic pair)")
def test_criterion_1_final_lemma_reproduction():
    t0 = time.perf_counter()
    K, L = field("K4"), field("L4")
    assert K.disc == L.disc == 15311569 == (7 * 13 * 43) ** 2
    assert K.signature == L.signature == (0, 2)
    table = {
        ("K", 7): [(1, 1), (3, 1)],
        ("K", 13): [(2, 1), (2, 1)],
        ("K", 43): [(2, 1), (2, 1)],
        ("L", 7): [(2, 1), (2, 1)],
        ("L", 13): [(1, 1), (3, 1)],
        ("L", 43): [(1, 1), (3, 1)],
    }
    for (tag, p), expected in table.items():
        F = K if tag == "K" else L
        assert list(split_prime(F, p).pairs) == expected, (tag, p)
    assert weakly_equivalent(K, L).equivalent
    assert trace_hasse(K, 7) == 1 and trace_hasse(L, 7) == -1
    assert trace_hasse(K, 43) == -1 and trace_hasse(L, 43) == 1
    # Jordan unit classes up to normalization: <1,3,7,21>, <1,1,7,7>,
    # <1,1,43,43>, <1,3,43,129>
    GK, GL = trace_gram(K), trace_gram(L)
    expect = {
        ("K", 7): (2, NONSQUARE, 2, NONSQUARE),
        ("L", 7): (2, SQUARE, 2, SQUARE),
        ("K", 43): (2, SQUARE, 2, SQUARE),
        ("L", 43): (2, NONSQUARE, 2, NONSQUARE),
    }
    for (tag, p), (f_dim, f_cls, p_dim, p_cls) in expect.items():
        J = jordan_form_odd(GK if tag == "K" else GL, p)
        assert (J.unimodular_dim, J.unimodular_class) == (f_dim, f_cls), (tag, p)
        assert (J.p_part_dim, J.p_part_class) == (p_dim, p_cls), (tag, p)
        assert J.higher_blocks == ()
    rn = compare_root_numbers(K, L)
    assert rn.applicable and rn.differ == (7, 43) and rn.agree == (13,)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# criterion 2: the three weakly-AE example pairs, < 60 s
# ----------------------------------------------------------------------


@criterion("criterion 2 (weakly-AE pairs (1),(2),(3))")
def test_criterion_2_weak_ae_example_pairs():
    t0 = time.perf_counter()
    rep1 = compare(field("G7a"), field("G7b"))
    assert rep1.weak_ae
    assert rep1.both_galois
    rep2 = compare(field("S6a"), field("S6b"))
    assert rep2.weak_ae
    assert rep2.fundamental_disc
    assert field("S6a").disc == field("S6b").disc == 725517561
    rep3 = compare(field("C3a"), field("C3b"))
    assert rep3.weak_ae
    assert any("(a) degree <= 3" in s for s in rep3.theorem_trail)
    # h_p agreement at all odd primes, ramified and spot-checked unramified
    for a, b in (("G7a", "G7b"), ("S6a", "S6b"), ("C3a", "C3b")):
        Ka, Kb = field(a), field(b)
        ps = {p for p in ramified_primes(Ka) | ramified_primes(Kb) if p != 2}
        ps |= {3, 5, 17, 101}
        for p in sorted(ps):
            assert trace_hasse(Ka, p) == trace_hasse(Kb, p), (a, b, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# criterion 3: degree-7 AE pair, exact
# ----------------------------------------------------------------------


@criterion("criterion 3 (degree-7 AE pair, undetermined isometry)")
def test_criterion_3_degree7_ae_pair():
    F, L = field("F7"), field("L7")
    assert F.disc == L.disc == 5**2 * 11**6 * 19**4
    assert F.signature == L.signature == (7, 0)
    assert is_tame_field(F) and is_tame_field(L)
    rep = compare(F, L)
    assert rep.spinor_genus_equal == "yes"
    assert rep.isometry_verdict == "undetermined"
    assert rep.isometry_verdict != "isometric"


# ----------------------------------------------------------------------
# criterion 4: disc-49 vs disc-81 cubics, exact
# ----------------------------------------------------------------------


@criterion("criterion 4 (disc-49 vs disc-81 cubics)")
def test_criterion_4_disc49_vs_disc81():
    a, b = field("c49"), field("c81")
    unit3 = DiagonalForm((Fraction(1), Fraction(1), Fraction(1)))
    assert rational_equivalent(trace_gram(a), unit3)
    assert rational_equivalent(trace_gram(b), unit3)
    assert not weakly_equivalent(a, b).equivalent
    rep = compare(a, b)
    assert rep.weak_ae is False
    assert rep.genus_equal == "inapplicable"
    assert "discriminant" in rep.genus_detail["failed_hypothesis"]


# ----------------------------------------------------------------------
# criterion 5: randomized property suites, >= 10^3 cases each, < 60 s total
# ----------------------------------------------------------------------


@criterion("criterion 5a (Hilbert reciprocity)")
def test_criterion_5a_hilbert_reciprocity():
    t0 = time.perf_counter()
    rng = random.Random(99)
    cases = 0
    for _ in range(1000):
        a = rng.randint(-10**4, 10**4) or 1
        b = rng.randint(-10**4, 10**4) or 1
        if rng.random() < 0.3:
            a = Fraction(a, rng.randint(1, 99))
        support = {-1, 2}
        for x in (a, b):
            x = Fraction(x)
            for q, _ in factor_integer(x.numerator * x.denominator):
                if q > 2:
                    support.add(q)
        prod = 1
        for p in support:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
        cases += 1
    assert cases >= 1000
    _DURATIONS["5a"] = time.perf_counter() - t0
    return f"{cases} cases"


def _odd_hilbert_oracle(p):
    """Brute-force solvability oracle for z^2 = a x^2 + b y^2 over Z_p.

    Strips squares (z^2 = a c^2 x'^2 + b y^2 has the same solvability), then
    decides each valuation case with raw residue tables and descent:

    * both units: a point with y = 1 exists mod p (the search below always
      finds one) and is smooth (some partial derivative is a unit), so it
      Hensel-lifts: the symbol is +1;
    * a = p*u, b = v a unit: mod p a primitive solution forces
      z^2 = v y^2 with y a unit (p | y would force p | z and then p | x by
      dividing the equation by p), so solvability means v is a square mod
      p, and conversely a root t of t^2 = v gives the liftable smooth
      point (0, 1, t);
    * a = p*u, b = p*v: dividing z = p z' out gives p z'^2 = u x^2 + v y^2
      with x or y a unit (else descend again), so solvability means -u v
      is a square mod p; conversely (x, y, z') = (s, u, 0) with
      s^2 = -u v is a smooth mod-p point of the descended quadric.

    The square tables are built by exhaustive squaring, independently of
    any Legendre/Jacobi machinery.
    """
    squares = {t * t % p for t in range(p)}
    unit_squares = {t * t % p for t in range(1, p)} - {0}

    def val_unit(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v % 2, x

    def oracle(a, b):
        va, u = val_unit(a)
        vb, v = val_unit(b)
        if va and vb:
            return 1 if (-u * v) % p in unit_squares else -1
        if va:
            return 1 if v % p in unit_squares else -1
        if vb:
            return 1 if u % p in unit_squares else -1
        for x in range(p):
            if (u * x * x + v) % p in squares:
                return 1
        return -1  # unreachable: ternary conics over F_p have points

    return oracle


@criterion("criterion 5b (Hilbert vs brute-force oracle)")
def test_criterion_5b_hilbert_vs_bruteforce_oracle():
    t0 = time.perf_counter()
    cases = 0
    for p in (3, 5, 7, 11, 13, 43):
        oracle = _odd_hilbert_oracle(p)
        for a in range(-50, 51):
            if a == 0:
                continue
            for b in range(-50, 51):
                if b == 0:
                    continue
                assert hilbert_symbol(a, b, p) == oracle(a, b), (a, b, p)
                cases += 1
    assert cases >= 1000
    _DURATIONS["5b"] = time.perf_counter() - t0
    return f"{cases} cases"


@criterion("criterion 5c (Hasse product formula)")
def test_criterion_5c_hasse_product_formula():
    t0 = time.perf_counter()
    cases = 0
    # every trace Gram computed in the corpus
    for name in CORPUS:
        prof = hasse_profile(diagonalize_rational(trace_gram(field(name))))
        assert prof.product() == 1, name
        cases += 1
    for K in _random_fields():
        prof = hasse_profile(diagonalize_rational(trace_gram(K)))
        assert prof.product() == 1
        cases += 1
    # plus random nondegenerate diagonal forms
    rng = random.Random(7)
    while cases < 1100:
        d = DiagonalForm(
            tuple(
                Fraction(rng.choice([x for x in range(-30, 31) if x]))
                for _ in range(rng.randint(1, 5))
            )
        )
        assert hasse_profile(d).product() == 1
        cases += 1
    assert cases >= 1000
    _DURATIONS["5c"] = time.perf_counter() - t0
    return f"{cases} cases"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@criterion("criterion 5d (sum e_i f_i = n)")
def test_criterion_5d_sum_ef_equals_n():
    t0 = time.perf_counter()
    cases = 0
    for K in _random_fields():
        for p in _SMALL_PRIMES:
            sp = split_prime(K, p)
            assert sum(e * f for e, f in sp.pairs) == K.degree
            cases += 1
    assert cases >= 1000
    _DURATIONS["5d"] = time.perf_counter() - t0
    return f"{cases} cases"


@criterion("criterion 5e (tame exponent law)")
def test_criterion_5e_tame_exponent_law():
    t0 = time.perf_counter()
    cases = 0
    for K in _random_fields():
        dfac = dict(factor_integer(K.disc).as_dict())
        for p in _SMALL_PRIMES:
            sp = split_prime(K, p)
            if not sp.is_tame:
                continue
            assert dfac.get(p, 0) == K.degree - sp.residue_degree_sum, (K, p)
            cases += 1
    assert cases >= 1000
    _DURATIONS["5e"] = time.perf_counter() - t0
    return f"{cases} cases"


@criterion("criterion 5f (tame Jordan shape)")
def test_criterion_5f_jordan_tame_shape():
    t0 = time.perf_counter()
    cases = 0
    for K in _random_fields():
        G = trace_gram(K)
        dfac = dict(factor_integer(K.disc).as_dict())
        for p in _SMALL_PRIMES:
            if p == 2 or not is_tame(K, p):
                continue
            J = jordan_form_odd(G, p)
            assert J.higher_blocks == (), (K, p)
            assert J.p_part_dim == dfac.get(p, 0), (K, p)
            cases += 1
    assert cases >= 1000
    _DURATIONS["5f"] = time.perf_counter() - t0
    return f"{cases} cases"


@criterion("criterion 5g (splitting route agreement)")
def test_criterion_5g_split_paths_agree():
    t0 = time.perf_counter()
    cases = 0
    for K in _random_fields():
        for p in _SMALL_PRIMES:
            if K.index % p == 0:
                continue
            dedekind = split_prime(K, p).pairs
            order_route = tuple(
                sorted(split_by_idempotents(K._mult, p), key=lambda t: (t[1], t[0]))
            )
            assert order_route == dedekind, (K, p)
            cases += 1
    assert cases >= 1000
    _DURATIONS["5g"] = time.perf_counter() - t0
    return f"{cases} cases"


@criterion("criterion 5 (property suites total)")
def test_criterion_5_total_runtime():
    total = sum(_DURATIONS.values())
    assert len(_DURATIONS) == 7, "a property suite did not run"
    assert total < 60.0, f"property suites took {total:.1f}s"
    return f"{total:.2f}s across 7 suites"


# ----------------------------------------------------------------------
# criterion 6: det(trace gram) = disc, exact, whole corpus
# ----------------------------------------------------------------------


@criterion("criterion 6 (det gram = disc)")
def test_criterion_6_det_identity():
    count = 0
    for name in CORPUS:
        K = field(name)
        assert trace_gram(K).det() == K.disc, name
        count += 1
    for K in _random_fields():
        assert trace_gram(K).det() == K.disc
        count += 1
    return f"{count} fields"
