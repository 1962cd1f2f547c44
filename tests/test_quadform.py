"""Quadratic form invariants against the published quartic-pair values."""

import math
import random
from fractions import Fraction

import pytest

from conftest import CORPUS, field
from nftrace import quadform
from nftrace.exact import (
    Factorization,
    InternalInvariantError,
    IntPoly,
    factor_integer,
    is_prime,
    squarefree_part,
)
from nftrace.numberfield import new_field, trace_gram
from nftrace.quadform import (
    NONSQUARE,
    SQUARE,
    DiagonalForm,
    diagonalize_rational,
    hasse_invariant,
    hasse_profile,
    hilbert_symbol,
    jordan_form_odd,
    least_nonresidue,
    rational_equivalent,
    same_genus_trace,
    trace_form_diagonal,
    trace_hasse,
    trace_hasse_profile,
    trace_jordan,
)
from nftrace.splitting import ramified_primes


def D(*entries):
    return DiagonalForm(tuple(Fraction(e) for e in entries))


# ----------------------------------------------------------------------
# Hilbert symbols
# ----------------------------------------------------------------------


def test_hilbert_spot_values():
    assert hilbert_symbol(3, 7, 7) == -1
    assert hilbert_symbol(7, 7, 7) == -1
    for b in (2, 3, -5, Fraction(7, 3)):
        for p in (3, 7, 2, -1):
            assert hilbert_symbol(1, b, p) == 1


def test_hilbert_real_place():
    assert hilbert_symbol(-1, -1, -1) == -1
    assert hilbert_symbol(-1, 3, -1) == 1
    assert hilbert_symbol(2, 5, -1) == 1


def test_hilbert_dyadic():
    # (2,2)_2 = +1: z=2, x=y=1 solves z^2 = 2x^2 + 2y^2
    assert hilbert_symbol(2, 2, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 2) == -1  # omega(3) = 1
    assert hilbert_symbol(2, 7, 2) == 1  # omega(7) = 0 since 7^2 = 49 = 48 + 1
    assert hilbert_symbol(-1, 3, 2) == -1
    # (-1,7)_2 = -1: mod 8, x^2 + z^2 with one of x,z odd is 1, 2 or 5,
    # never 7 y^2 in {0,7,4}
    assert hilbert_symbol(-1, 7, 2) == -1
    assert hilbert_symbol(-1, 5, 2) == 1  # eps(5) = 0


def test_hilbert_symmetry_and_bimultiplicativity():
    vals = [2, 3, 5, -7, 10, Fraction(3, 5), -1]
    for p in (2, 3, 5, 7, -1):
        for a in vals:
            for b in vals:
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                for c in vals:
                    assert hilbert_symbol(a * c * c, b, p) == hilbert_symbol(a, b, p)


def test_hilbert_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 7)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)


def test_hilbert_dyadic_via_reciprocity_and_odd_oracles():
    # independent check of the p = 2 formula: reciprocity forces
    # (a,b)_2 = prod over odd p | ab and the real place, and those factors
    # are verified against the brute-force solvability oracle elsewhere
    from test_acceptance import _odd_hilbert_oracle
    from nftrace.exact import factor_integer

    oracles = {}
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(-30, 31):
            if b == 0:
                continue
            expected = -1 if (a < 0 and b < 0) else 1
            for p, _ in factor_integer(a * b):
                if p > 2:
                    if p not in oracles:
                        oracles[p] = _odd_hilbert_oracle(p)
                    expected *= oracles[p](a, b)
            assert hilbert_symbol(a, b, 2) == expected, (a, b)


# ----------------------------------------------------------------------
# Hasse invariants of the paper's local forms
# ----------------------------------------------------------------------


def test_hasse_paper_forms_at_7():
    assert hasse_invariant(D(1, 3, 7, 21), 7) == 1
    assert hasse_invariant(D(1, 1, 7, 7), 7) == -1


def test_hasse_paper_forms_at_43():
    assert hasse_invariant(D(1, 1, 43, 43), 43) == -1
    assert hasse_invariant(D(1, 3, 43, 129), 43) == 1


def test_hasse_identity_form():
    for p in (2, 3, 7, 43, -1):
        assert hasse_invariant(D(1, 1, 1, 1), p) == 1


def test_hasse_profile_reciprocity():
    prof = hasse_profile(D(1, 3, 7, 21))
    assert prof.product() == 1
    assert prof.at(7) == 1
    assert prof.signature == (4, 0)
    assert prof.det_square_class() if False else prof.det_square_class == 1


# ----------------------------------------------------------------------
# rational diagonalization / equivalence
# ----------------------------------------------------------------------


def test_diagonalize_already_diagonal():
    d = diagonalize_rational([[2, 0], [0, -2]])
    assert d.entries == (2, -2)


def test_diagonalize_zero_pivot_repair():
    # hyperbolic plane: needs the row+column repair
    d = diagonalize_rational([[0, 1], [1, 0]])
    assert d.dimension == 2
    assert d.signature() == (1, 1)
    assert d.det_square_class() == -1


def test_diagonalize_singular_rejected():
    with pytest.raises(ValueError):
        diagonalize_rational([[1, 1], [1, 1]])


def test_disc49_cubic_trace_is_rationally_unit_form():
    G = trace_gram(field("c49"))
    assert rational_equivalent(G, D(1, 1, 1))
    d = trace_form_diagonal(field("c49"))
    assert d.signature() == (3, 0)
    assert d.det_square_class() == 1
    for p in (2, 3, 5, 7, 13, -1):
        assert hasse_invariant(d, p) == 1


def test_disc81_cubic_trace_is_rationally_unit_form():
    assert rational_equivalent(trace_gram(field("c81")), D(1, 1, 1))


def test_rational_equivalent_reflexive():
    G = trace_gram(field("K4"))
    assert rational_equivalent(G, G)


def test_rational_equivalent_distinguishes_paper_forms():
    assert not rational_equivalent(D(1, 3, 7, 21), D(1, 1, 7, 7))
    # same invariants everywhere except h_7 / h_43; dims, sig, det match
    assert D(1, 3, 7, 21).det_square_class() == D(1, 1, 7, 7).det_square_class()


def test_diagonalize_signature_vs_jacobi_minors():
    # independent signature oracle: when all leading principal minors are
    # nonzero, the number of negative eigenvalues equals the number of sign
    # changes in the minor sequence 1, D1, ..., Dn (Jacobi)
    import random

    from nftrace._linalg import int_det

    rng = random.Random(57)
    done = 0
    while done < 200:
        n = rng.randint(1, 5)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-9, 9)
        minors = [int_det([row[: k + 1] for row in M[: k + 1]]) for k in range(n)]
        if any(m == 0 for m in minors):
            continue
        seq = [1] + minors
        neg = sum(1 for x, y in zip(seq, seq[1:]) if (x > 0) != (y > 0))
        d = diagonalize_rational(M)
        assert d.signature() == (n - neg, neg)
        # determinant square class survives congruence
        from nftrace.exact import squarefree_part

        assert d.det_square_class() == squarefree_part(minors[-1])
        done += 1


# ----------------------------------------------------------------------
# Jordan decompositions at the paper's primes
# ----------------------------------------------------------------------


def test_least_nonresidue():
    assert least_nonresidue(7) == 3
    assert least_nonresidue(43) == 2
    assert least_nonresidue(3) == 2
    assert least_nonresidue(13) == 2


def test_jordan_quartic_K_at_7():
    J = jordan_form_odd(trace_gram(field("K4")), 7)
    assert (J.unimodular_dim, J.unimodular_class) == (2, NONSQUARE)
    assert (J.p_part_dim, J.p_part_class) == (2, NONSQUARE)
    assert J.higher_blocks == ()
    assert J.display() == "<1,3> (+) 7<1,3>"
    assert J.flattened() == "<1,3,7,21>"


def test_jordan_quartic_L_at_7():
    J = jordan_form_odd(trace_gram(field("L4")), 7)
    assert (J.unimodular_dim, J.unimodular_class) == (2, SQUARE)
    assert (J.p_part_dim, J.p_part_class) == (2, SQUARE)
    assert J.display() == "<1,1> (+) 7<1,1>"
    assert J.flattened() == "<1,1,7,7>"


def test_jordan_quartic_K_at_43():
    J = jordan_form_odd(trace_gram(field("K4")), 43)
    assert (J.unimodular_dim, J.unimodular_class) == (2, SQUARE)
    assert (J.p_part_dim, J.p_part_class) == (2, SQUARE)
    assert J.flattened() == "<1,1,43,43>"


def test_jordan_quartic_L_at_43():
    J = jordan_form_odd(trace_gram(field("L4")), 43)
    assert (J.unimodular_dim, J.unimodular_class) == (2, NONSQUARE)
    assert (J.p_part_dim, J.p_part_class) == (2, NONSQUARE)
    # 2 and 3 are both nonresidues mod 43, so this is the class of <1,3,43,129>
    assert J.display() == "<1,2> (+) 43<1,2>"


def test_jordan_rejects_p2_and_composites():
    G = trace_gram(field("K4"))
    with pytest.raises(ValueError):
        jordan_form_odd(G, 2)
    with pytest.raises(ValueError):
        jordan_form_odd(G, 15)


def test_jordan_hasse_consistency():
    # h_p from the Jordan diagonal equals h_p from the rational diagonalization
    for name in ("K4", "L4", "c49", "c8281a"):
        K = field(name)
        G = trace_gram(K)
        for p in (3, 7, 13, 43):
            J = jordan_form_odd(G, p)
            assert hasse_invariant(J.diagonal_form(), p) == trace_hasse(K, p), (name, p)


def test_jordan_tame_shape():
    # tame odd ramified p: valuations in {0,1} and p-part dim = v_p(disc)
    from nftrace.exact import factor_integer
    from nftrace.splitting import is_tame, ramified_primes

    for name in ("K4", "L4", "F7", "L7", "c49", "c8281a", "c8281b", "S6a"):
        K = field(name)
        dfac = factor_integer(K.disc).as_dict()
        for p in ramified_primes(K):
            if p == 2 or not is_tame(K, p):
                continue
            J = jordan_form_odd(trace_gram(K), p)
            assert J.higher_blocks == (), (name, p)
            assert J.p_part_dim == dfac[p], (name, p)


def test_jordan_det_class_consistency():
    # det of the Jordan form matches disc(K) up to squares of p-units:
    # same p-valuation parity and same unit square class
    from nftrace.exact import legendre

    for name, p in (("K4", 7), ("K4", 43), ("L4", 7), ("L4", 43), ("c8281a", 7)):
        K = field(name)
        J = jordan_form_odd(trace_gram(K), p)
        form = J.diagonal_form()
        det = 1
        for e in form.entries:
            det *= int(e)
        v = 0
        d = det
        while d % p == 0:
            d //= p
            v += 1
        disc_v = 0
        dd = abs(K.disc)
        while dd % p == 0:
            dd //= p
            disc_v += 1
        disc_unit = K.disc // p**disc_v
        assert v == disc_v, (name, p)
        assert legendre(d, p) == legendre(disc_unit, p), (name, p)


# ----------------------------------------------------------------------
# genus comparison
# ----------------------------------------------------------------------


def test_same_genus_quartic_pair_false():
    cmp = same_genus_trace(field("K4"), field("L4"))
    assert cmp.applicable
    assert cmp.equal is False
    ev = {p: (hK, hL) for p, hK, hL in cmp.per_prime}
    assert ev[7] == (1, -1)
    assert ev[43] == (-1, 1)
    assert ev[13][0] == ev[13][1]


def test_same_genus_8281_cubics_true():
    cmp = same_genus_trace(field("c8281a"), field("c8281b"))
    assert cmp.applicable
    assert cmp.equal is True


def test_same_genus_reflexive():
    cmp = same_genus_trace(field("K4"), field("K4"))
    assert cmp.applicable and cmp.equal


def test_same_genus_inapplicable_different_disc():
    cmp = same_genus_trace(field("c49"), field("c81"))
    assert not cmp.applicable
    assert "discriminant" in cmp.failed_hypothesis


def test_same_genus_inapplicable_wild():
    cmp = same_genus_trace(field("G7a"), field("G7b"))
    assert not cmp.applicable
    assert "tame" in cmp.failed_hypothesis


# ----------------------------------------------------------------------
# Hasse profile by factor refinement, and the per-field trace profile
# ----------------------------------------------------------------------

SMOOTH = (2, 3, 4, 6, 8, 9, 12)


def _hasse_profile_oracle(d):
    """The entry-by-entry profile: factor each entry's numerator times
    denominator for the support, the product of all of them for the det
    class, and multiply checked Hilbert symbols pair by pair."""
    support, det = {-1, 2}, 1
    for e in d.entries:
        m = e.numerator * e.denominator
        det *= m
        support.update(q for q, _ in factor_integer(m))
    es = d.entries
    values = {}
    for p in sorted(support):
        h = 1
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                h *= hilbert_symbol(es[i], es[j], p)
        values[p] = h
    return values, squarefree_part(det), d.signature()


def _rescaled_corpus():
    """c^n g(x/c) for every CORPUS g of degree >= 3 and smooth c."""
    out = []
    for coeffs in CORPUS.values():
        n = len(coeffs) - 1
        if n >= 3:
            for c in SMOOTH:
                out.append(new_field(IntPoly([a * c ** (n - k) for k, a in enumerate(coeffs)])))
    return out


def _profile_fields():
    from test_acceptance import _random_fields

    return [field(name) for name in CORPUS] + _random_fields() + _rescaled_corpus()


def test_hasse_profile_matches_entry_by_entry_oracle():
    fields = _profile_fields()
    assert len(fields) == 17 + 150 + 105
    for K in fields:
        d = trace_form_diagonal(K)
        want = _hasse_profile_oracle(d)
        for prof in (hasse_profile(d), trace_hasse_profile(K)):
            assert (prof.values, prof.det_square_class, prof.signature) == want, K


def test_hasse_profile_oracle_random_fractions():
    # entries sharing primes in numerators and denominators, with squares
    rng = random.Random(1993)
    primes = [2, 3, 5, 7, 11, 13, 10007, 1000003]
    for _ in range(100):
        entries = []
        for _ in range(rng.randint(1, 6)):
            num = rng.choice([1, -1]) * math.prod(rng.sample(primes, rng.randint(0, 3)))
            den = math.prod(rng.choice(primes) ** rng.randint(0, 2) for _ in range(2))
            entries.append(Fraction(num, den))
        d = DiagonalForm(tuple(entries))
        prof = hasse_profile(d)
        assert (prof.values, prof.det_square_class, prof.signature) == _hasse_profile_oracle(d)
        assert d.det_square_class() == prof.det_square_class


def test_trace_hasse_equals_hasse_invariant():
    odd_primes = [p for p in range(3, 200) if is_prime(p)]
    for name in CORPUS:
        K = field(name)
        d = trace_form_diagonal(K)
        for p in sorted(set(odd_primes) | ramified_primes(K) | {-1, 2}):
            assert trace_hasse(K, p) == hasse_invariant(d, p), (name, p)


def test_trace_hasse_rejects_non_places():
    with pytest.raises(ValueError):
        trace_hasse(field("K4"), 15)


def test_trace_hasse_profile_checks_det_class_against_disc():
    K = new_field(IntPoly(CORPUS["C3a"]))  # disc -4027, not the shared field
    K.disc_factorization = Factorization(-1, ((3, 1), (4027, 1)))
    with pytest.raises(InternalInvariantError, match="square class"):
        trace_hasse_profile(K)


def test_trace_jordan_matches_jordan_form_odd():
    for name in ("K4", "L4", "c8281a", "S6a"):
        K = field(name)
        for p in ramified_primes(K) - {2}:
            assert trace_jordan(K, p) == jordan_form_odd(trace_gram(K), p)
            assert trace_jordan(K, p) is trace_jordan(K, p)  # per-field memo


def test_hasse_invariant_checks_prime_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    d = D(1, 2, 3, 5, 7, 11)
    want = _hasse_profile_oracle(d)[0][11]
    monkeypatch.setattr(quadform, "is_prime", counting_is_prime)
    assert hasse_invariant(d, 11) == want
    assert calls == [11]
    with pytest.raises(ValueError):
        hasse_invariant(D(3), 15)
    assert hilbert_symbol(2, 11, 11) == -1  # the public symbol still checks
    assert calls[-1] == 11
