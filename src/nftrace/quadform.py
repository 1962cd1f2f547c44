"""Rational and p-adic invariants of integral quadratic forms.

Hasse-Witt invariants use the strict i < j product convention
h_p = prod_{i<j} (a_i, a_j)_p over a rational diagonalization.  Both
eliminations are fraction-free.  The rational diagonal comes from
symmetric Bareiss elimination on the integer matrix: its pivots are the
leading principal minors D_k of a congruent integral form, and the entries
are d_k = D_k / D_{k-1} (Bareiss, Math. Comp. 1968).  The odd-p Jordan
decomposition pivots on an entry of minimal p-valuation, so tame trace
forms come out with valuations in {0, 1} only, and runs over Z/p^K with
K = v_p(det) + 1 (Conway & Sloane, SPLAG ch. 15): each trailing block has
an entry of valuation at most v_p(det) < K, so the residues fix every
pivot, valuation and unit class.  Unit square classes are abstract
(square / nonsquare) and displayed with the least positive nonresidue.

A Hasse profile needs the support of a diagonal form: -1, 2 and the odd
primes dividing some entry.  The entries are never multiplied together and
factored.  Their numerators and denominators go through one factor
refinement (`exact.factor_integers`): known primes are divided out, the
cofactors are split into pairwise coprime parts by gcds, and only those
parts are factored.  Symmetric elimination gives entries
d_k = D_k / D_{k-1} from the leading principal minors D_k, so each prime of
D_k (k < n) sits in two neighbouring entries and gcds isolate it, and
D_n = disc(K), whose primes the field already holds.  The refinement
isolates each D_k but still has to factor it, which is cheap at low degree
only: at degree 10-12 the minors have 70-100 digits and prime factors
unrelated to disc(K), and the profile of a single field has taken from 13 s
to over 30 s (ROADMAP item 11).  Off the support every entry is a p-unit
at an odd p, so every symbol (a_i, a_j)_p and hence h_p is +1; the profile
is therefore exact at every place, and `trace_hasse` reads h_p from the
per-field profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from nftrace.exact import (
    Factorization,
    InternalInvariantError,
    factor_integers,
    is_prime,
    jacobi,
    legendre,
    split_val,
)
from nftrace.numberfield import GramMatrix, NumberField, per_field, trace_gram
from nftrace.splitting import is_tame_field, ramified_primes


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal quadratic form <a_1, ..., a_n> over Q, all entries nonzero."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if any(not e for e in self.entries):
            raise ValueError("diagonal entries must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def signature(self) -> tuple[int, int]:
        pos = sum(1 for e in self.entries if e > 0)
        return pos, len(self.entries) - pos

    def det_square_class(self) -> int:
        return _det_square_class(_factor_entries(self))

    def __str__(self) -> str:
        return "<" + ",".join(str(e) for e in self.entries) + ">"


def _int_matrix(G) -> tuple[list[list[int]], int]:
    """(L*G, L) for a square symmetric rational matrix G, L the least
    common denominator of its entries (1 for every Gram matrix)."""
    entries = G.entries if isinstance(G, GramMatrix) else G
    M = [list(row) for row in entries]
    L = 1
    if not all(type(a) is int for row in M for a in row):
        M = [[Fraction(a) for a in row] for row in M]
        L = math.lcm(*(a.denominator for row in M for a in row))
        M = [[a.numerator * (L // a.denominator) for a in row] for row in M]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j] != M[j][i]:
                raise ValueError("matrix is not symmetric")
    return M, L


def _diagonal_from_pivots(minors: list[int], L: int) -> DiagonalForm:
    """<D_0/L, D_1/(D_0 L), ..., D_{n-1}/(D_{n-2} L)>: the output half of
    `_int_matrix`, turning integer pivots back into rational entries."""
    prevs = [1] + minors[:-1]
    return DiagonalForm(tuple(Fraction(d, q * L) for d, q in zip(minors, prevs)))


def _sym_bareiss(M: list[list[int]]) -> list[int]:
    """Pivots D_0, ..., D_{n-1} of fraction-free symmetric elimination on a
    symmetric integer matrix M, which is overwritten.

    A vanishing pivot is repaired by swapping in a later nonzero diagonal
    entry, else by adding a later row+column with a nonzero entry in the
    pivot row; when neither exists M is singular.  The repairs are
    unimodular congruences, so D_k is the k-th leading principal minor of
    an integral form congruent to M, D_{n-1} = det M, and the trailing block
    after step k is D_k times the rational Schur complement: each update
    divides exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968).
    """
    n = len(M)
    prev = 1
    minors = []
    for k in range(n):
        if not M[k][k]:
            l = next((l for l in range(k + 1, n) if M[l][l]), None)
            if l is not None:
                _swap_sym(M, k, l)
            else:
                l = next((l for l in range(k + 1, n) if M[k][l]), None)
                if l is None:
                    raise ValueError("matrix is singular")
                _add_sym(M, k, l)
        rk = M[k]
        piv = rk[k]
        for i in range(k + 1, n):
            ri, a = M[i], rk[i]
            for j in range(i, n):
                ri[j] = M[j][i] = (piv * ri[j] - a * rk[j]) // prev
        prev = piv
        minors.append(piv)
    return minors


def diagonalize_rational(G) -> DiagonalForm:
    """Congruent diagonal form over Q by symmetric elimination.

    Fraction-free on the integer matrix L*G (`_sym_bareiss`): with D_k its
    pivots and D_{-1} = 1, the diagonal is d_k = D_k / (D_{k-1} L), the
    entries the same elimination over Q would give.  Raises ValueError when
    G is singular.
    """
    M, L = _int_matrix(G)
    return _diagonal_from_pivots(_sym_bareiss(M), L)


def _swap_sym(M, i, j):
    M[i], M[j] = M[j], M[i]
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add_sym(M, i, j):
    for c in range(len(M)):
        M[i][c] += M[j][c]
    for r in range(len(M)):
        M[r][i] += M[r][j]


# ----------------------------------------------------------------------
# Hilbert symbols and Hasse invariants
# ----------------------------------------------------------------------


def _square_class_int(a) -> int:
    a = Fraction(a)
    if not a:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return a.numerator * a.denominator


def _check_place(p: int) -> None:
    if p not in (-1, 2) and (p < 2 or not is_prime(p)):
        raise ValueError(f"{p} is not a prime, 2 or -1")


def _local(a: int, p: int):
    """What (a, b)_p reads of a nonzero integer a: a itself at p = -1,
    else (v_p(a), p-free part)."""
    return a if p == -1 else split_val(a, p)


def _hilbert(x, y, p: int) -> int:
    """(a, b)_p from x = _local(a, p) and y = _local(b, p); p is checked."""
    if p == -1:
        return -1 if x < 0 and y < 0 else 1
    (alpha, u), (beta, v) = x, y
    if p == 2:
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        expo = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if expo % 2 else 1
    eps_p = (p - 1) // 2 % 2
    out = 1
    if alpha % 2 and beta % 2 and eps_p:
        out = -out
    if beta % 2 and jacobi(u, p) == -1:
        out = -out
    if alpha % 2 and jacobi(v, p) == -1:
        out = -out
    return out


def hilbert_symbol(a, b, p: int) -> int:
    """(a, b)_p: +1 iff z^2 = a x^2 + b y^2 has a nontrivial p-adic
    solution; p is a finite prime, 2, or -1 for the real place."""
    ai = _square_class_int(a)
    bi = _square_class_int(b)
    _check_place(p)
    return _hilbert(_local(ai, p), _local(bi, p), p)


def hasse_invariant(d: DiagonalForm, p: int) -> int:
    """h_p = prod over i < j of (a_i, a_j)_p."""
    _check_place(p)
    xs = [_local(_square_class_int(e), p) for e in d.entries]
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= _hilbert(xs[i], xs[j], p)
    return out


@dataclass
class HasseProfile:
    """Hasse invariants over the support plus signature and det class."""

    values: dict[int, int]
    det_square_class: int
    signature: tuple[int, int]

    def at(self, p: int) -> int:
        """h_p at any place: +1 off the support (see the module docstring)."""
        return self.values.get(p, 1)

    def product(self) -> int:
        out = 1
        for v in self.values.values():
            out *= v
        return out

    def is_unit_form(self) -> bool:
        """Hasse-Minkowski against <1, ..., 1>: positive definite, det class
        1 and h_p = +1 at every place."""
        return (
            self.signature[1] == 0
            and self.det_square_class == 1
            and all(v == 1 for v in self.values.values())
        )


def _factor_entries(d: DiagonalForm, known_primes=()) -> list[Factorization]:
    """Factorizations of every numerator and denominator of the entries,
    from one factor refinement."""
    return factor_integers(
        [x for e in d.entries for x in (e.numerator, e.denominator)], known_primes
    )


def _det_square_class(facs: list[Factorization]) -> int:
    """Squarefree class of the product of the factored integers."""
    sign, odd = 1, set()
    for fac in facs:
        sign *= fac.sign
        odd ^= {q for q, e in fac if e % 2}
    out = sign
    for q in odd:
        out *= q
    return out


def hasse_profile(d: DiagonalForm, *, known_primes=()) -> HasseProfile:
    """Invariants over {-1, 2} and every odd prime in the support.

    The support comes from one factor refinement of the entries (see the
    module docstring); `known_primes` are certified primes that may divide
    them, such as those of disc(K) for a trace form, and are divided out
    before anything is factored.
    """
    facs = _factor_entries(d, known_primes)
    support = {-1, 2} | {q for fac in facs for q in fac.primes()}
    values = {p: hasse_invariant(d, p) for p in sorted(support)}
    prof = HasseProfile(values, _det_square_class(facs), d.signature())
    if prof.product() != 1:
        raise InternalInvariantError("Hilbert reciprocity fails for Hasse profile")
    return prof


def rational_equivalent(G1, G2) -> bool:
    """Hasse-Minkowski: same dimension, signature, det class and h_p."""
    d1 = G1 if isinstance(G1, DiagonalForm) else diagonalize_rational(G1)
    d2 = G2 if isinstance(G2, DiagonalForm) else diagonalize_rational(G2)
    if d1.dimension != d2.dimension:
        return False
    if d1.signature() != d2.signature():
        return False
    p1, p2 = hasse_profile(d1), hasse_profile(d2)
    if p1.det_square_class != p2.det_square_class:
        return False
    for p in sorted(set(p1.values) | set(p2.values)):
        if p1.at(p) != p2.at(p):
            return False
    return True


# ----------------------------------------------------------------------
# odd-p Jordan decomposition
# ----------------------------------------------------------------------

SQUARE = "square"
NONSQUARE = "nonsquare"


@dataclass(frozen=True)
class JordanForm:
    """Odd-p Jordan data: p^v-scaled unimodular blocks with unit classes.

    For tame trace forms the valuations are only 0 and 1: an f-dimensional
    unimodular block of class alpha and a p-scaled block of class beta;
    anything deeper lands in higher_blocks.
    """

    p: int
    unimodular_dim: int
    unimodular_class: str
    p_part_dim: int
    p_part_class: str
    higher_blocks: tuple[tuple[int, int, str], ...] = ()

    @property
    def dimension(self) -> int:
        return (
            self.unimodular_dim
            + self.p_part_dim
            + sum(d for _, d, _ in self.higher_blocks)
        )

    def blocks(self) -> list[tuple[int, int, str]]:
        out = []
        if self.unimodular_dim:
            out.append((0, self.unimodular_dim, self.unimodular_class))
        if self.p_part_dim:
            out.append((1, self.p_part_dim, self.p_part_class))
        out.extend(self.higher_blocks)
        return out

    def _unit_entries(self, dim: int, cls: str) -> list[int]:
        r = least_nonresidue(self.p)
        return [1] * (dim - 1) + [1 if cls == SQUARE else r]

    def display(self) -> str:
        parts = []
        for v, dim, cls in self.blocks():
            body = "<" + ",".join(str(c) for c in self._unit_entries(dim, cls)) + ">"
            if v == 0:
                parts.append(body)
            elif v == 1:
                parts.append(f"{self.p}{body}")
            else:
                parts.append(f"{self.p}^{v}{body}")
        return " (+) ".join(parts)

    def flattened(self) -> str:
        out = []
        for v, dim, cls in self.blocks():
            scale = self.p**v
            out.extend(scale * c for c in self._unit_entries(dim, cls))
        return "<" + ",".join(str(c) for c in out) + ">"

    def diagonal_form(self) -> DiagonalForm:
        out = []
        for v, dim, cls in self.blocks():
            scale = self.p**v
            out.extend(Fraction(scale * c) for c in self._unit_entries(dim, cls))
        return DiagonalForm(tuple(out))


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime."""
    for r in range(2, p):
        if legendre(r, p) == -1:
            return r
    raise ValueError("no nonresidue found")


def jordan_form_odd(G, p: int) -> JordanForm:
    """Jordan decomposition of the form over Z_p, p odd.

    Diagonalizes over Z/p^K, K = v_p(det G) + 1, with minimal-valuation
    pivots (ties broken by position: diagonal first, then row order), so
    every multiplier c = (M[r][k] / p^v) * u^-1 is p-integral; groups the
    diagonal by valuation and reduces each block's unit product to its
    Legendre class.  Every trailing block has determinant of valuation at
    most v_p(det G) < K, hence an entry of valuation below K: the residues
    mod p^K determine each pivot, its valuation and its unit class, and the
    choices are those of the same elimination over Q.  v_p(det G) is read
    off the last pivot of `_sym_bareiss`.  G must be p-integral (ValueError
    if not); a rational G is scaled by the square of its common
    denominator, which changes no unit class.
    """
    if p == 2:
        raise ValueError("dyadic Jordan decomposition is not supported")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    M, L = _int_matrix(G)
    if L % p == 0:
        raise ValueError(f"form is not {p}-integral")
    if L > 1:
        M = [[a * L for a in row] for row in M]
    n = len(M)
    minors = _sym_bareiss([list(row) for row in M])
    det_val, _ = split_val(minors[-1] if minors else 1, p)
    pk = p ** (det_val + 1)
    M = [[a % pk for a in row] for row in M]
    blocks: dict[int, list[int]] = {}  # valuation -> unit parts of the pivots
    for k in range(n):
        # locate minimal-valuation entry in the trailing block
        best = None  # (valuation, not-diagonal, i, j)
        for i in range(k, n):
            row = M[i]
            for j in range(i, n):
                if row[j]:
                    key = (split_val(row[j], p)[0], i != j, i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise ValueError("matrix is singular")
        v, offdiag, i, j = best
        if offdiag:
            _add_sym(M, i, j)  # valuation of M[i][i] now equals the minimum
        if i != k:
            _swap_sym(M, k, i)
        rk = M[k]
        pv = p**v
        u = rk[k] // pv
        u_inv = pow(u, -1, pk)
        for r in range(k + 1, n):
            if rk[r]:
                c = rk[r] // pv * u_inv % pk
                row = M[r]
                for t in range(r, n):
                    row[t] = M[t][r] = (row[t] - c * rk[t]) % pk
        blocks.setdefault(v, []).append(u)
    classes = {}
    for v, us in blocks.items():
        prod = 1
        for u in us:
            prod = prod * u % p
        classes[v] = SQUARE if legendre(prod, p) == 1 else NONSQUARE
    higher = tuple(
        (v, len(blocks[v]), classes[v]) for v in sorted(blocks) if v >= 2
    )
    return JordanForm(
        p,
        len(blocks.get(0, ())),
        classes.get(0, SQUARE),
        len(blocks.get(1, ())),
        classes.get(1, SQUARE),
        higher,
    )


# ----------------------------------------------------------------------
# trace-form genus comparison
# ----------------------------------------------------------------------


@per_field
def trace_form_diagonal(K: NumberField) -> DiagonalForm:
    """Rational diagonalization of the integral trace form, cached."""
    return diagonalize_rational(trace_gram(K))


@per_field
def trace_hasse_profile(K: NumberField) -> HasseProfile:
    """Hasse profile of the trace form, factored once per field.

    The primes of disc(K) = det of the trace form are known from the field
    and passed in; the det class is cross-checked against disc(K).
    """
    disc_fac = K.disc_factorization
    prof = hasse_profile(trace_form_diagonal(K), known_primes=disc_fac.primes())
    if prof.det_square_class != disc_fac.squarefree_part():
        raise InternalInvariantError(
            f"trace form of {K.defining_poly}: det class {prof.det_square_class} "
            f"is not the square class {disc_fac.squarefree_part()} of disc(K)"
        )
    return prof


def trace_hasse(K: NumberField, p: int) -> int:
    """h_p of the trace form of K, read off its cached Hasse profile."""
    _check_place(p)
    return trace_hasse_profile(K).at(p)


@per_field
def trace_jordan(K: NumberField, p: int) -> JordanForm:
    """Odd-p Jordan form of the integral trace form, cached."""
    return jordan_form_odd(trace_gram(K), p)


@dataclass(frozen=True)
class GenusComparison:
    """Outcome of the tame genus test, with per-prime Hasse evidence."""

    applicable: bool
    failed_hypothesis: str | None
    equal: bool | None
    per_prime: tuple[tuple[int, int, int], ...] = ()  # (p, h_p(K), h_p(L))

    def __bool__(self) -> bool:
        return bool(self.equal)


def same_genus_trace(K: NumberField, L: NumberField) -> GenusComparison:
    """Genus equality of the integral trace forms via Hasse invariants.

    Valid for tame fields of equal discriminant and signature; any failed
    hypothesis is reported rather than silently ignored.  Under the
    hypotheses the genus agrees iff h_p matches at every odd prime, and
    the only candidates are the odd divisors of the discriminant.
    """
    if K.disc != L.disc:
        return GenusComparison(False, "equal discriminants", None)
    if K.signature != L.signature:
        return GenusComparison(False, "equal signatures", None)
    if not (is_tame_field(K) and is_tame_field(L)):
        return GenusComparison(False, "tame ramification", None)
    evidence = []
    equal = True
    for p in sorted(ramified_primes(K)):
        if p == 2:
            continue
        hK = trace_hasse(K, p)
        hL = trace_hasse(L, p)
        evidence.append((p, hK, hL))
        if hK != hL:
            equal = False
    return GenusComparison(True, None, equal, tuple(evidence))
