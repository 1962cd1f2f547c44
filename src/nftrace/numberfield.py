"""Number fields: maximal order, discriminant, signature, trace form.

A field is built from a monic irreducible polynomial.  The maximal order
comes from the Round-2 procedure, run at every prime p whose square
divides disc(f).  It starts from the order spanned by the theta^j /
p^floor(j*lam), where lam is the least slope of the p-adic Newton polygon
of f (Ore's bound: every root has valuation >= lam), and enlarges it
through the ring of multipliers of its p-radical.  Ore's theorem of the
index (local.ore) is taken first at each such prime.  Where f is
p-regular it gives v_p([O_K : Z[theta]]), and Round-2 stops as soon as its
order reaches that index: the order is then p-maximal, so no enlargement
runs only to confirm it.  Elsewhere Round-2 stops once p^2 no longer
divides disc(O) = disc(f) / [O : Z[theta]]^2, since then p cannot divide
[O_K : O] (Cohen, A Course in Computational Algebraic Number Theory,
6.1), or on an enlargement that finds nothing.  The per-prime results are
then summed.  Ore's index is also the independent check on Round-2: the
two must agree at a regular prime, Ore's must not exceed Round-2's at an
irregular one, and Round-2 must return Z[theta] at p exactly when f is
p-regular with index exponent 0, which is Dedekind's criterion.

An order is held as (den, rows): integer rows, lower triangular with
positive diagonal, such that omega_i = rows[i] / den in the power basis
1, theta, ..., theta^(n-1), with omega_1 = 1.  All order arithmetic stays
in integers: a product omega_i * omega_j is taken on the numerator rows
mod the monic f, and its basis coordinates come from exact
back-substitution on the triangular rows.  A remainder anywhere (a
numerator not divisible by den, or a pivot that does not divide) means
the lattice is not closed under multiplication.  Structure constants are
integer vectors, and one multiply, _alg_mul, serves every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from nftrace._linalg import (
    hnf_rows,
    int_adjugate,
    int_det,
    lattice_coords,
    lll_reduce,
    nearest_plane,
    nullspace_mod_p,
)
from nftrace.exact import (
    Factorization,
    InternalInvariantError,
    IntPoly,
    _centered,
    _gf_distinct_degree,
    count_real_roots,
    factor_integer,
    factor_poly,
    factor_poly_mod,
    gf_add,
    gf_from_intpoly,
    gf_gcdex,
    gf_monic,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
    is_prime,
    poly_discriminant,
)
from nftrace.local import _valuation, ore


class FieldConstructionError(ValueError):
    """Raised when the defining polynomial is unusable."""


# ----------------------------------------------------------------------
# order arithmetic: bases, structure constants, Round-2
# ----------------------------------------------------------------------


def _power_sums(f: IntPoly, count: int) -> list[int]:
    """Tr(theta^k) for k < count via Newton's identities (f monic)."""
    n = f.degree
    a = f.coeffs
    s = [n]
    for k in range(1, count):
        acc = -k * a[n - k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc -= a[n - i] * s[k - i]
        s.append(acc)
    return s


def _canonical_basis(den: int, rows: list[list[int]]):
    """Canonical triangular basis of the order lattice (omega_1 = 1).

    HNF is taken with columns reversed (constant coordinate last) so the
    flipped result is lower triangular in ascending powers of theta and its
    first vector is the minimal element of O cap Q, which is 1.
    """
    n = len(rows)
    g = den
    for r in rows:
        for a in r:
            g = math.gcd(g, a)
    if g > 1:
        den //= g
        rows = [[a // g for a in r] for r in rows]
    rev = [list(reversed(r)) for r in rows]
    H = hnf_rows(rev)
    if len(H) != n:
        raise InternalInvariantError("order basis lost rank")
    out = [list(reversed(r)) for r in reversed(H)]
    if out[0][0] != den or any(out[0][1:]):
        raise InternalInvariantError("order does not contain 1 as first basis vector")
    return den, out


def _mult_table(f: IntPoly, den: int, rows: list[list[int]]):
    """Structure constants C[i][j] (integer vectors) and the integer
    change-of-basis matrix from power coordinates to basis coordinates.

    omega_i * omega_j = P / den^2 with P = rows[i] * rows[j] mod f, so its
    coordinates solve sum_k c_k rows[k] = P / den.  Integrality of every
    solution is exactly ring closure of the basis and Z[theta] containment;
    failure means the lattice is not an order.
    """
    n = f.degree
    # back-substitution is lattice_coords on the echelon form obtained by
    # reversing both the row order and the coordinates (as _canonical_basis)
    echelon = [r[::-1] for r in reversed(rows)]

    def coords(v):
        c = lattice_coords(echelon, v[::-1])
        return None if c is None else c[::-1]

    minv = []
    for t in range(n):
        c = coords([den if k == t else 0 for k in range(n)])
        if c is None:
            raise InternalInvariantError("order does not contain Z[theta]")
        minv.append(c)
    C = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            prod = _int_mul_mod(rows[i], rows[j], f.coeffs)
            c = None
            if not any(a % den for a in prod):
                c = coords([a // den for a in prod])
            if c is None:
                raise InternalInvariantError("basis is not closed under multiplication")
            C[i][j] = C[j][i] = tuple(c)
    return C, minv


def _int_mul_mod(a, b, fc):
    """Product of integer coefficient lists reduced mod the monic polynomial
    with coefficients fc; the result has len(fc) - 1 entries."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    n = len(fc) - 1
    for d in range(len(out) - 1, n - 1, -1):
        c = out[d]
        if c:
            for k in range(n):
                out[d - n + k] -= c * fc[k]
    return out[:n]


def _alg_mul(C, a, b):
    """Product of two elements in basis coordinates, given structure constants C."""
    out = [0] * len(C)
    for i, ai in enumerate(a):
        if ai:
            Ci = C[i]
            for j, bj in enumerate(b):
                if bj:
                    w = ai * bj
                    for k, c in enumerate(Ci[j]):
                        if c:
                            out[k] += w * c
    return out


def _alg_pow(mult, one, v, e):
    """v^e by left-to-right square-and-multiply under the multiplication `mult`.

    Each step multiplies by v itself, which is cheap when v is sparse (a
    basis vector); there is no squaring after the last bit and no product
    with `one`, so v^2 costs one multiply.
    """
    if not e:
        return one
    result = v
    for bit in bin(e)[3:]:
        result = mult(result, result)
        if bit == "1":
            result = mult(result, v)
    return result


def _frobenius_power_matrix(C, p, n):
    """Matrix of x -> x^(p^m) on O/pO with p^m >= n, columns = images."""
    def mult(u, v):
        return [c % p for c in _alg_mul(C, u, v)]

    one = [1] + [0] * (n - 1)
    cols = [_alg_pow(mult, one, [int(k == i) for k in range(n)], p) for i in range(n)]
    F = [[cols[c][r] for c in range(n)] for r in range(n)]
    m = 1
    q = p
    while q < n:
        q *= p
        m += 1
    Fm = F
    for _ in range(m - 1):
        Fm = [[sum(Fm[r][t] * F[t][c] for t in range(n)) % p for c in range(n)]
              for r in range(n)]
    return Fm


def _radical_mod_p(C, p, n):
    """Basis of the nilradical of O/pO (kernel of the p^m-power map)."""
    return nullspace_mod_p(_frobenius_power_matrix(C, p, n), p)


def _enlarge_at_p(f: IntPoly, den: int, rows: list[list[int]], p: int):
    """One Round-2 enlargement through the multiplier ring of the p-radical.

    Returns the enlarged (den, rows) or None when the order is p-maximal.
    """
    n = f.degree
    C, _ = _mult_table(f, den, rows)
    rad = _radical_mod_p(C, p, n)
    ideal_rows = [[p if j == i else 0 for j in range(n)] for i in range(n)]
    ideal_rows += [[c % p for c in v] for v in rad]
    T = hnf_rows(ideal_rows)
    if len(T) != n:
        raise InternalInvariantError("radical ideal lost rank")
    # multipliers: y in O with y * I_p inside p * I_p, as a kernel mod p
    constraint_rows = []
    for t in T:
        prods = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            prods.append(_alg_mul(C, e, t))
        coords = []
        for v in prods:
            cv = lattice_coords(T, v)
            if cv is None:
                raise InternalInvariantError("ideal is not closed under O-multiplication")
            coords.append(cv)
        for k in range(n):
            constraint_rows.append([coords[i][k] % p for i in range(n)])
    ker = nullspace_mod_p(constraint_rows, p)
    stack = [[p if j == i else 0 for j in range(n)] for i in range(n)]
    stack += [[c % p for c in v] for v in ker]
    H = hnf_rows(stack)
    if all(H[i][j] == (p if i == j else 0) for i in range(n) for j in range(n)):
        return None
    # new order = (H / p) in current-basis coordinates
    new_rows = [[sum(H[i][t] * rows[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
    return _canonical_basis(den * p, new_rows)


def _newton_start(f: IntPoly, p: int):
    """The order spanned by theta^j / p^floor(j*lam), as (den, rows).

    lam = min_k v_p(a_(n-k)) / k is the least slope of the p-adic Newton
    polygon of f, so every root has valuation >= lam and each theta^j /
    p^floor(j*lam) is integral.  Their span is closed under multiplication
    because floor(m*lam) - floor(j*lam) <= ceil((m-j)*lam); _mult_table
    still checks closure exactly.  lam is kept as the integer pair (v, k).
    """
    n = f.degree
    a = f.coeffs
    v, k = 1, 0  # lam = v / k, starting at infinity
    for kk in range(1, n + 1):
        if a[n - kk]:
            vv = _valuation(a[n - kk], p)
            if vv * k < v * kk:
                v, k = vv, kk
    top = (n - 1) * v // k
    rows = [[p ** (top - j * v // k) if i == j else 0 for j in range(n)] for i in range(n)]
    return p**top, rows


def _p_maximal_order(f: IntPoly, p: int, disc_exp: int, ore_exp: int | None):
    """p-maximal order containing Z[theta], by iterated enlargement.

    Returns (den, rows, v) with v = v_p([O : Z[theta]]).  disc_exp is
    v_p(disc f), and ore_exp is Ore's index exponent where f is p-regular,
    else None.  The iteration starts at the Newton-polygon order of
    _newton_start instead of Z[theta].  It stops as soon as v reaches
    ore_exp, which Ore's theorem proves p-maximal, or v_p(disc O) =
    disc_exp - 2 v is below 2, when p does not divide [O_K : O].
    Otherwise O is enlarged through the multiplier ring of its p-radical,
    and an enlargement that finds nothing proves O p-maximal.  The start
    is Z[theta] exactly when floor((n-1)*lam) = 0, so den = 1 on return
    still means that Z[theta] is p-maximal; _maximal_order checks every
    return against Ore's index.
    """
    n = f.degree
    den, rows = _newton_start(f, p)
    while True:
        v = _valuation(den**n // math.prod(rows[i][i] for i in range(n)), p)
        if v == ore_exp or disc_exp - 2 * v < 2:
            return den, rows, v
        nxt = _enlarge_at_p(f, den, rows, p)
        if nxt is None:
            return den, rows, v
        den, rows = nxt


def _maximal_order(f: IntPoly, disc_f_fac: Factorization):
    """Maximal order as (den, rows, index, ore_pairs), checked against Ore.

    ore_pairs maps each prime p with p^2 | disc(f) at which f is p-regular
    to the (e, f) pairs Ore's theorem gives there.
    """
    n = f.degree
    parts = []
    ore_pairs = {}
    for p, e in disc_f_fac:
        if e < 2:
            continue
        regular, ore_exp, pairs = ore(f, p)
        den_p, rows_p, v = _p_maximal_order(f, p, e, ore_exp if regular else None)
        if v < ore_exp or (regular and v != ore_exp) or (den_p == 1) != (regular and not ore_exp):
            raise InternalInvariantError(
                f"Ore's theorem disagrees with Round-2 for f = {f} at p = {p}: "
                f"Ore's index exponent {ore_exp} (regular: {regular}), Round-2's {v}"
            )
        if den_p > 1:
            parts.append((den_p, rows_p))
        if regular:
            ore_pairs[p] = pairs
    if not parts:
        den, rows = 1, [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    else:
        L = math.lcm(*[d for d, _ in parts])
        stacked = [[L if j == i else 0 for j in range(n)] for i in range(n)]
        for d, rws in parts:
            s = L // d
            stacked += [[a * s for a in r] for r in rws]
        den, rows = _canonical_basis(L, hnf_rows(stacked))
    diag = 1
    for i in range(n):
        diag *= rows[i][i]
    index_num = den**n
    if index_num % diag:
        raise InternalInvariantError("basis determinant is not 1/index")
    index = index_num // diag
    return den, rows, index, ore_pairs


# ----------------------------------------------------------------------
# the NumberField object
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix of the integral trace form."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return int_det([list(r) for r in self.entries])


class NumberField:
    """A number field Q(theta) with its maximal order precomputed."""

    def __init__(self, f: IntPoly, den, rows, index, disc_factorization, signature, ore_pairs):
        self.defining_poly = f
        self.degree = f.degree
        self.disc = disc_factorization.value()
        self.disc_factorization = disc_factorization
        self.index = index
        self.signature = signature
        self._den = den
        self._rows = rows
        self.integral_basis = tuple(
            tuple(Fraction(a, den) for a in r) for r in rows
        )
        C, minv = _mult_table(f, den, rows)
        self._mult = C
        self._minv = minv  # power coords -> basis coords, integer matrix
        s = _power_sums(f, f.degree)
        self._trace_vec = []
        for r in rows:
            t, rem = divmod(sum(a * sk for a, sk in zip(r, s)), den)
            if rem:
                raise InternalInvariantError("non-integral trace on the order")
            self._trace_vec.append(t)
        # Ore's (e, f) pairs at the regular primes p with p^2 | disc f, for split_prime
        self._ore_pairs = ore_pairs
        self._memo: dict = {}  # see per_field

    @property
    def r1(self) -> int:
        return self.signature[0]

    @property
    def r2(self) -> int:
        return self.signature[1]

    @property
    def is_totally_real(self) -> bool:
        return self.r2 == 0

    def __repr__(self):
        return f"NumberField({self.defining_poly}, disc={self.disc})"


def per_field(fn):
    """Memoize fn(K, *args) in K's own memo, so it lives and dies with K."""

    @functools.wraps(fn)
    def memoized(K, *args):
        key = (fn, *args)
        memo = K._memo
        if key not in memo:
            memo[key] = fn(K, *args)
        return memo[key]

    return memoized


def _disc_factorization(disc_f_fac: Factorization, index: int) -> Factorization:
    """Factorization of disc(K) = disc(f) / index^2, read off that of disc(f)."""
    out = []
    for p, e in disc_f_fac:
        while index % p == 0:
            index //= p
            e -= 2
        if e < 0:
            raise InternalInvariantError(f"index^2 does not divide disc(f) at p={p}")
        if e:
            out.append((p, e))
    if index != 1:
        raise InternalInvariantError("index has a prime factor outside disc(f)")
    return Factorization(disc_f_fac.sign, tuple(out))


def new_field(f: IntPoly) -> NumberField:
    """Construct the number field defined by a monic irreducible polynomial."""
    if f.degree < 2:
        raise FieldConstructionError(f"degree must be at least 2, got {f.degree}")
    if not f.is_monic:
        raise FieldConstructionError(f"polynomial is not monic: {f}")
    fac = factor_poly(f)
    if len(fac) > 1 or fac[0][1] > 1:
        g = fac[0][0]
        raise FieldConstructionError(f"polynomial is reducible: factor {g}")
    disc_f_fac = factor_integer(poly_discriminant(f))
    den, rows, index, ore_pairs = _maximal_order(f, disc_f_fac)
    disc_fac = _disc_factorization(disc_f_fac, index)
    r1 = count_real_roots(f)
    n = f.degree
    if (n - r1) % 2:
        raise InternalInvariantError("complex roots did not pair up")
    r2 = (n - r1) // 2
    if (disc_fac.sign < 0) != (r2 % 2 == 1):
        raise InternalInvariantError("sign(disc) disagrees with signature parity")
    return NumberField(f, den, rows, index, disc_fac, (r1, r2), ore_pairs)


@per_field
def trace_gram(K: NumberField) -> GramMatrix:
    """Gram matrix G_ij = Tr(omega_i omega_j) of the integral trace form."""
    n = K.degree
    C = K._mult
    tv = K._trace_vec
    G = [[sum(C[i][j][k] * tv[k] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if G[i][j] != G[j][i]:
                raise InternalInvariantError("trace form is not symmetric")
    gm = GramMatrix(tuple(tuple(r) for r in G))
    if gm.det() != K.disc:
        raise InternalInvariantError("det(trace gram) != disc(K)")
    return gm


# ----------------------------------------------------------------------
# fundamental discriminants
# ----------------------------------------------------------------------


def is_fundamental_disc(d: int | Factorization) -> bool:
    """Is d the discriminant of a quadratic field?

    d is an int or its Factorization; a field passes K.disc_factorization,
    so nothing is factored again.
    """
    fac = d if isinstance(d, Factorization) else None
    if fac is not None:
        d = fac.value()
    # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree (so
    # 2 divides m at most once): either way the odd part is squarefree
    if d == 1 or d % 4 in (2, 3) or (d % 4 == 0 and d // 4 % 4 in (0, 1)):
        return False
    if fac is None:
        fac = factor_integer(d)
    return all(e == 1 for p, e in fac if p != 2)


# ----------------------------------------------------------------------
# Galois detection
# ----------------------------------------------------------------------


def _coordinate_bound(K: NumberField) -> int:
    """Exact bound on integral-basis coordinates of any root of f in O_K.

    A root alpha = sum c_j omega_j solves G c = (Tr(alpha omega_k))_k with
    G the trace Gram matrix, whose inverse is read off the integer
    adjugate.  For a totally real K, G is positive definite and
    c^T G c = Tr(alpha^2) = T2 = a_(n-1)^2 - 2 a_(n-2), the second power sum
    of the roots of f, so Cauchy-Schwarz in the G-norm gives
    c_j^2 <= T2 (G^-1)_jj.  Otherwise the conjugates of a root are bounded by
    the Cauchy bound B of f, each |Tr(alpha omega_k)| by n B sum_t |M_kt| B^t
    for the basis rows M, and c through the L1 rows of G^-1.
    """
    f = K.defining_poly
    n = K.degree
    det, adj = int_adjugate([list(r) for r in trace_gram(K).entries])
    a = f.coeffs
    if K.is_totally_real:
        t2 = a[n - 1] ** 2 - 2 * a[n - 2]
        return max(math.isqrt(t2 * adj[j][j] // det) for j in range(n)) + 1
    B = 1 + max(abs(c) for c in a[:-1])
    # den * n * B * (bound on every conjugate of omega_k)
    tb = [n * B * sum(abs(x) * B**t for t, x in enumerate(row)) for row in K._rows]
    C = max(sum(abs(x) * t for x, t in zip(row, tb)) for row in adj)
    return C // (K._den * abs(det)) + 1


def _poly_eval_mod(g: IntPoly, r: list[int], fb: list[int], m: int) -> list[int]:
    """g(r) in the ring Z[x]/(m, fb) with fb monic; r a coefficient list."""
    out: list[int] = []
    for c in reversed(g.coeffs):
        out = gf_add(gf_rem(gf_mul(out, r, m), fb, m), [c], m)
    return out


def _verify_root(K: NumberField, coords: list[int]) -> bool:
    """Is the element with these integral-basis coordinates a root of f?

    Tr(alpha) = -a_(n-1) for every root alpha of f; that O(n) test rejects
    almost every wrong candidate before f(alpha) is evaluated in the field.
    """
    f = K.defining_poly
    if sum(c * t for c, t in zip(coords, K._trace_vec)) != -f.coeffs[-2]:
        return False
    acc = [0] * K.degree
    for c in reversed(f.coeffs):
        acc = _alg_mul(K._mult, acc, coords)
        acc[0] += c  # omega_1 = 1
    return not any(acc)


def _inert_lifts(f: IntPoly, r0: list[int], p: int, pk: int):
    """Yield (r, m) with f(r) = 0 in Z[x]/(m, f), for m = p, p^2, p^4, ... up to pk.

    r0 is a root of f in F_p[x]/(f) at an inert prime p, and each step is
    one Newton iteration, which doubles the p-adic precision.  The
    inverse of f'(r) is carried along by its own Newton iteration, and is
    only computed once a lift is asked for.
    """
    r, m = list(r0), p
    yield r, m
    fprime = f.derivative()
    fb = gf_from_intpoly(f, p)
    u, _, g = gf_gcdex(_poly_eval_mod(fprime, r, fb, p), fb, p)
    if g != [1]:
        raise InternalInvariantError("f'(root) not invertible at inert prime")
    while m < pk:
        m = min(m * m, pk)
        fm = gf_from_intpoly(f, m)
        fr = _poly_eval_mod(f, r, fm, m)
        r = gf_sub(r, gf_rem(gf_mul(fr, u, m), fm, m), m)
        fpr = _poly_eval_mod(fprime, r, fm, m)
        corr = gf_sub([2], gf_rem(gf_mul(fpr, u, m), fm, m), m)
        u = gf_rem(gf_mul(u, corr, m), fm, m)
        if m == pk and _poly_eval_mod(f, r, fm, m):
            raise InternalInvariantError("Newton lift failed to reach a root")
        yield r, m


def _all_roots_inert(K: NumberField, p: int, bound: int) -> bool:
    """Does f have all n roots in O_K?  Decided p-adically at an inert prime.

    O_K/p is F_p[x]/(f), so each root of f in O_K reduces to one of the n
    elements of the Frobenius orbit of x, and distinct roots to distinct
    ones.  Each orbit element is read as basis coordinates centred mod m
    for m = p, p^2, p^4, ... of its Newton lift, and the first candidate
    that _verify_root accepts is its root.  A root's coordinates lie within
    bound, so once m passes 2*bound the candidate is the only one it could
    be; if that fails too, the element lifts to no root and the answer is
    False.
    """
    f = K.defining_poly
    n = K.degree
    pk = p
    while pk <= 2 * bound:
        pk *= p
    fb = gf_from_intpoly(f, p)
    orbit = [[0, 1]]
    for _ in range(n - 1):
        orbit.append(gf_pow_mod(orbit[-1], p, fb, p))
    for r0 in orbit:
        for r, m in _inert_lifts(f, r0, p, pk):
            a = list(r) + [0] * (n - len(r))
            c = [_centered(sum(a[t] * K._minv[t][j] for t in range(n)), m) for j in range(n)]
            if _verify_root(K, c):
                break
        else:
            return False
    return True


def _count_roots_split(K: NumberField, p: int, bound: int) -> int:
    """Roots of f in O_K, certified p-adically at a totally split prime.

    The embedding sigma: theta -> r_1 of O_K into Z_p sends a root alpha =
    sum c_j omega_j of f to one of the n roots r_i of f in Z_p.  So, with
    the r_i lifted to p^k, c lies in the coset r_i*e_1 + L of the lattice
    L = {c : sum c_j sigma(omega_j) = 0 mod p^k}, and |c_j| <= bound.  L is
    LLL-reduced, and the count is certified once every Gram-Schmidt vector
    has |b*_i|^2 > 4*n*bound^2 (d[i+1] > 4*n*bound^2*d[i] in integers).
    Then two points of one coset in the bound box would differ by a
    nonzero vector of L shorter than every |b*_i|, so each coset holds at
    most one such point; that point has every Gram-Schmidt coordinate
    below 1/2 in size, so nearest plane from r_i*e_1 returns it.  Each
    candidate inside the bound is verified exactly, so the count is exact.

    Roots are usually far shorter than the bound, so k starts where
    |b*_i|^2 > 4*n holds on average, and doubles towards the certified
    precision.  Distinct r_i give distinct roots, so once all n residues
    verify the count is n, with no certificate needed.
    """
    f = K.defining_poly
    n = K.degree
    roots_mod_p = []
    for g, e in factor_poly_mod(f, p):
        if g.degree != 1 or e != 1:
            raise InternalInvariantError(f"f does not split into distinct linear factors mod {p}")
        roots_mod_p.append((-g[0]) % p)
    fprime = f.derivative()
    limit = 4 * n * bound * bound
    # an LLL-reduced basis of a lattice of determinant p^k has |b*_i|
    # near p^(k/n), so the certified start is where p^(2k/n) passes the limit
    k_cert = 1
    while p ** (2 * k_cert) <= limit**n:
        k_cert += 1
    k = 1
    while k < k_cert and p ** (2 * k) <= (4 * n) ** n:
        k += 1
    while True:
        pk = p**k
        lifted = []
        for r in roots_mod_p:
            m = p
            while m < pk:
                m = min(m * m, pk)
                r = (r - f(r) * pow(fprime(r), -1, m)) % m
            if f(r) % pk:
                raise InternalInvariantError("Newton lift failed to reach a root")
            lifted.append(r)
        # sigma(omega_j) = rows[j](r_1) / den; den is a unit at unramified p
        powers = [pow(lifted[0], t, pk) for t in range(n)]
        inv_den = pow(K._den, -1, pk)
        sigma = [sum(a * x for a, x in zip(row, powers)) * inv_den % pk for row in K._rows]
        basis = [[pk] + [0] * (n - 1)]
        basis += [[-sigma[j]] + [int(t == j) for t in range(1, n)] for j in range(1, n)]
        reduced, d = lll_reduce(basis)
        residue = nearest_plane(reduced, d)
        if all(d[i + 1] > limit * d[i] for i in range(n)):
            break
        if k < k_cert:
            if all(_verify_root(K, residue([r] + [0] * (n - 1))) for r in lifted):
                return n
            k = min(2 * k, k_cert)
        else:
            k += 1
    count = 0
    for r in lifted:
        c = residue([r] + [0] * (n - 1))
        if all(abs(x) <= bound for x in c) and _verify_root(K, c):
            count += 1
    return count


def _factor_degree_pattern(f: IntPoly, p: int) -> list[int]:
    """Sorted degrees of the irreducible factors of the squarefree f mod p."""
    fb = gf_monic(gf_from_intpoly(f, p), p)
    out = []
    for part, d in _gf_distinct_degree(fb, p):
        out += [d] * ((len(part) - 1) // d)
    return sorted(out)


_GALOIS_SCAN_CAP = 10**6


class GaloisScanExceeded(RuntimeError):
    """The Galois prime scan reached its cap without a certifying prime."""

    def __init__(self, last_prime: int | None, cap: int):
        super().__init__(
            f"is_galois: no certifying prime below the scan cap {cap} "
            f"(last prime scanned: {last_prime})"
        )
        self.last_prime = last_prime
        self.cap = cap


@per_field
def is_galois(K: NumberField) -> bool:
    """Exact normality test.

    Any unramified prime with a mixed residue-degree pattern certifies
    non-Galois.  The first inert or totally split prime triggers a p-adic
    search for the roots of f inside O_K; the field is Galois iff all n
    roots are found.  The search is witness-first: distinct p-adic roots
    give distinct roots in O_K and n is the most there can be, so n
    candidates verified in the field certify True at whatever precision
    they appear, usually the lowest.  _coordinate_bound is used only to
    refute: every root has integral-basis coordinates within it, so the
    inert route proves a root absent once p^k > 2*bound, and the split
    route once its LLL-reduced lattice has Gram-Schmidt norms that make
    nearest plane return every root (see _count_roots_split).
    Raises GaloisScanExceeded when no prime below the cap decides.
    """
    n = K.degree
    if n == 2:
        return True
    f = K.defining_poly
    disc_f = K.index**2 * K.disc
    last = None
    p = 2
    while p < _GALOIS_SCAN_CAP:
        last = p
        if disc_f % p:
            pattern = _factor_degree_pattern(f, p)
            if len(set(pattern)) > 1:
                return False
            d = pattern[0]
            if d == n:
                return _all_roots_inert(K, p, _coordinate_bound(K))
            if d == 1:
                return _count_roots_split(K, p, _coordinate_bound(K)) == n
        p = 3 if p == 2 else p + 2
        while not is_prime(p):
            p += 2
    raise GaloisScanExceeded(last, _GALOIS_SCAN_CAP)
