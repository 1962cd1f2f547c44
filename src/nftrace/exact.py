"""Exact integer arithmetic kernel.

Everything downstream (orders, splittings, trace forms) runs on the
primitives in this module: arbitrary-precision integer factorization with
certified prime factors, dense univariate integer polynomials, polynomial
factorization over Z and over F_p, and Sturm-chain real root counting.
No floating point and no fractions are used: exact division, gcds and
Sturm chains run on integer long division and primitive pseudo-remainder
sequences.

Polynomials are coefficient lists in ascending degree order, wrapped in the
immutable :class:`IntPoly`.  The Z/m toolkit (gf_*) works on plain lists
of ints reduced mod m (trimmed, ascending), in the style of classical
dense-polynomial code; it is the only mod-m polynomial arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


class InternalInvariantError(RuntimeError):
    """A cross-checked mathematical identity failed; indicates a bug."""


# ----------------------------------------------------------------------
# primality and integer factorization
# ----------------------------------------------------------------------

# Miller-Rabin with this base set is a deterministic primality test below
# 3_317_044_064_679_887_385_961_981 (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_TRIAL_BOUND = 10**6
# below this bound trial division runs without testing the cofactor for primality
_PRIME_TEST_FROM = 1000
_small_prime_cache: list[int] = []


def _small_primes() -> list[int]:
    """Primes below the trial-division bound, sieved once."""
    global _small_prime_cache
    if not _small_prime_cache:
        n = _TRIAL_BOUND
        sieve = bytearray([1]) * (n + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _small_prime_cache = [i for i in range(n + 1) if sieve[i]]
    return _small_prime_cache


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base % n, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    # Strong Lucas test with Selfridge's parameter choice; together with a
    # base-2 Miller-Rabin this is the Baillie-PSW test.
    if is_square(n):
        return False
    D = 5
    while jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequence by binary ladder on index d.
    U, V, k = 0, 2, 1  # U_0, V_0, Q^0
    qk = 1
    for bit in bin(d)[2:]:
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (U + V) * ((n + 1) // 2) % n, (D * U + V) * ((n + 1) // 2) % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Certified primality: deterministic Miller-Rabin below the proven
    bound, Baillie-PSW above it."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_miller_rabin(n, b) for b in _MR_BASES)
    return _miller_rabin(n, 2) and _strong_lucas(n)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (not a perfect power).

    Brent's cycle variant with a deterministic parameter schedule so that
    factorizations are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle collapsed for this c; retry with the next parameter


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p^e), primes ascending."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} failed the primality certificate")
            prev = p

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def squarefree_part(self) -> int:
        """The squarefree integer in the same rational square class."""
        out = self.sign
        for p, e in self.factors:
            if e % 2:
                out *= p
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __str__(self) -> str:
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return ("-" if self.sign < 0 else "") + (body or "1")


def factor_integer(n: int) -> Factorization:
    """Exact prime factorization of a nonzero integer.

    Trial division below 10^6, then perfect-power reduction and Brent's rho
    on what survives, with every reported prime re-certified.  Trial
    division stops early once the cofactor is a certified prime: it is
    tested after the primes below 1000 and after every later division.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    found: dict[int, int] = {}
    untested = True  # the cofactor n has changed since its last primality test
    for p in _small_primes():
        if p * p > n:
            break
        if untested and p > _PRIME_TEST_FROM:
            if is_prime(n):
                break
            untested = False
        if n % p == 0:
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
            untested = True
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + mult
            continue
        # perfect powers first: rho behaves badly on them
        reduced = False
        for k in range(2, m.bit_length() + 1):
            r = _iroot(m, k)
            if r > 1 and r**k == m:
                stack.append((r, mult * k))
                reduced = True
                break
        if reduced:
            continue
        d = _brent_rho(m)
        stack.append((d, mult))
        stack.append((m // d, mult))
    return Factorization(sign, tuple(sorted(found.items())))


def factor_integers(values, known_primes=()) -> list[Factorization]:
    """Exact prime factorizations of several nonzero integers at once.

    The known primes (certified primes, e.g. those of a discriminant) are
    divided out first.  The cofactors are refined by gcds into pairwise
    coprime parts (factor refinement: Bach, Driscoll & Shallit, J.
    Algorithms 15, 1993), and only those parts are factored.  A prime
    shared by several values is found once, and large primes of different
    values are never handed to Brent's rho as one product.
    """
    values = list(values)
    if 0 in values:
        raise ValueError("cannot factor 0")
    primes = {q for q in known_primes if any(v % q == 0 for v in values)}
    rests = []
    for v in values:
        m = abs(v)
        for q in primes:
            while m % q == 0:
                m //= q
        rests.append(m)
    for part in _coprime_base(rests):
        primes.update(factor_integer(part).primes())
    out = []
    for v in values:
        m, factors = abs(v), []
        for q in sorted(primes):
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                factors.append((q, e))
        if m != 1:
            raise InternalInvariantError(f"factor refinement left the cofactor {m} of {v}")
        out.append(Factorization(1 if v > 0 else -1, tuple(factors)))
    return out


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 with the same prime divisors as the values.

    A value sharing a gcd g > 1 with a base element b replaces b by g and
    b // g and is itself refined as value // g; the product of base and
    pending values drops by g at each split, so the loop ends.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def split_val(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n / p^v_p(n)) for n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def squarefree_part(n: int) -> int:
    """The squarefree integer in the same rational square class as n != 0."""
    return factor_integer(n).squarefree_part()


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive n")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre() needs an odd prime")
    return jacobi(a, p)


# ----------------------------------------------------------------------
# dense integer polynomials
# ----------------------------------------------------------------------


def _trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    Coefficients ascend: IntPoly([152, 68, 4, -1, 1]) is
    x^4 - x^3 + 4x^2 + 68x + 152.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = _trim(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise ValueError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at an int or Fraction by Horner's rule."""
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """GCD of the coefficients, with the sign of the leading one."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        if g and self.lc < 0:
            g = -g
        return g

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly([a // c for a in self.coeffs])

    def divmod_exact(self, other: "IntPoly"):
        """Polynomial division when it is exact over Z, else None.

        Integer long division that gives up at the first leading
        coefficient lc(other) does not divide: that quotient coefficient
        is already not an integer.
        """
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        db, lb = len(b) - 1, b[-1]
        q = [0] * max(len(a) - db, 0)
        for d in range(len(q) - 1, -1, -1):
            c = a[d + db]
            if c:
                c, r = divmod(c, lb)
                if r:
                    return None
                q[d] = c
                for i, bc in enumerate(b, d):
                    a[i] -= c * bc
        if any(a[:db]):
            return None
        return IntPoly(q)

    # -- display

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def _pseudo_rem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(r, s) with lc(b)^m * a = q*b + r, deg r < deg b, over Z.

    Each of the m steps scales the running remainder by lc(b) and cancels
    its leading term; m counts only the steps taken (at most
    deg a - deg b + 1), so r is lc(b)^m times the remainder over Q and
    s = sign(lc(b))^m.  Both lists ascend and are trimmed; b is nonzero.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    s = 1
    while len(r) > db:
        c = r[-1]
        shift = len(r) - 1 - db
        r = [lb * x for x in r]
        for i, bc in enumerate(b, shift):
            r[i] -= c * bc
        if lb < 0:
            s = -s
        while r and not r[-1]:
            r.pop()
    return r, s


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive GCD over Z with positive leading coefficient.

    Primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967; Cohen,
    Alg. 3.3.1): each remainder is made primitive before the next step, so
    the coefficients stay as small as the gcd over Q allows and no
    fractions arise.
    """
    a, b = f.primitive(), g.primitive()
    while b.coeffs:
        a, b = b, IntPoly(_pseudo_rem(a.coeffs, b.coeffs)[0]).primitive()
    return a


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) via Bareiss elimination on the Sylvester matrix."""
    n, m = f.degree, g.degree
    if n < 0 or m < 0:
        raise ValueError("resultant of the zero polynomial")
    if n == 0:
        return f.lc**m
    if m == 0:
        return g.lc**n
    size = n + m
    rows = []
    frow = [f[n - i] for i in range(n + 1)]
    grow = [g[m - i] for i in range(m + 1)]
    for i in range(m):
        rows.append([0] * i + frow + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (size - m - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix (destructive)."""
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * pivot - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = pivot
    return sign * mat[-1][-1]


def poly_discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^{n(n-1)/2} Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    res = resultant(f, f.derivative())
    num = (-1) ** (n * (n - 1) // 2) * res
    q, r = divmod(num, f.lc)
    if r:
        raise InternalInvariantError("lc(f) does not divide Res(f, f')")
    return q


# ----------------------------------------------------------------------
# Sturm chains
# ----------------------------------------------------------------------


def _sign_variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _sturm_chain(f: IntPoly) -> list[list[int]]:
    """Primitive Sturm chain of f: f, f', then each entry the primitive part
    of -rem(previous two) over Q, as ascending coefficient lists.

    The remainders come from `_pseudo_rem`, whose sign s = sign(lc)^m over
    the steps it took tells how to turn the pseudo-remainder into a positive
    multiple of -rem; the sign is all Sturm's theorem reads.
    """
    chain = [list(f.coeffs), list(f.derivative().coeffs)]
    while len(chain[-1]) > 1:
        r, s = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        g = -s * math.gcd(*r)
        chain.append([c // g for c in r])
    return chain


def count_real_roots(f: IntPoly) -> int:
    """Number of distinct real roots of a squarefree polynomial.

    Sturm's theorem over the whole line: the chain's sign variations at
    -inf and +inf are read off leading coefficients, so no root bound is
    needed and no floating point enters.  The chain is a primitive
    pseudo-remainder sequence over Z (`_sturm_chain`): each entry is the
    positive multiple of the rational Sturm remainder with coprime integer
    coefficients.
    """
    if f.degree < 1:
        raise ValueError("root counting needs degree >= 1")
    chain = _sturm_chain(f)
    if len(chain[-1]) > 1:  # the last entry is gcd(f, f') up to a constant
        raise ValueError("polynomial must be squarefree")
    at_pos = [1 if c[-1] > 0 else -1 for c in chain]
    at_neg = [s * (-1) ** ((len(c) - 1) % 2) for s, c in zip(at_pos, chain)]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


# ----------------------------------------------------------------------
# polynomials over Z/m: list-of-int toolkit
# ----------------------------------------------------------------------
#
# Every gf_* function works over Z/m for any modulus m >= 2, on plain
# coefficient lists (ascending, reduced mod m, trimmed).  Division, monic
# scaling and the extended gcd need the leading coefficient of the divisor
# to be a unit mod m, and invert it as pow(lc, -1, m), which raises
# ValueError otherwise; over F_p that is every nonzero polynomial.  The
# gcd, square-free and factoring routines further down need m prime.  The
# Hensel lift and the Newton lift in Galois detection use the same
# functions with m a prime power.


def gf_trim(a: list[int], m: int) -> list[int]:
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_add(a, b, m):
    out = list(a) if len(a) >= len(b) else list(b)
    small = b if len(a) >= len(b) else a
    for i, c in enumerate(small):
        out[i] = (out[i] + c) % m
    return gf_trim(out, m)


def gf_sub(a, b, m):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return gf_trim(out, m)


def gf_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return gf_trim(out, m)


def gf_scale(a, c, m):
    return gf_trim([c * x for x in a], m)


def gf_divmod(a, b, m):
    """(q, r) with a = q*b + r and deg r < deg b; lc(b) a unit mod m."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = [c % m for c in a]
    db = len(b) - 1
    if len(a) <= db:
        return [], gf_trim(a, m)
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    q = [0] * (len(a) - db)
    for d in range(len(q) - 1, -1, -1):
        c = a[d + db] * inv % m
        if c:
            q[d] = c
            for i, bc in enumerate(low, d):
                a[i] = (a[i] - c * bc) % m
    return gf_trim(q, m), gf_trim(a[:db], m)


def gf_rem(a, b, m):
    return gf_divmod(a, b, m)[1]


def gf_monic(a, m):
    if not a:
        return []
    return gf_scale(a, pow(a[-1], -1, m), m)


def gf_gcd(a, b, p):
    a, b = gf_trim(a, p), gf_trim(b, p)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(a, b, m):
    """(s, t, g) with s*a + t*b = g = monic gcd."""
    r0, r1 = gf_trim(a, m), gf_trim(b, m)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, m), m)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, m), m)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, m)
    return gf_scale(s0, inv, m), gf_scale(t0, inv, m), gf_scale(r0, inv, m)


def gf_pow_mod(a, e: int, g, m):
    """a^e modulo (g, m), g with a unit leading coefficient."""
    result = [1]
    base = gf_rem(a, g, m)
    while e:
        if e & 1:
            result = gf_rem(gf_mul(result, base, m), g, m)
        base = gf_rem(gf_mul(base, base, m), g, m)
        e >>= 1
    return result


def gf_deriv(a, p):
    return gf_trim([i * c for i, c in enumerate(a)][1:], p)


def gf_from_intpoly(f: IntPoly, p: int) -> list[int]:
    return gf_trim(list(f.coeffs), p)


def _gf_pth_root(a, p):
    # over F_p: g(x^p) = g(x)^p with identical coefficients
    return gf_trim([a[i] for i in range(0, len(a), p)], p)


def gf_squarefree_decomposition(f, p):
    """[(g_i, e_i)] with f = lc * prod g_i^{e_i}, g_i monic squarefree coprime."""
    f = gf_monic(f, p)
    out = []
    e = 1
    while len(f) > 1:
        d = gf_deriv(f, p)
        if not d:
            f = _gf_pth_root(f, p)
            e *= p
            continue
        g = gf_gcd(f, d, p)
        w = gf_divmod(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = gf_gcd(w, g, p)
            z = gf_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, e * i))
            w = y
            g = gf_divmod(g, y, p)[0]
            i += 1
        if len(g) > 1:
            f = _gf_pth_root(g, p)
            e *= p
        else:
            break
    return out


def _gf_distinct_degree(f, p):
    """[(product of irreducibles of degree d, d)] for monic squarefree f."""
    out = []
    rest = f
    h = gf_rem([0, 1], rest, p)
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, rest, p)
        g = gf_gcd(rest, gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = gf_divmod(rest, g, p)[0]
            h = gf_rem(h, rest, p)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def gf_factor_degrees(f, p):
    """Degrees, ascending, of the irreducible factors of the squarefree f over F_p."""
    return [d for g, d in _gf_distinct_degree(gf_monic(f, p), p) for _ in range((len(g) - 1) // d)]


def _gf_equal_degree_split(f, d, p, rng):
    """Split a monic product of degree-d irreducibles (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = gf_trim(r, p)
        if len(r) < 2:
            continue
        if p == 2:
            # trace map subsumes the odd-p power trick in characteristic 2
            t = r
            acc = r
            for _ in range(d - 1):
                acc = gf_rem(gf_mul(acc, acc, p), f, p)
                t = gf_add(t, acc, p)
            u = gf_gcd(f, t, p)
        else:
            t = gf_pow_mod(r, (p**d - 1) // 2, f, p)
            u = gf_gcd(f, gf_sub(t, [1], p), p)
        if 1 < len(u) < len(f):
            rest = gf_divmod(f, u, p)[0]
            return _gf_equal_degree_split(u, d, p, rng) + _gf_equal_degree_split(
                rest, d, p, rng
            )


def factor_poly_mod(f: IntPoly, p: int) -> list[tuple[IntPoly, int]]:
    """Factor f over F_p into monic irreducibles with multiplicities.

    Output is sorted by (degree, coefficient tuple) so it is deterministic;
    the Cantor-Zassenhaus randomness is seeded from (f, p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fb = gf_from_intpoly(f, p)
    if not fb:
        raise ValueError("polynomial vanishes mod p")
    if len(fb) == 1:
        return []
    rng = random.Random(("factor_poly_mod", p, f.coeffs).__repr__())
    out = []
    for sqf, e in gf_squarefree_decomposition(fb, p):
        for prod_d, d in _gf_distinct_degree(sqf, p):
            for irr in _gf_equal_degree_split(prod_d, d, p, rng):
                out.append((IntPoly(irr), e))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


# ----------------------------------------------------------------------
# factorization over Z (Zassenhaus)
# ----------------------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: lifts f = g*h and s*g + t*h = 1 from
    mod m to mod m^2 (g and h monic).  Coefficient lists over Z."""
    mm = m * m
    e = gf_sub(f, gf_mul(g, h, mm), mm)
    q, r = gf_divmod(gf_mul(s, e, mm), h, mm)
    g1 = gf_add(gf_add(g, gf_mul(t, e, mm), mm), gf_mul(q, g, mm), mm)
    h1 = gf_add(h, r, mm)
    b = gf_sub(gf_add(gf_mul(s, g1, mm), gf_mul(t, h1, mm), mm), [1], mm)
    c, d = gf_divmod(gf_mul(s, b, mm), h1, mm)
    s1 = gf_sub(s, d, mm)
    t1 = gf_sub(gf_sub(t, gf_mul(t, b, mm), mm), gf_mul(c, g1, mm), mm)
    return g1, h1, s1, t1


def _hensel_lift_pair(p, k, f, g0, h0):
    """Lift f = g0*h0 (mod p) to mod p^k; g0 monic.  Returns (g, h)."""
    s, t, one = gf_gcdex(g0, h0, p)
    if one != [1]:
        raise InternalInvariantError(f"Hensel factors are not coprime mod {p}")
    m = p
    g, h = list(g0), list(h0)
    while m < p**k:
        g, h, s, t = _hensel_step(m, [c % (m * m) for c in f], g, h, s, t)
        m *= m
    pk = p**k
    return [c % pk for c in g], [c % pk for c in h]


def _hensel_lift_list(p, k, f, factors):
    """Lift the monic mod-p factorization f = prod(factors) to mod p^k."""
    if len(factors) == 1:
        pk = p**k
        return [[c % pk for c in f]]
    mid = len(factors) // 2
    g0 = [1]
    for fac in factors[:mid]:
        g0 = gf_mul(g0, fac, p)
    h0 = [1]
    for fac in factors[mid:]:
        h0 = gf_mul(h0, fac, p)
    g, h = _hensel_lift_pair(p, k, f, g0, h0)
    return _hensel_lift_list(p, k, g, factors[:mid]) + _hensel_lift_list(
        p, k, h, factors[mid:]
    )


def _centered(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_monic_squarefree(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a monic squarefree integer polynomial."""
    n = f.degree
    if n == 1:
        return [f]
    # choose the reduction prime among the first few with f squarefree mod p,
    # minimizing the modular factor count; f is irreducible as soon as one
    # of them leaves it irreducible mod p
    candidates = []
    p = 2
    while len(candidates) < 5:
        p = next_prime(p)
        fb = gf_from_intpoly(f, p)
        if len(fb) - 1 != n:
            continue
        if len(gf_gcd(fb, gf_deriv(fb, p), p)) != 1:
            continue
        # count irreducibles without running the full split
        count = len(gf_factor_degrees(fb, p))
        if count == 1:
            return [f]
        candidates.append((count, p))
    _, p = min(candidates)
    modular = [irr.coeffs for irr, _ in factor_poly_mod(f, p)]
    modular = [list(m) for m in modular]
    # Mignotte-style bound on factor coefficients of a monic f
    height = max(abs(c) for c in f.coeffs)
    bound = (math.isqrt(n + 1) + 1) * (1 << n) * height
    k = 1
    while p**k <= 2 * bound:
        k += 1
    pk = p**k
    lifted = _hensel_lift_list(p, k, [c % pk for c in f.coeffs], modular)

    factors_found: list[IntPoly] = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = gf_mul(prod, lifted[i], pk)  # mod p^k product
            cand = IntPoly([_centered(c, pk) for c in prod])
            if cand.degree < 1:
                continue
            q = current.divmod_exact(cand)
            if q is not None:
                factors_found.append(cand)
                remaining = [i for i in remaining if i not in combo]
                current = q
                hit = True
                break
        if not hit:
            size += 1
    if current.degree > 0:
        factors_found.append(current)
    return factors_found


def factor_poly(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Factor an integer polynomial into primitive irreducibles over Z.

    Returns [(g, e)] sorted by (degree, coefficients); the content is
    discarded except for its effect on signs (leading coefficients of the
    factors are positive except possibly the first).
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    prim = f.primitive()
    if prim.lc < 0:
        prim = -prim
    # squarefree part, then multiplicities by trial division
    sq = prim.divmod_exact(poly_gcd(prim, prim.derivative()))
    if sq is None:
        raise InternalInvariantError("gcd(f, f') does not divide f")
    # reduce to the monic case: for g = lc^(n-1) f(x/lc), factor g monic
    irreducibles = []
    for g in _factor_squarefree_primitive(sq.primitive()):
        irreducibles.append(g)
    out = []
    for g in irreducibles:
        e = 0
        probe = prim
        while True:
            q = probe.divmod_exact(g)
            if q is None:
                break
            probe = q
            e += 1
        if e < 1:
            raise InternalInvariantError(f"factor {g} does not divide {f}")
        out.append((g, e))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def _factor_squarefree_primitive(f: IntPoly) -> list[IntPoly]:
    if f.degree == 0:
        return []
    c = f.lc
    if c == 1:
        return _zassenhaus_monic_squarefree(f)
    if c < 0:
        return _factor_squarefree_primitive(-f)
    # monicization: h(x) = c^(n-1) f(x/c) is monic with integer coefficients
    n = f.degree
    h = IntPoly([f[i] * c ** (n - 1 - i) for i in range(n)] + [1])
    out = []
    for g in _zassenhaus_monic_squarefree(h):
        # undo the substitution: g(c x), then primitive part
        m = g.degree
        back = IntPoly([g[i] * c**i for i in range(m + 1)]).primitive()
        if back.lc < 0:
            back = -back
        out.append(back)
    return out
