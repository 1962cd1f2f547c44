"""Ore's theorem at an index prime: the p-index of f and the splitting of p
read off the phi-Newton polygons of f (order 1 of Montes' algorithm).

Let f be monic irreducible in Z[x] and f = prod phi^e mod p, each phi the
monic lift with coefficients in [0, p) of an irreducible factor.  For a
factor with e >= 2, write f = sum a_k phi^k with deg a_k < deg phi, by exact
division by phi over Z.  Its principal polygon is the lower convex hull of
the points (k, v_p(a_k)) for k <= e; it runs from (0, v_p(a_0)) down to
(e, 0), since phi^e exactly divides f mod p.  A side of slope -h/e_S (h and
e_S coprime) has degree d = length / e_S and d + 1 lattice points
(x, y) on it.  Its residual polynomial sum c_i y^i over
F_q = F_p[x]/(phi) has c_i the residue of a_x / p^y where (x, v_p(a_x)) lies
on the side, and 0 where it lies above.

f is p-regular when every residual polynomial is squarefree.  Then (Ore,
Math. Ann. 99, 1928; Montes & Nart, J. Algebra 146, 1992):
- v_p([O_K : Z[theta]]) = sum over phi of deg phi * ind(N_phi), where
  ind(N_phi) counts the lattice points (x, y) with x, y >= 1 on or under
  the polygon;
- each irreducible factor psi of a residual polynomial gives one prime
  above p with e = e_S and f = deg phi * deg psi, and each phi with e = 1
  gives one prime (1, deg phi).
Without regularity the count is still a lower bound for the index.
Everything stays in integers: valuations are ints and sides integer pairs.

Over F_q with deg phi > 1 a residual polynomial is a list of elements of
F_p[x]/(phi), each a gf list (see exact.py), and the _fq_* helpers do its
arithmetic mod (p, phi).

The last section is the algebra O/pO of an order with integer structure
constants C: the one multiply alg_mul, Frobenius with its stable power
x -> x^(p^m), p^m >= n, whose kernel is the p-radical (Round-2 in
numberfield.py), the minimal polynomial, and split_by_idempotents, the
(e, f) pairs above p wherever f is not p-regular.
"""

from __future__ import annotations

import math

from nftrace._linalg import nullspace_mod_p
from nftrace.exact import (
    InternalInvariantError,
    IntPoly,
    factor_poly_mod,
    gf_add,
    gf_deriv,
    gf_factor_degrees,
    gf_gcd,
    gf_gcdex,
    gf_mul,
    gf_rem,
    gf_scale,
    gf_sub,
    gf_trim,
    split_val,
)


def ore(f: IntPoly, p: int):
    """(regular, index exponent, pairs) of the monic irreducible f at p.

    pairs are the (e, f) of the primes above p, sorted by (f, e), when f is
    p-regular, and None otherwise; the exponent is then a lower bound for
    v_p([O_K : Z[theta]]) instead of its value.
    """
    regular, index, pairs = True, 0, []
    for phi, e in factor_poly_mod(f, p):
        m = phi.degree
        if e == 1:
            pairs.append((1, m))
            continue
        a = _phi_expansion(f.coeffs, phi.coeffs, e + 1)
        v = [split_val(math.gcd(*ak), p)[0] if any(ak) else None for ak in a]
        for side in _sides(v):
            index += m * _lattice_points(*side)
            if regular:
                e_s, res = _residual(a, v, side, p)
                degrees = _factor_degrees(res, list(phi.coeffs), p)
                if degrees is None:
                    regular = False
                else:
                    pairs += [(e_s, m * d) for d in degrees]
    if not regular:
        return False, index, None
    return True, index, tuple(sorted(pairs, key=lambda t: (t[1], t[0])))


def _phi_expansion(f, phi, count):
    """a_0, ..., a_(count-1) of f = sum a_k phi^k, phi monic, as integer lists."""
    m = len(phi) - 1
    out = []
    r = list(f)
    for _ in range(count):
        q = [0] * max(len(r) - m, 0)
        for d in range(len(q) - 1, -1, -1):
            c = r[d + m]
            if c:
                q[d] = c
                for i, b in enumerate(phi, d):
                    r[i] -= c * b
        out.append(r[:m])
        r = q
    return out


def _sides(v):
    """Sides ((x0, y0), (x1, y1)) of the lower convex hull of the points
    (k, v[k]) with v[k] not None, from left to right, vertices only."""
    hull = []
    for x, y in enumerate(v):
        if y is None:
            continue
        # keep the last vertex only if it lies strictly below the chord
        # from the one before it to (x, y)
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (by - ay) * (x - ax) < (y - ay) * (bx - ax):
                break
            hull.pop()
        hull.append((x, y))
    return list(zip(hull, hull[1:]))


def _lattice_points(start, end):
    """Lattice points (x, y) with x0 < x <= x1 and 1 <= y on or under the side."""
    (x0, y0), (x1, y1) = start, end
    length = x1 - x0
    return sum((y0 * (x1 - x) + y1 * (x - x0)) // length for x in range(x0 + 1, x1 + 1))


def _residual(a, v, side, p):
    """(e_S, residual polynomial) of a side, coefficients in F_p[x]/(phi)."""
    (x0, y0), (x1, y1) = side
    d = math.gcd(x1 - x0, y0 - y1)
    e_s, h = (x1 - x0) // d, (y0 - y1) // d
    res = []
    for i in range(d + 1):
        x, y = x0 + i * e_s, y0 - i * h
        res.append(gf_trim([c // p**y for c in a[x]], p) if v[x] == y else [])
    return e_s, res


def _factor_degrees(r, phi, p):
    """Degrees of the irreducible factors of r over F_q = F_p[x]/(phi), or
    None when r is not squarefree."""
    if len(r) == 2:
        return [1]
    if len(phi) == 2:
        r = [c[0] if c else 0 for c in r]
        if len(gf_gcd(r, gf_deriv(r, p), p)) > 1:
            return None
        return gf_factor_degrees(r, p)
    deriv = _fq_trim([gf_scale(c, i, p) for i, c in enumerate(r)][1:])
    if len(_fq_gcd(r, deriv, phi, p)) > 1:
        return None
    return _fq_distinct_degree(_fq_gcd(r, [], phi, p), phi, p)


# ----------------------------------------------------------------------
# polynomials over F_q = F_p[x]/(phi): lists of gf lists, ascending
# ----------------------------------------------------------------------


def _fq_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _fq_mul(a, b, phi, p):
    """Product in F_q[y]."""
    if not a or not b:
        return []
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = gf_add(out[i + j], gf_mul(ai, bj, p), p)
    return _fq_trim([gf_rem(c, phi, p) for c in out])


def _fq_divmod(a, b, phi, p):
    """(q, r) with a = q*b + r and deg r < deg b in F_q[y], b != 0."""
    r = list(a)
    db = len(b) - 1
    inv = gf_gcdex(b[-1], phi, p)[0]
    q = [[] for _ in range(max(len(r) - db, 0))]
    for k in range(len(q) - 1, -1, -1):
        c = gf_rem(gf_mul(r[k + db], inv, p), phi, p)
        if c:
            q[k] = c
            for i, bi in enumerate(b, k):
                r[i] = gf_sub(r[i], gf_rem(gf_mul(c, bi, p), phi, p), p)
    return _fq_trim(q), _fq_trim(r[:db])


def _fq_gcd(a, b, phi, p):
    """Monic gcd in F_q[y] of a and b, not both zero."""
    a, b = _fq_trim(list(a)), _fq_trim(list(b))
    while b:
        a, b = b, _fq_divmod(a, b, phi, p)[1]
    inv = gf_gcdex(a[-1], phi, p)[0]
    return [gf_rem(gf_mul(c, inv, p), phi, p) for c in a]


def _fq_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [[]] * (n - len(a)), b + [[]] * (n - len(b))
    return _fq_trim([gf_sub(x, y, p) for x, y in zip(a, b)])


def _fq_powmod(h, e, g, phi, p):
    """h^e mod g in F_q[y], for e >= 1 and h reduced mod g."""
    out = h
    for bit in bin(e)[3:]:
        out = _fq_divmod(_fq_mul(out, out, phi, p), g, phi, p)[1]
        if bit == "1":
            out = _fq_divmod(_fq_mul(out, h, phi, p), g, phi, p)[1]
    return out


def _fq_distinct_degree(r, phi, p):
    """Degrees of the irreducible factors of a monic squarefree r in F_q[y].

    The factors of degree d divide y^(q^d) - y, which is taken mod the part
    of r left after the smaller degrees, as in exact.gf_factor_degrees.
    """
    q = p ** (len(phi) - 1)
    y = [[], [1]]
    out = []
    rest, h, d = r, y, 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _fq_powmod(h, q, rest, phi, p)
        g = _fq_gcd(rest, _fq_sub(h, y, p), phi, p)
        if len(g) > 1:
            out += [d] * ((len(g) - 1) // d)
            rest = _fq_divmod(rest, g, phi, p)[0]
            h = _fq_divmod(h, rest, phi, p)[1]
    if len(rest) > 1:
        out.append(len(rest) - 1)
    return out


# ----------------------------------------------------------------------
# the algebra O/pO: elements are coordinate lists in the basis of O
# ----------------------------------------------------------------------


def alg_mul(C, a, b):
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


def alg_pow(mult, one, v, e):
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


def _mul_mod_p(C, p):
    """The multiplication of O/pO."""
    return lambda u, v: [c % p for c in alg_mul(C, u, v)]


def frobenius_matrix(C, p):
    """(F, F^m): the matrices of x -> x^p and x -> x^(p^m) on O/pO, for the
    least m with p^m >= n, columns the images of the basis.  The kernel of
    the stable power F^m is the nilradical."""
    n = len(C)
    mult = _mul_mod_p(C, p)
    one = [1] + [0] * (n - 1)
    cols = [alg_pow(mult, one, [int(k == i) for k in range(n)], p) for i in range(n)]
    F = [[cols[c][r] for c in range(n)] for r in range(n)]
    Fm, q = F, p
    while q < n:
        q *= p
        Fm = [[sum(Fm[r][t] * F[t][c] for t in range(n)) % p for c in range(n)]
              for r in range(n)]
    return F, Fm


def minimal_polynomial(mult, one, alpha, p):
    """Monic minimal polynomial coefficients (ascending) of alpha.

    At the first k where the columns 1, alpha, ..., alpha^k are dependent
    their kernel is one-dimensional, and its basis vector, with last entry
    1, is the polynomial.
    """
    powers = [one]
    while len(powers) <= len(one):
        powers.append(mult(powers[-1], alpha))
        kernel = nullspace_mod_p(list(zip(*powers)), p)
        if kernel:
            return kernel[0]
    raise InternalInvariantError("minimal polynomial exceeded algebra dimension")


def split_by_idempotents(C, p):
    """(e, f) pairs of the primes above p from the idempotents of
    O_K/pO_K, C the structure constants of O_K.

    O_K/pO_K is the product of the local rings O_K/P_i^e_i.  Frobenius
    x -> x^p fixes exactly the F_p-span of their identities eps_i, so a
    basis of the fixed space cuts 1 into the eps_i along the values of its
    elements.  Then e_i f_i = rank(x -> eps_i x), and since x -> x^(p^m)
    with p^m >= n kills the nilradical, f_i = rank of eps_i times its image.
    """
    n = len(C)
    mult = _mul_mod_p(C, p)
    one = [1] + [0] * (n - 1)
    basis = [[int(k == i) for k in range(n)] for i in range(n)]
    F, Fm = frobenius_matrix(C, p)
    fixed = nullspace_mod_p([[(F[r][c] - (r == c)) % p for c in range(n)] for r in range(n)], p)
    idempotents = [one]
    for y in fixed:
        if len(idempotents) == len(fixed):
            break
        # 1 - (y - c)^(p-1) is the sum of the eps_i on which y equals c
        parts = []
        for g, e in factor_poly_mod(IntPoly(minimal_polynomial(mult, one, y, p)), p):
            if g.degree != 1 or e != 1:
                raise InternalInvariantError("fixed element has non-split minimal polynomial")
            shifted = [(a + g[0] * b) % p for a, b in zip(y, one)]
            power = alg_pow(mult, one, shifted, p - 1)
            parts.append([(b - a) % p for a, b in zip(power, one)])
        products = [mult(eps, part) for eps in idempotents for part in parts]
        idempotents = [v for v in products if any(v)]
    if len(idempotents) != len(fixed):
        raise InternalInvariantError(
            f"{len(idempotents)} idempotents for {len(fixed)} primes at p={p}"
        )
    residue = [[Fm[r][c] for r in range(n)] for c in range(n)]
    pairs = []
    for eps in idempotents:
        ef = n - len(nullspace_mod_p([mult(eps, b) for b in basis], p))
        f = n - len(nullspace_mod_p([mult(eps, v) for v in residue], p))
        if ef % f:
            raise InternalInvariantError(f"residue degree {f} does not divide {ef}")
        pairs.append((ef // f, f))
    return pairs
