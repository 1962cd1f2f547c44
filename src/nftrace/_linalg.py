"""Exact linear algebra over Z, Q and F_p used by the order machinery.

Matrices are lists of row lists.  Everything is deterministic: pivots are
chosen by position and magnitude, never randomly.  The lattice kernels
(LLL and nearest plane) stay in integers: Gram-Schmidt data is carried as
Gram determinants and scaled vectors, never as fractions.
"""

from __future__ import annotations

from fractions import Fraction

from nftrace.exact import _bareiss_det


def int_det(mat) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    return _bareiss_det([list(r) for r in mat])


def int_adjugate(M):
    """(det M, adj M) of a nonsingular square integer matrix.

    Fraction-free Gauss-Jordan on [M | I] (Bareiss's exact division, so
    every entry stays a minor): at the end the left half is d*I with
    d = +-det M and the right half is d * M^-1.  Raises ValueError when M
    is singular.
    """
    n = len(M)
    A = [list(M[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        pc = A[c]
        a = pc[c]
        for i in range(n):
            if i != c:
                row = A[i]
                b = row[c]
                A[i] = [(a * x - b * y) // prev for x, y in zip(row, pc)]
        prev = a
    return sign * prev, [[sign * x for x in row[n:]] for row in A]


def frac_matrix_inverse(M):
    """Inverse of a nonsingular matrix over Fraction.

    No module of the package calls it.  It stays as the Fraction reference
    that the tests hold int_adjugate and the order arithmetic to, and the
    layer table of bench/spans.py still names it.
    """
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        A[c], A[piv] = A[piv], A[c]
        inv = 1 / A[c][c]
        A[c] = [a * inv for a in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return [row[n:] for row in A]


def hnf_rows(mat):
    """Row Hermite normal form of the lattice spanned by integer rows.

    Returns the nonzero rows, echelon with positive pivots and the entries
    above each pivot reduced into [0, pivot).
    """
    m = [list(r) for r in mat if any(r)]
    if not m:
        return []
    cols = len(m[0])
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        if not any(m[i][c] for i in range(r, len(m))):
            continue
        # Euclidean elimination in column c
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c]]
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r]]


def lattice_coords(hnf_basis, vec):
    """Coordinates of vec in the HNF row basis, or None if not a member."""
    v = list(vec)
    out = []
    c = 0
    for row in hnf_basis:
        while not row[c]:  # pivots move right row by row
            c += 1
        q, r = divmod(v[c], row[c])
        if r:
            return None
        out.append(q)
        if q:
            for t in range(c, len(v)):
                v[t] -= q * row[t]
    return out if not any(v) else None


def nullspace_mod_p(M, p):
    """Basis of {x : M x = 0 over F_p}; M given as rows, x as lists."""
    rows = [[a % p for a in r] for r in M]
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    piv_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        piv_of_col[c] = r
        r += 1
        if r == nrows:
            break
    basis = []
    for free in range(ncols):
        if free in piv_of_col:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, i in piv_of_col.items():
            v[c] = (-rows[i][free]) % p
        basis.append(v)
    return basis


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def lll_reduce(rows):
    """LLL-reduce linearly independent integer rows with delta = 3/4.

    Integral LLL (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7): d[i] is the Gram determinant of the first i rows
    (d[0] = 1) and lam[k][j] = d[j+1] * mu[k][j], both integers throughout.
    Returns (reduced rows, d), so the reduced row i has
    |b*_i|^2 = d[i+1] / d[i].
    """
    b = [list(r) for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u:
                d[k + 1] = u
            else:
                raise ValueError("rows are linearly dependent")

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * m * m:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b, d


def nearest_plane(rows, d):
    """Babai's nearest-plane map for the lattice of LLL-reduced rows.

    rows and d are as returned by lll_reduce.  The scaled Gram-Schmidt
    vectors d[i] * b*_i, which are integral, are built once here; the
    returned function maps a target t to t - v, where v is the lattice
    vector that nearest plane picks (Babai, Combinatorica 6, 1986).  The
    residue has every Gram-Schmidt coordinate in [-1/2, 1/2).
    """
    n = len(rows)
    star = []
    for i, row in enumerate(rows):
        v = list(row)
        for j in range(i):
            lam = _dot(row, star[j])
            v = [(d[j + 1] * a - lam * s) // d[j] for a, s in zip(v, star[j])]
        star.append(v)

    def residue(t):
        t = list(t)
        for i in range(n - 1, -1, -1):
            q = (2 * _dot(t, star[i]) + d[i + 1]) // (2 * d[i + 1])
            if q:
                t = [a - q * c for a, c in zip(t, rows[i])]
        return t

    return residue
