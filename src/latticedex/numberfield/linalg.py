"""Exact integer linear algebra for lattice computations.

Column-style Hermite normal form (with optional unimodular transform),
fraction-free determinants, triangular residue reduction, integral LLL
reduction of Gram matrices, and enumeration of the short vectors of an
integer Gram matrix.  Everything is arbitrary-precision Python int except
the enumeration: it LLL-reduces the basis, lets a float Cholesky factor steer
a breadth-first Fincke-Pohst search in numpy int64, rescores every candidate
exactly, and refuses inputs whose exact range bounds leave int64.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import Infeasible, InvalidArgument, InvariantViolation

# ============================================================
# Hermite normal form (column style)
# ============================================================
#
# Convention: a lattice is the Z-span of the *columns* of an integer matrix.
# The HNF here is upper triangular with positive diagonal and
# 0 <= H[i][j] < H[i][i] for i < j.  H is returned row-major as a tuple of
# tuples so it can be hashed and compared directly.


def _negate(A, U, j):
    A[j] = [-v for v in A[j]]
    if U is not None:
        U[j] = [-v for v in U[j]]


def _axpy(A, U, j, k, q):
    """col_j += q * col_k."""
    cj, ck = A[j], A[k]
    for r in range(len(cj)):
        cj[r] += q * ck[r]
    if U is not None:
        cj, ck = U[j], U[k]
        for r in range(len(cj)):
            cj[r] += q * ck[r]


def _swap(A, U, j, k):
    A[j], A[k] = A[k], A[j]
    if U is not None:
        U[j], U[k] = U[k], U[j]


def _hnf_core(A, U):
    """Reduce column list A in place; pivots end up in the last n columns."""
    n = len(A[0])
    m = len(A)
    if m < n:
        raise InvalidArgument(f"need at least {n} columns, got {m}")
    pc = m
    for i in range(n - 1, -1, -1):
        pc -= 1
        while True:
            nz = [j for j in range(pc + 1) if A[j][i] != 0]
            if not nz:
                raise InvalidArgument("columns do not span a full-rank lattice")
            jp = min(nz, key=lambda j: (abs(A[j][i]), j))
            if A[jp][i] < 0:
                _negate(A, U, jp)
            if len(nz) == 1:
                break
            for j in nz:
                if j != jp:
                    q = A[j][i] // A[jp][i]
                    if q:
                        _axpy(A, U, j, jp, -q)
        if jp != pc:
            _swap(A, U, jp, pc)
    base = m - n
    # normalize above-diagonal entries; descending i so later steps do not
    # disturb rows already reduced
    for j in range(1, n):
        cj = base + j
        for i in range(j - 1, -1, -1):
            piv = A[base + i][i]
            q = A[cj][i] // piv
            if q:
                _axpy(A, U, cj, base + i, -q)
    return base


def hnf_columns(cols):
    """HNF of the lattice spanned by integer columns; row-major tuple."""
    A = [list(c) for c in cols]
    n = len(A[0])
    base = _hnf_core(A, None)
    return tuple(tuple(A[base + j][i] for j in range(n)) for i in range(n))


def solve_columns(cols, target):
    """Integer solution z of sum_j z_j * col_j = target, or None.

    Used for CRT idempotents: membership of `target` in the column span
    with an explicit witness.
    """
    A = [list(c) for c in cols]
    n = len(A[0])
    m = len(A)
    U = [[1 if r == j else 0 for r in range(m)] for j in range(m)]
    base = _hnf_core(A, U)
    y = [0] * n
    t = list(target)
    for i in range(n - 1, -1, -1):
        r = t[i] - sum(A[base + j][i] * y[j] for j in range(i + 1, n))
        piv = A[base + i][i]
        if r % piv:
            return None
        y[i] = r // piv
    return [sum(U[base + j][r] * y[j] for j in range(n)) for r in range(m)]


def reduce_mod_hnf(coords, hnf):
    """Canonical residue of an integer vector modulo the HNF column lattice."""
    v = list(coords)
    n = len(v)
    for i in range(n - 1, -1, -1):
        q = v[i] // hnf[i][i]
        if q:
            for r in range(i + 1):
                v[r] -= q * hnf[r][i]
    return tuple(v)


def hnf_contains(hnf, coords):
    """Exact membership test of an integer vector in the HNF column lattice."""
    v = list(coords)
    n = len(v)
    for i in range(n - 1, -1, -1):
        if v[i] % hnf[i][i]:
            return False
        q = v[i] // hnf[i][i]
        if q:
            for r in range(i + 1):
                v[r] -= q * hnf[r][i]
    return True


def reduce_mod_hnf_batch(vecs, hnf):
    """Vectorized reduce_mod_hnf: vecs is (M, n) int64, returns same shape."""
    V = np.array(vecs, dtype=np.int64, copy=True)
    n = V.shape[1]
    H = np.asarray(hnf, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        q = V[:, i] // H[i, i]
        V[:, : i + 1] -= q[:, None] * H[: i + 1, i]
    return V


# ============================================================
# Determinant (Bareiss, fraction free)
# ============================================================


def det_int(rows):
    """Exact determinant of a square integer matrix."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ============================================================
# LLL reduction (integral Gram-matrix form)
# ============================================================


def lll_gram(gram):
    """LLL-reduce (delta = 0.99) the lattice with positive-definite Gram gram.

    Integral version of Lenstra-Lenstra-Lovasz working on the Gram matrix
    alone (Cohen, "A Course in Computational Algebraic Number Theory",
    Alg. 2.6.7): d[i] is the leading i x i Gram minor and lam[k][j] =
    d[j+1] * mu_kj, so every step is exact Python-int arithmetic.  Returns
    (U, R) as lists of lists: U is unimodular, its columns are the reduced
    basis in the input coordinates, and R = U^T G U.
    """
    G = [[int(v) for v in row] for row in gram]
    n = len(G)
    H = [[int(i == j) for j in range(n)] for i in range(n)]  # H[k]: coords of b_k
    d = [1, G[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    if d[1] <= 0:
        raise InvalidArgument("Gram matrix is not positive definite")

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
            H[k] = [a - q * b for a, b in zip(H[k], H[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        H[k - 1], H[k] = H[k], H[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:  # Gram-Schmidt of b_k, still the input's k-th vector
            kmax = k
            for j in range(k + 1):
                u = sum(g * h for g, h in zip(G[k], H[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise InvalidArgument("Gram matrix is not positive definite")
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    if abs(det_int(H)) != 1:
        raise InvariantViolation("LLL transform is not unimodular")
    Hm = np.array(H, dtype=object)
    return Hm.T.tolist(), (Hm @ np.array(G, dtype=object) @ Hm.T).tolist()


# ============================================================
# Short-vector enumeration
# ============================================================

_ENUM_LIMIT = 1 << 24  # max candidate rows materialised at one enumeration level
INT64_MAX = 2**63 - 1


def _range_bounds(U, R, bound2):
    """Exact |y_i| bounds on the ellipsoid y^T R y <= bound2, after checking
    that scoring it with R and mapping it back with U stay inside int64."""
    n = len(R)
    det = det_int(R)
    yb = [math.isqrt(bound2 * det_int([r[:i] + r[i + 1:] for j, r in enumerate(R) if j != i])
                     // det) for i in range(n)]
    w = [max(v, 1) for v in yb]
    score = sum(w[j] * abs(R[j][k]) * w[k] for j in range(n) for k in range(n))
    image = max(sum(abs(u) * wj for u, wj in zip(row, w)) for row in U)
    if max(score, image) > INT64_MAX:
        raise Infeasible(f"enumeration of radius^2 {bound2} leaves the int64 range")
    return yb


def _enumerate(U, R, bound2, include_zero):
    """Rows y with y^T R y <= bound2 in the reduced basis, mapped back by U.

    Breadth-first Fincke-Pohst: level i fixes y_i for every surviving prefix
    (y_{i+1}, ..., y_{n-1}) from the float Cholesky factor of R.  The floats
    only steer: each interval is widened by a relative 1e-9, clipped to the
    exact bound of _range_bounds, and every survivor is rescored exactly.
    """
    n = len(R)
    bound2 = math.floor(bound2)
    if bound2 < 0 or (bound2 == 0 and not include_zero):
        return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64)
    yb = _range_bounds(U, R, bound2)
    C = np.linalg.cholesky(np.array(R, dtype=np.float64)).T
    q = np.diag(C) ** 2
    mu = C / np.diag(C)[:, None]
    budget = bound2 * (1.0 + 1e-9)
    Y = np.zeros((1, 0), dtype=np.int64)  # columns: y_{i+1}, ..., y_{n-1}
    T = np.zeros(1)  # float partial norms of the prefixes
    for i in range(n - 1, -1, -1):
        c = -(Y @ mu[i, i + 1:])
        r = np.sqrt(np.maximum(budget - T, 0.0) / q[i]) * (1.0 + 1e-9) + 1e-9
        lo = np.maximum(np.ceil(c - r), -yb[i]).astype(np.int64)
        counts = np.maximum(np.minimum(np.floor(c + r), yb[i]).astype(np.int64) - lo + 1, 0)
        total = int(counts.sum())
        if total > _ENUM_LIMIT:
            raise Infeasible(f"short-vector enumeration would hold {total} candidates "
                             f"(limit {_ENUM_LIMIT}); giving up")
        rows = np.repeat(np.arange(counts.shape[0]), counts)
        yi = lo[rows] + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        T = T[rows] + q[i] * (yi - c[rows]) ** 2
        Y = np.column_stack([yi, Y[rows]])
    norms = np.einsum("ij,jk,ik->i", Y, np.array(R, dtype=np.int64), Y)
    keep = norms <= bound2
    if not include_zero:
        keep &= norms > 0
    return Y[keep] @ np.array(U, dtype=np.int64).T, norms[keep]


def short_vectors(gram2, bound2, include_zero=False):
    """All integer vectors with x^T G2 x <= bound2, exactly.

    Returns (X, norms2): X is (M, n) int64, norms2 is (M,) int64, rows in no
    particular order.  The search runs in an LLL-reduced basis and scores
    exactly; signs are not deduplicated; the zero vector is dropped unless
    include_zero.  Raises Infeasible when the search would exceed
    _ENUM_LIMIT candidate rows at one level or leave the int64 range.
    """
    U, R = lll_gram(np.asarray(gram2, dtype=np.int64).tolist())
    return _enumerate(U, R, bound2, include_zero)


def shortest_nonzero(gram2):
    """(min positive x^T G2 x, lexicographically smallest minimizer).

    The search radius is the smallest diagonal entry of the LLL-reduced Gram
    (its shortest basis vector), which always contains a minimizer.
    """
    U, R = lll_gram(np.asarray(gram2, dtype=np.int64).tolist())
    X, norms = _enumerate(U, R, min(R[i][i] for i in range(len(R))), False)
    best = int(norms.min())
    cands = X[norms == best]
    order = np.lexsort(tuple(cands[:, i] for i in range(cands.shape[1] - 1, -1, -1)))
    return best, tuple(int(v) for v in cands[order[0]])
