"""Exact integer linear algebra for lattice computations.

Column-style Hermite normal form, fraction-free determinants, triangular
residue reduction, integral LLL reduction of Gram matrices, and the one breadth-first
Fincke-Pohst search (fp_search): it enumerates the short vectors of an
integer Gram matrix and is the simulator's sphere decoder.  Everything is
arbitrary-precision Python int except the search: enumeration LLL-reduces
the basis, lets a float Cholesky factor steer the search in numpy int64 and
rescores every candidate exactly.  Every int64 computation of the package is
proven in range here: check_int64 on exact product_bounds is the one proof,
and hnf_reduction_limit caps what reduce_mod_hnf_batch takes.  numpy is
imported by reduce_mod_hnf_batch, sublattice_gram, lll_gram's last product and
the search (fp_search, short_vectors, shortest_nonzero) when they run.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ..errors import Infeasible, InvalidArgument, InvariantViolation

INT64_MAX = 2**63 - 1


def column_max(X):
    """Python-int max |X[:, j]| of every column of an integer array (0 for no
    rows), exact at -2^63 and with no |X| copy."""
    return [max(int(c.max(initial=0)), -int(c.min(initial=0))) for c in X.T]


def product_bounds(A, xmax):
    """Exact bounds sum_j |A_ij| xmax[j] on |(A @ x)_i| and its partial sums
    for integer |x_j| <= xmax[j]; |x^T G x| <= product_bounds([g], xmax)[0]
    for g = product_bounds(G, xmax)."""
    return [sum(abs(int(a)) * int(x) for a, x in zip(row, xmax)) for row in A]


def check_int64(values, what):
    """The one int64 check: Infeasible unless every exact |value| <= INT64_MAX."""
    if max(map(abs, values), default=0) > INT64_MAX:
        raise Infeasible(f"{what} leaves the int64 range")


# ============================================================
# Hermite normal form (column style)
# ============================================================
#
# Convention: a lattice is the Z-span of the *columns* of an integer matrix.
# The HNF here is upper triangular with positive diagonal and
# 0 <= H[i][j] < H[i][i] for i < j.  H is returned row-major as a tuple of
# tuples so it can be hashed and compared directly.


def hnf_columns(cols):
    """HNF of the lattice spanned by integer columns; row-major tuple.

    Row by row from the bottom, repeated division steps leave one pivot
    column per row, moved into the last n columns; then each column's
    above-diagonal entries are reduced modulo the pivots.
    """
    A = [list(c) for c in cols]
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
                A[jp] = [-v for v in A[jp]]
            if len(nz) == 1:
                break
            for j in nz:
                q = A[j][i] // A[jp][i]
                if j != jp and q:
                    A[j] = [a - q * b for a, b in zip(A[j], A[jp])]
        A[jp], A[pc] = A[pc], A[jp]
    H = A[m - n:]
    # normalize above-diagonal entries; descending i so later steps do not
    # disturb rows already reduced
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            q = H[j][i] // H[i][i]
            if q:
                H[j] = [a - q * b for a, b in zip(H[j], H[i])]
    return tuple(tuple(H[j][i] for j in range(n)) for i in range(n))


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


@functools.lru_cache(maxsize=None)
def hnf_reduction_limit(hnf):
    """Largest B for which reducing rows with |entries| <= B modulo the HNF (a
    tuple of tuples) stays in int64.  Per column from the last, |q| <= b/h + 1
    adds |q| times the column to the bounds b = a*B + c above, and |q|h <= b + h."""
    n = len(hnf)
    a, c = [Fraction(1)] * n, [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        h = hnf[i][i]
        for j in range(i):
            a[j] += abs(hnf[j][i]) * a[i] / h
            c[j] += abs(hnf[j][i]) * (c[i] / h + 1)
    return min(math.floor((INT64_MAX - c[i] - hnf[i][i]) / a[i]) for i in range(n))


def reduce_mod_hnf_batch(vecs, hnf):
    """Vectorized reduce_mod_hnf: vecs is (M, n) int64, returns same shape;
    Infeasible past hnf_reduction_limit, where the reduction could wrap."""
    import numpy as np
    V = np.array(vecs, dtype=np.int64, copy=True)
    if max(int(V.max(initial=0)), -int(V.min(initial=0))) > hnf_reduction_limit(hnf):
        raise Infeasible("reduction modulo the HNF leaves the int64 range")
    n = V.shape[1]
    H = np.asarray(hnf, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        q = V[:, i] // H[i, i]
        V[:, : i + 1] -= q[:, None] * H[: i + 1, i]
    return V


def sublattice_gram(basis, gram):
    """B^T G B exactly: the Gram matrix under gram of the lattice spanned by
    the columns of basis, as an object array of Python ints."""
    import numpy as np
    B = np.array(basis, dtype=object)
    return B.T @ np.array(gram, dtype=object) @ B


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
    import numpy as np
    Hm = np.array(H, dtype=object)
    return Hm.T.tolist(), (Hm @ np.array(G, dtype=object) @ Hm.T).tolist()


# ============================================================
# Short-vector enumeration
# ============================================================

_ENUM_LIMIT = 1 << 24  # max candidate rows materialised at one enumeration level


def fp_search(R, w, radius2, bound, cap):
    """Breadth-first Fincke-Pohst, the one search of this package: every
    integer v with |R_t v - w_t|^2 <= radius2_t for t targets, as (target of
    each row, rows V in int64, kept).  R is (t, n, n) upper triangular, maybe
    a broadcast view; level i fixes v_i for every surviving prefix, and rows
    stay in target order.  The float interval only steers: it is widened by a
    relative and an absolute 1e-9, then clipped to |v_i| <= bound[i], an exact
    bound the caller proves, before the int64 cast.  A target is dropped
    (kept False, no rows) when a center or room of it is not finite, or when
    a level would hold more than cap rows, the targets with the most rows
    first, before those rows are materialised.
    """
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite: dropped
        t, n = w.shape
        kept = np.ones(t, dtype=bool)
        tr = np.arange(t)  # the target of every row
        T, V = np.zeros(t), np.zeros((t, 0), dtype=np.int64)
        for i in range(n - 1, -1, -1):
            d = R[tr, i, i]
            c = w[:, i] / d
            room = (radius2[tr] - T) / (d * d)
            kept[tr[~(np.isfinite(c) & np.isfinite(room))]] = False
            r = np.sqrt(np.maximum(room, 0.0)) * (1.0 + 1e-9) + 1e-9
            lo = np.clip(np.ceil(c - r), -bound[i], bound[i] + 1).astype(np.int64)
            hi = np.clip(np.floor(c + r), -bound[i] - 1, bound[i]).astype(np.int64)
            counts = np.where(kept[tr], np.maximum(hi - lo + 1, 0), 0)
            if counts.sum() > cap:
                per_target = np.bincount(tr, weights=counts, minlength=t)
                order = np.argsort(per_target, kind="stable")
                kept[order[np.cumsum(per_target[order]) > cap]] = False
                counts[~kept[tr]] = 0
            rows = np.repeat(np.arange(counts.shape[0]), counts)
            vi = lo[rows] + np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
            tr = tr[rows]
            T = T[rows] + (d[rows] * (c[rows] - vi)) ** 2
            w = w[rows, :i] - R[tr, :i, i] * vi[:, None]
            V = np.column_stack([vi, V[rows]])
    return tr, V, kept


def _enumerate(U, R, bound2, include_zero):
    """Rows y with y^T R y <= bound2 in the reduced basis, mapped back by U:
    one fp_search target at 0 under the float Cholesky factor of R, levels
    clipped to the exact |y_i| bounds yb of the ellipsoid, which prove that
    scoring with R and mapping back with U stay in int64, and every row
    rescored exactly."""
    import numpy as np
    n = len(R)
    bound2 = math.floor(bound2)
    if bound2 < 0 or (bound2 == 0 and not include_zero):
        return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64)
    det = det_int(R)
    yb = [math.isqrt(bound2 * det_int([r[:i] + r[i + 1:] for j, r in enumerate(R) if j != i])
                     // det) for i in range(n)]
    w = [max(v, 1) for v in yb]  # w >= 1: the bounds also cover the entries of R and U
    check_int64([*product_bounds([product_bounds(R, w)], w), *product_bounds(U, w)],
                f"enumeration of radius^2 {bound2}")
    C = np.linalg.cholesky(np.array(R, dtype=np.float64)).T
    _, Y, kept = fp_search(C[None], np.zeros((1, n)), np.array([bound2 * (1.0 + 1e-9)]), yb,
                           _ENUM_LIMIT)
    if not kept[0]:
        raise Infeasible(f"short-vector enumeration would hold more than {_ENUM_LIMIT} "
                         "candidates at one level; giving up")
    norms = np.einsum("ij,jk,ik->i", Y, np.array(R, dtype=np.int64), Y)
    keep = norms <= bound2
    if not include_zero:
        keep &= norms > 0
    return Y[keep] @ np.array(U, dtype=np.int64).T, norms[keep]


def short_vectors(gram2, bound2, include_zero=False, lll=None):
    """All integer vectors with x^T G2 x <= bound2, exactly (G2 in int64 or
    Python ints; lll its lll_gram(G2) if the caller has it).

    Returns (X, norms2): X is (M, n) int64, norms2 is (M,) int64, rows in no
    particular order.  The search runs in an LLL-reduced basis and scores
    exactly; signs are not deduplicated; the zero vector is dropped unless
    include_zero.  Raises Infeasible when the search would exceed
    _ENUM_LIMIT candidate rows at one level or leave the int64 range.
    """
    U, R = lll or lll_gram(gram2)
    return _enumerate(U, R, bound2, include_zero)


def shortest_nonzero(gram2, lll=None):
    """(min positive x^T G2 x, lexicographically smallest minimizer); G2 in
    int64 or Python ints, lll its lll_gram(G2) if the caller has it.

    The search radius is the smallest diagonal entry of the LLL-reduced Gram
    (its shortest basis vector), which always contains a minimizer.
    """
    import numpy as np
    U, R = lll or lll_gram(gram2)
    X, norms = _enumerate(U, R, min(R[i][i] for i in range(len(R))), False)
    best = int(norms.min())
    cands = X[norms == best]
    order = np.lexsort(tuple(cands[:, i] for i in range(cands.shape[1] - 1, -1, -1)))
    return best, tuple(int(v) for v in cands[order[0]])
