import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticedex.errors import Infeasible, InvalidArgument
from latticedex.numberfield import linalg
from latticedex.numberfield.linalg import (
    det_int,
    fp_search,
    hnf_columns,
    lll_gram,
    reduce_mod_hnf,
    reduce_mod_hnf_batch,
    short_vectors,
    shortest_nonzero,
)


def _random_cols(rng, n, m, span=9):
    while True:
        cols = [tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(m)]
        if det_int([[cols[j][i] for j in range(n)] for i in range(n)]) != 0:
            return cols


def test_hnf_shape_and_reduction():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        cols = _random_cols(rng, n, n + rng.randint(0, 2))
        H = hnf_columns(cols)
        for i in range(n):
            assert H[i][i] > 0
            for j in range(n):
                if j < i:
                    assert H[i][j] == 0
                elif j > i:
                    assert 0 <= H[i][j] < H[i][i]


def test_hnf_preserves_lattice():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        cols = _random_cols(rng, n, n)
        H = hnf_columns(cols)
        # same lattice: generators contained both ways, same covolume
        for c in cols:
            assert not any(reduce_mod_hnf(c, H))
        d_in = abs(det_int([[cols[j][i] for j in range(n)] for i in range(n)]))
        d_h = 1
        for i in range(n):
            d_h *= H[i][i]
        assert d_in == d_h


@st.composite
def _full_rank_columns(draw, max_dim=4, span=9):
    """n <= max_dim rows and n to n + 2 integer columns, the first n independent."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(n, n + 2))
    cols = [tuple(draw(st.integers(-span, span)) for _ in range(n)) for _ in range(m)]
    assume(det_int([[cols[j][i] for j in range(n)] for i in range(n)]) != 0)
    return cols


@settings(max_examples=150, deadline=None)
@given(cols=_full_rank_columns(), data=st.data())
def test_hnf_is_invariant_under_permutations_and_unimodular_mixes(cols, data):
    H = hnf_columns(cols)
    assert hnf_columns(data.draw(st.permutations(cols))) == H
    m = len(cols)
    ops = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                       st.integers(-3, 3)), max_size=8))
    mixed = [list(c) for c in cols]
    for j, k, q in ops:  # negate column j, or add q times column k to it
        mixed[j] = [-v for v in mixed[j]] if j == k else [
            a + q * b for a, b in zip(mixed[j], mixed[k])]
    assert hnf_columns(mixed) == H


@settings(max_examples=150, deadline=None)
@given(cols=_full_rank_columns(), data=st.data())
def test_hnf_contains_agrees_with_the_hnf_of_the_extended_lattice(cols, data):
    # v lies in the lattice exactly when adding it as a column leaves the HNF as it is
    n = len(cols[0])
    z = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    member = [sum(zj * c[i] for zj, c in zip(z, cols)) for i in range(n)]
    H = hnf_columns(cols)
    assert not any(reduce_mod_hnf(member, H))
    v = [a + b for a, b in zip(member, shift)]
    assert (not any(reduce_mod_hnf(v, H))) == (hnf_columns(cols + [v]) == H)


def test_hnf_rejects_rank_deficient_input():
    with pytest.raises(InvalidArgument):
        hnf_columns([(1, 0)])  # fewer columns than rows
    with pytest.raises(InvalidArgument):
        hnf_columns([(1, 2), (2, 4)])  # rank 1 in dimension 2


def test_reduce_mod_hnf_canonical_box():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        H = hnf_columns(_random_cols(rng, n, n))
        v = tuple(rng.randint(-30, 30) for _ in range(n))
        r = reduce_mod_hnf(v, H)
        for i in range(n):
            assert 0 <= r[i] < H[i][i]
        diff = tuple(a - b for a, b in zip(v, r))
        assert not any(reduce_mod_hnf(diff, H))


def test_reduce_mod_hnf_batch_matches_scalar():
    rng = random.Random(9)
    H = hnf_columns(_random_cols(rng, 3, 3))
    V = np.array([[rng.randint(-50, 50) for _ in range(3)] for _ in range(200)],
                 dtype=np.int64)
    R = reduce_mod_hnf_batch(V, H)
    for v, r in zip(V, R):
        assert tuple(int(x) for x in r) == reduce_mod_hnf(tuple(int(x) for x in v), H)


def test_reduce_mod_hnf_batch_refuses_int64_wrap():
    # q = 2**40 // 3 times the column (2**40, 3) wrapped int64 and returned [[5, 1]]
    H = ((7, 2**40), (0, 3))
    assert reduce_mod_hnf((5, 2**40), H) == (2, 1)
    with pytest.raises(Infeasible, match="int64"):
        reduce_mod_hnf_batch([[5, 2**40]], H)
    # the bound is exact, not a blanket size limit: the same column reduces at 2**20
    assert reduce_mod_hnf_batch([[5, 2**20]], ((7, 2**20), (0, 3))).tolist() == [
        list(reduce_mod_hnf((5, 2**20), ((7, 2**20), (0, 3))))]
    assert 2**20 <= linalg.hnf_reduction_limit(((7, 2**20), (0, 3)))


def test_det_int_against_numpy():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        want = round(np.linalg.det(np.array(rows, dtype=float)))
        assert det_int(rows) == want


def test_det_int_singular():
    assert det_int([[1, 2], [2, 4]]) == 0


def test_short_vectors_z2():
    gram2 = np.array([[2, 0], [0, 2]], dtype=np.int64)  # doubled identity
    X, norms2 = short_vectors(gram2, 4)
    got = {tuple(int(v) for v in row) for row in X}
    want = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert got == want
    assert np.array_equal(norms2, np.einsum("ij,jk,ik->i", X, gram2, X))
    X0, _ = short_vectors(gram2, 4, include_zero=True)
    assert {tuple(int(v) for v in row) for row in X0} == want | {(0, 0)}


def test_shortest_nonzero_hexagonal():
    gram2 = np.array([[4, 2], [2, 4]], dtype=np.int64)
    val, vec = shortest_nonzero(gram2)
    assert val == 4
    v = np.asarray(vec, dtype=np.int64)
    assert int(v @ gram2 @ v) == 4


def test_shortest_nonzero_skewed_basis():
    # basis (1, 0), (100, 1): shortest vector needs a nontrivial combination
    B = np.array([[1, 100], [0, 1]], dtype=np.int64)
    gram2 = 2 * B.T @ B
    val, vec = shortest_nonzero(gram2)
    assert val == 2
    v = np.asarray(vec, dtype=np.int64)
    assert int(v @ gram2 @ v) == 2


def test_shortest_nonzero_matches_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        cols = _random_cols(rng, n, n, span=4)
        B = np.array(cols, dtype=np.int64).T
        gram2 = 2 * B.T @ B
        val, _ = shortest_nonzero(gram2)
        X, norms2 = short_vectors(gram2, int(val))
        assert int(norms2.min()) == val


def test_short_vectors_rejects_non_positive_definite():
    with pytest.raises(InvalidArgument):
        short_vectors(np.array([[1, 2], [2, 1]], dtype=np.int64), 5)
    with pytest.raises(InvalidArgument):
        shortest_nonzero(np.array([[2, 2], [2, 2]], dtype=np.int64))


def test_enumeration_guard_fires_before_allocating(monkeypatch):
    gram2 = np.array([[2, 0], [0, 2]], dtype=np.int64)
    assert short_vectors(gram2, 72)[0].shape[0] == 112  # x^2 + y^2 <= 36, zero dropped
    monkeypatch.setattr(linalg, "_ENUM_LIMIT", 100)
    # the last level would hold the 113 points of the disc: refused before
    # they are materialised, while a small search still runs
    with pytest.raises(Infeasible):
        short_vectors(gram2, 72)
    assert short_vectors(gram2, 2)[0].shape[0] == 4


def test_int64_range_is_checked_exactly():
    # x^T G x of (1, 1) is 2**63: it must not wrap to -2**63
    with pytest.raises(Infeasible):
        short_vectors(np.diag([2**62, 2**62]).astype(np.int64), 2**62, include_zero=True)
    with pytest.raises(Infeasible):
        shortest_nonzero(np.diag([2**62, 2**62]).astype(np.int64))
    # a large but representable search still runs
    X, norms2 = short_vectors(np.diag([2**40, 2**40]).astype(np.int64), 2**41)
    assert sorted(map(tuple, X.tolist())) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


# ---- property tests against a brute-force box ----


def _box_bounds(G, bound2):
    """Exact per-axis bounds floor(sqrt(bound2 * (G^-1)_ii))."""
    n = len(G)
    det = det_int(G)
    return [math.isqrt(bound2 * det_int([r[:i] + r[i + 1:] for j, r in enumerate(G) if j != i])
                       // det) for i in range(n)]


def _brute(G, bound2, include_zero=False):
    """{x: x^T G x} over the whole box, scored with Python ints."""
    n = len(G)
    out = {}
    for x in itertools.product(*(range(-b, b + 1) for b in _box_bounds(G, bound2))):
        v = sum(x[i] * G[i][j] * x[j] for i in range(n) for j in range(n))
        if v <= bound2 and (include_zero or v > 0):
            out[x] = v
    return out


def _box_size(G, bound2):
    return math.prod(2 * b + 1 for b in _box_bounds(G, bound2))


@st.composite
def _grams(draw, max_dim=4, span=5):
    """Doubled Gram matrices 2 B^T B, half of them skewed HNF-shaped bases
    (upper triangular, 0 <= H[i][j] < H[i][i]) of a random lattice, like
    side_sublattice_gram."""
    n = draw(st.integers(1, max_dim))
    entries = st.integers(-span, span)
    B = [[draw(entries) for _ in range(n)] for _ in range(n)]
    assume(det_int(B) != 0)
    if draw(st.booleans()):
        diag = [draw(st.integers(1, 9)) for _ in range(n)]
        H = [[diag[i] if i == j else draw(st.integers(0, diag[i] - 1)) if j > i else 0
              for j in range(n)] for i in range(n)]
        B = (np.array(B, dtype=object) @ np.array(H, dtype=object)).tolist()
    Bm = np.array(B, dtype=object)
    return (2 * Bm.T @ Bm).tolist()


@settings(max_examples=150, deadline=None)
@given(G=_grams(), frac=st.fractions(0, 3), include_zero=st.booleans())
def test_short_vectors_equals_brute_box(G, frac, include_zero):
    bound2 = math.floor(frac * min(G[i][i] for i in range(len(G))))
    while _box_size(G, bound2) > 20000:
        bound2 //= 2
    X, norms2 = short_vectors(np.array(G, dtype=np.int64), bound2, include_zero)
    got = {tuple(int(v) for v in x): int(q) for x, q in zip(X, norms2)}
    assert len(got) == X.shape[0]  # no duplicate rows
    assert got == _brute(G, bound2, include_zero)


@settings(max_examples=100, deadline=None)
@given(G=_grams(max_dim=3))
def test_shortest_nonzero_equals_brute_box(G):
    bound2 = min(G[i][i] for i in range(len(G)))
    assume(_box_size(G, bound2) <= 50000)
    ref = _brute(G, bound2)
    best = min(ref.values())
    want = (best, min(x for x, v in ref.items() if v == best))
    assert shortest_nonzero(np.array(G, dtype=np.int64)) == want


@settings(max_examples=150, deadline=None)
@given(G=_grams(max_dim=6, span=40))
def test_lll_transform_is_unimodular_and_exact(G):
    U, R = lll_gram(G)
    n = len(G)
    assert abs(det_int(U)) == 1
    Um = np.array(U, dtype=object)
    assert (Um.T @ np.array(G, dtype=object) @ Um).tolist() == R
    # R is LLL-reduced: size-reduced and the Lovasz condition with delta 0.99
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (R[i][j] - sum(mu[j][k] * mu[i][k] * bstar[k] for k in range(j))) / bstar[j]
            assert abs(mu[i][j]) <= Fraction(1, 2)
        bstar[i] = R[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
        if i:
            assert bstar[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * bstar[i - 1]


# ---- the one Fincke-Pohst search ----


@st.composite
def _search_inputs(draw, max_dim=3, max_targets=3):
    """t small integer upper-triangular R (positive diagonal), targets w in
    quarter steps and radii^2 in quarter steps."""
    n = draw(st.integers(1, max_dim))
    t = draw(st.integers(1, max_targets))
    R = np.zeros((t, n, n))
    for k in range(t):
        for i in range(n):
            R[k, i, i] = draw(st.integers(1, 3))
            for j in range(i + 1, n):
                R[k, i, j] = draw(st.integers(-2, 2))
    quarters = st.lists(st.integers(-12, 12), min_size=t * n, max_size=t * n)
    w = np.array(draw(quarters), dtype=np.float64).reshape(t, n) / 4.0
    radius2 = np.array(draw(st.lists(st.integers(0, 24), min_size=t, max_size=t))) / 4.0
    return R, w, radius2


@settings(max_examples=150, deadline=None)
@given(args=_search_inputs(), box=st.integers(1, 3))
def test_fp_search_equals_brute_box(args, box):
    # every v of the box [-box, box]^n inside some target's ball, and no other,
    # up to the points within 1e-6 of a sphere where the 1e-9 widening decides
    R, w, radius2 = args
    t, n = w.shape
    tr, V, kept = fp_search(R, w, radius2, [box] * n, 1 << 20)
    assert kept.all() and V.dtype == np.int64 and V.shape == (tr.shape[0], n)
    assert (np.diff(tr) >= 0).all()
    grid = np.array(list(itertools.product(range(-box, box + 1), repeat=n)), dtype=np.int64)
    for k in range(t):
        got = V[tr == k]
        assert len({tuple(v) for v in got.tolist()}) == got.shape[0]  # no row twice
        past, grid_past = (((X @ R[k].T - w[k]) ** 2).sum(axis=1) - radius2[k]
                           for X in (got, grid))
        assert (past <= 1e-6).all()
        assert ({tuple(v) for v in got[past < -1e-6].tolist()}
                == {tuple(v) for v in grid[grid_past < -1e-6].tolist()})


def test_fp_search_batches_like_single_targets():
    rng = np.random.default_rng(3)
    t, n = 6, 4
    R = np.triu(rng.integers(-2, 3, size=(t, n, n))).astype(np.float64)
    R[:, np.arange(n), np.arange(n)] = rng.integers(1, 4, size=(t, n))
    w = rng.normal(size=(t, n)) * 2.0
    radius2 = rng.uniform(0.5, 6.0, size=t)
    bound = [6] * n
    tr, V, kept = fp_search(R, w, radius2, bound, 1 << 20)
    assert kept.all()
    for k in range(t):
        _, one, _ = fp_search(R[k:k + 1], w[k:k + 1], radius2[k:k + 1], bound, 1 << 20)
        assert np.array_equal(V[tr == k], one)
    # a broadcast view of one R serves every target alike
    shared = np.broadcast_to(R[0], (t, n, n))
    tr, V, _ = fp_search(shared, w, radius2, bound, 1 << 20)
    for k in range(t):
        _, one, _ = fp_search(R[:1], w[k:k + 1], radius2[k:k + 1], bound, 1 << 20)
        assert np.array_equal(V[tr == k], one)


def test_fp_search_cap_drops_the_largest_target():
    # discs of radius^2 9, 1 and 4 around 0 hold 29, 5 and 13 points; the first
    # level holds 7 + 3 + 5 = 15 rows and the last 47, so a cap of 20 drops the
    # 29-point disc alone, and a NaN target is dropped whatever the cap
    R = np.broadcast_to(np.eye(2), (4, 2, 2))
    w = np.zeros((4, 2))
    w[3, 0] = np.nan
    radius2 = np.array([9.0, 1.0, 4.0, 1.0])
    tr, V, kept = fp_search(R, w, radius2, [3, 3], 20)
    assert kept.tolist() == [False, True, True, False]
    assert set(tr.tolist()) == {1, 2}
    assert np.bincount(tr, minlength=4).tolist() == [0, 5, 13, 0]
    assert ((V ** 2).sum(axis=1) <= radius2[tr]).all()
    _, _, kept = fp_search(R, w, radius2, [3, 3], 47)
    assert kept.tolist() == [True, True, True, False]


def test_check_int64_and_column_max_are_exact_at_the_boundary():
    linalg.check_int64([linalg.INT64_MAX, -linalg.INT64_MAX, 0], "x")
    linalg.check_int64([], "x")
    for v in (2**63, -(2**63)):
        with pytest.raises(Infeasible, match="x leaves the int64 range"):
            linalg.check_int64([1, v], "x")
    # -(-2^63) wraps in int64; column_max negates in Python ints
    assert linalg.column_max(np.array([[-(2**63), 5], [3, -7]], dtype=np.int64)) == [2**63, 7]
    assert linalg.column_max(np.zeros((0, 3), dtype=np.int64)) == [0, 0, 0]


def test_reduction_is_exact_up_to_its_limit():
    for H in (((7, 2**20), (0, 3)), ((5, 3, 1), (0, 4, 2), (0, 0, 6)), ((1,),)):
        limit, n = linalg.hnf_reduction_limit(H), len(H)
        for v in ([limit] * n, [-limit] * n, [limit, -limit, limit][:n]):
            assert tuple(reduce_mod_hnf_batch([v], H)[0].tolist()) == reduce_mod_hnf(v, H)
        with pytest.raises(Infeasible, match="int64"):
            reduce_mod_hnf_batch([[limit + 1] + [0] * (n - 1)], H)


def _int_matrix(draw, rows, cols, bits):
    entry = st.integers(-(2**bits), 2**bits)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), rows=st.integers(1, 4),
       bits=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_admitted_int64_products_equal_python_ints(data, n, rows, bits):
    # the bounds hold in Python ints, and wherever check_int64 admits them, the
    # int64 A @ x and x^T G x are the exact ones
    A = np.array(_int_matrix(data.draw, n, n, bits[0]), dtype=object)
    X = np.array(_int_matrix(data.draw, rows, n, bits[1]), dtype=object)
    xmax = linalg.column_max(X.astype(np.int64))
    g = linalg.product_bounds(A, xmax)
    quad = linalg.product_bounds([g], xmax)[0]
    assert all(abs(v) <= b for y in X @ A.T for v, b in zip(y, g))
    assert all(abs(x @ A @ x) <= quad for x in X)
    try:
        linalg.check_int64(g, "A @ x")
    except Infeasible:
        pass
    else:
        assert ((X.astype(np.int64) @ A.astype(np.int64).T).astype(object) == X @ A.T).all()
    try:
        linalg.check_int64([*g, quad], "x^T G x")
    except Infeasible:
        return
    quad = np.einsum("ij,jk,ik->i", X.astype(np.int64), A.astype(np.int64), X.astype(np.int64))
    assert quad.tolist() == [x @ A @ x for x in X]
