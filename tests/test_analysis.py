import itertools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticedex import (
    Infeasible,
    InvalidArgument,
    InvariantViolation,
    SimConfig,
    build_index_code,
    cyclotomic_field,
    diversity_and_product_distance,
    gain_bounds,
    ideal_lambda1_sq,
    maximal_real_field,
    min_distance,
    minkowski_upper_bound,
    overall_side_info_gain,
    preset_code,
    prime_ideals_above,
    quadratic_field,
    side_info_gain,
    whole_ring,
)
from conftest import _pair_scan, pair_scan_min_distance
from latticedex import analysis, codec, sim
from latticedex.analysis import SIX_DB, side_info_sets
from latticedex.numberfield import linalg
from latticedex.numberfield.linalg import lll_gram, shortest_nonzero


def test_lambda1_exact_where_int64_gram_products_wrap():
    # N(I) = 3,916,788,343 in Q(zeta7+): the int64 product H^T G H wrapped and
    # the LLL refused the result as "not positive definite"
    field = maximal_real_field(7)
    ideal = whole_ring(field)
    for p in (13, 29, 41, 43, 71, 83):
        ideal = ideal * prime_ideals_above(field, p)[0]
    assert ideal.norm == 3_916_788_343
    got = ideal_lambda1_sq(ideal)
    # independent check in Python ints: the Gram from sympy, an LLL basis
    # checked to span the same lattice, then every point of the exact box
    # |y_i|^2 <= bound * (R^-1)_ii around the origin
    H = sympy.Matrix(ideal.hnf)
    G = H.T * sympy.Matrix(field.gram2) * H
    U, R = (sympy.Matrix(M) for M in lll_gram(G.tolist()))
    assert abs(U.det()) == 1 and U.T * G * U == R
    bound = min(R[i, i] for i in range(field.n))
    box = [math.isqrt(int(sympy.floor(bound * R.inv()[i, i]))) for i in range(field.n)]
    best = min(int((sympy.Matrix([y]) * R * sympy.Matrix(y))[0])
               for y in itertools.product(*(range(-b, b + 1) for b in box)) if any(y))
    assert got == Fraction(best, 2)


def test_lambda1_oracles_example1(ex1_code):
    field = ex1_code.field
    assert ideal_lambda1_sq(whole_ring(field)) == Fraction(2)
    assert ideal_lambda1_sq(ex1_code.side_ideal((1,))) == Fraction(10)
    assert ideal_lambda1_sq(ex1_code.side_ideal((2,))) == Fraction(23)
    assert ideal_lambda1_sq(ex1_code.side_ideal((1, 2))) == Fraction(115)


def test_lambda1_oracles_example2(ex2_code):
    field = ex2_code.field
    assert ideal_lambda1_sq(whole_ring(field)) == Fraction(1)
    assert ideal_lambda1_sq(ex2_code.side_ideal((1,))) == Fraction(14)
    assert ideal_lambda1_sq(ex2_code.side_ideal((2,))) == Fraction(14)
    assert ideal_lambda1_sq(ex2_code.side_ideal((1, 2))) == Fraction(49)


def test_lambda1_oracles_example3(ex3_code):
    field = ex3_code.field
    assert ideal_lambda1_sq(whole_ring(field)) == Fraction(1)
    assert ideal_lambda1_sq(ex3_code.side_ideal((1,))) == Fraction(7)
    assert ideal_lambda1_sq(ex3_code.side_ideal((2,))) == Fraction(11)
    assert ideal_lambda1_sq(ex3_code.side_ideal((1, 2))) == Fraction(77)


def test_gain_oracles_example1(ex1_code):
    r1 = side_info_gain(ex1_code, (1,))
    assert abs(r1.gamma_db - SIX_DB) < 1e-12  # ratio 10/2 = N(p1)
    r2 = side_info_gain(ex1_code, (2,))
    want = 10.0 * math.log10(23.0 / 2.0) / (0.5 * math.log2(11))
    assert math.isclose(r2.gamma_db, want, rel_tol=1e-12)
    assert abs(r2.gamma_db - 6.1322) < 5e-4
    r12 = side_info_gain(ex1_code, (1, 2))
    want12 = 10.0 * math.log10(115.0 / 2.0) / (0.5 * math.log2(55))
    assert math.isclose(r12.gamma_db, want12, rel_tol=1e-12)


def test_bound_oracles(ex1_code, ex2_code):
    lo, hi = gain_bounds(ex1_code, (1,))
    assert lo == 6.0
    assert abs(hi - 9.0103) < 5e-4
    _, hi2 = gain_bounds(ex1_code, (2,))
    assert abs(hi2 - 8.0205) < 5e-4
    _, hic = gain_bounds(ex2_code, (1,))
    assert abs(hic - 9.2371) < 5e-4
    for d in (-1, -3, -7, -11):
        field = quadratic_field(d)
        p = 5 if d in (-1, -11) else 7
        code = build_index_code(field, [prime_ideals_above(field, p)[0]])
        assert gain_bounds(code, (1,)) == (SIX_DB, SIX_DB)


def test_reports_sandwiched(ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
    for code in (ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
        _, reports = overall_side_info_gain(code)
        assert len(reports) == (1 << len(code.primes)) - 1
        for r in reports:
            assert r.bounds_ok, (code.field.name, r.s, r.gamma_db)
            assert float(r.ds_sq) <= r.minkowski_upper**2 * (1 + 1e-9)


def test_gamma_monotone_under_ideal_products(ex1_code, ex2_code, ex3_code):
    # revealing more messages shrinks the candidate set, so d_S grows
    for code in (ex1_code, ex2_code, ex3_code):
        d1 = ideal_lambda1_sq(code.side_ideal((1,)))
        d2 = ideal_lambda1_sq(code.side_ideal((2,)))
        d12 = ideal_lambda1_sq(code.side_ideal((1, 2)))
        d0 = ideal_lambda1_sq(whole_ring(code.field))
        assert d0 <= d1 <= d12
        assert d0 <= d2 <= d12


def test_lambda1_lower_bound_from_norm(ex1_code, ex2_code, ex3_code, cyclo_code,
                                       maxreal_code):
    # AM-GM floor: lambda1^2 >= n * N^(2/n) (totally real), n/2 * N^(2/n) (complex)
    for code in (ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
        field = code.field
        scale = field.n if field.is_totally_real else field.n / 2.0
        for s in (((1,), (1, 2)) if len(code.primes) >= 2 else ((1,),)):
            ideal = code.side_ideal(s)
            lam = float(ideal_lambda1_sq(ideal))
            floor = scale * ideal.norm ** (2.0 / field.n)
            assert lam >= floor - 1e-9
            assert lam <= minkowski_upper_bound(field, ideal) ** 2 + 1e-9


def test_finite_min_distance_matches_lattice(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        for s in ((), (1,), (2,)):
            finite = min_distance(code, s)
            lam = ideal_lambda1_sq(code.side_ideal(s))
            assert finite == lam == pair_scan_min_distance(code, s), (code.field.name, s)


def test_min_distance_invariant_under_fixed_value(ex1_code):
    base = min_distance(ex1_code, (1,))
    seen = set()
    for pt in ex1_code.points:
        key = pt.message.residues[0]
        if key in seen:
            continue
        seen.add(key)
        assert min_distance(ex1_code, (1,), fixed=pt.message) == base
        if len(seen) >= 5:
            break


def test_min_distance_rejects_singleton(ex1_code):
    with pytest.raises(InvalidArgument):
        min_distance(ex1_code, (1, 2))
    with pytest.raises(InvalidArgument):
        diversity_and_product_distance(ex1_code, (1, 2))


def test_side_info_gain_rejects_empty(ex1_code):
    with pytest.raises(InvalidArgument):
        side_info_gain(ex1_code, ())
    with pytest.raises(InvalidArgument):
        gain_bounds(ex1_code, ())


def test_overall_gain_picks_worst(ex1_code):
    worst, reports = overall_side_info_gain(ex1_code)
    assert len(reports) == 3
    assert worst.gamma_db == min(r.gamma_db for r in reports)
    assert worst.s == (1,)
    with pytest.raises(Infeasible):
        overall_side_info_gain(ex1_code, k_cap=1)


def test_gain_report_serialization(ex1_code):
    r = side_info_gain(ex1_code, (2,))
    d = r.to_dict()
    assert d["S"] == [2]
    assert d["dS_sq"] == [23, 1]
    assert d["bounds_ok"] is True
    assert d["exact_uniform"] is False


def test_diversity_example1(ex1_code):
    r0 = diversity_and_product_distance(ex1_code, ())
    assert r0.diversity == 2
    assert math.isclose(r0.product_distance, 1.0, rel_tol=1e-9)
    assert r0.floor == 1.0
    r1 = diversity_and_product_distance(ex1_code, (1,))
    assert r1.diversity == 2
    assert math.isclose(r1.product_distance, 5.0, rel_tol=1e-9)
    assert r1.floor == 5.0
    r2 = diversity_and_product_distance(ex1_code, (2,))
    assert r2.diversity == 2
    assert math.isclose(r2.product_distance, 11.0, rel_tol=1e-9)
    assert r2.floor == 11.0


def test_diversity_reaches_floor_iff_norm_realized(maxreal_code):
    # degree-3 totally real: diversity 3, min product = min |norm| of a difference
    r = diversity_and_product_distance(maxreal_code, (1,))
    assert r.diversity == 3
    assert r.floor == 13.0
    assert r.product_distance >= r.floor - 1e-6


def test_diversity_complex_field(ex3_code):
    r = diversity_and_product_distance(ex3_code, ())
    assert r.diversity == 1  # one complex coordinate pair
    assert math.isclose(r.product_distance, 1.0, rel_tol=1e-9)
    assert r.floor is None


def _assert_searches_match_pair_scans(code, s, fixed=None):
    rep = diversity_and_product_distance(code, s, fixed)
    diversity, pmin = _pair_scan(code, code.subcode_indices(s, fixed))
    assert rep.diversity == diversity, (code, s)
    if code.is_plain:
        assert diversity == sum(code.field.signature), (code, s)
    assert math.isclose(rep.product_distance, pmin, rel_tol=1e-12), (code, s, pmin)
    assert min_distance(code, s, fixed) == pair_scan_min_distance(code, s, fixed), (code, s)


def test_norm_search_matches_pair_scan_on_presets(ex1_code, ex2_code, ex3_code,
                                                  cyclo_code, maxreal_code):
    # cyclo-K4 at S = {} is pinned here and in test_exact_product_distances: its
    # pair scans are too slow for tier-1
    for code in (ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
        k = len(code.primes)
        for r in range(k + 1):
            for s in itertools.combinations(range(1, k + 1), r):
                if code.subcode_indices(s).shape[0] >= 2 and (s or code is not cyclo_code):
                    _assert_searches_match_pair_scans(code, s)
    assert min_distance(cyclo_code, ()) == 2


def test_exact_product_distances(ex2_code, maxreal_code, cyclo_code):
    # the primes above 7 in Q(sqrt(-5)) are not principal: the least |N(d)| in
    # p_1 is 14, not N(p_1) = 7, and only the full search radius reaches it
    rep = diversity_and_product_distance(ex2_code, (1,))
    assert (rep.diversity, rep.product_distance) == (1, math.sqrt(14))
    # the pair scan over embeddings reported 0.9999999999987852 here
    rep = diversity_and_product_distance(maxreal_code, ())
    assert (rep.diversity, rep.product_distance) == (3, 1.0)
    rep = diversity_and_product_distance(cyclo_code, ())
    assert (rep.diversity, rep.product_distance) == (2, 1.0)
    # two-slot minima of m = 2 codes: every realised G~ d has both slots nonzero
    field = quadratic_field(-5)
    one, theta = field.one, field.theta
    code = build_index_code(field, prime_ideals_above(field, 3)[:1],
                            [[-one + theta, -theta], [one - theta, -one - theta]])
    rep = diversity_and_product_distance(code, ())
    assert (rep.diversity, rep.product_distance) == (2, math.sqrt(20))
    # the pair scan over embeddings reports 1.9999999999999996 here
    field = quadratic_field(3)
    one, theta = field.one, field.theta
    code = build_index_code(field, prime_ideals_above(field, 2)[:1],
                            [[one, one - theta], [one - theta, -one]])
    rep = diversity_and_product_distance(code, ())
    assert (rep.diversity, rep.product_distance) == (4, 2.0)


_FADING_FIELDS = [quadratic_field(d) for d in range(-30, 31)
                  if d not in (0, 1) and all(d % (q * q) for q in (2, 3, 5))]
_FADING_FIELDS += [cyclotomic_field(m) for m in (5, 8, 12)]


def _primes(draw, field, cap):
    """1-2 primes above p < 30, p prime to a cyclotomic field's conductor,
    with a product of norms of at most cap."""
    above = [q for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
             if field.family == "quadratic" or field.param % p
             for q in prime_ideals_above(field, p) if q.norm <= cap]
    return draw(st.lists(st.sampled_from(above), min_size=1, max_size=2, unique=True)
                .filter(lambda ps: math.prod(q.norm for q in ps) <= cap))


@st.composite
def _small_plain_codes(draw):
    """A plain code of a quadratic or cyclotomic field, at most 200 points."""
    field = draw(st.sampled_from(_FADING_FIELDS))
    return build_index_code(field, _primes(draw, field, 200))


@st.composite
def _small_module_codes(draw):
    """A code on m = 1 or 2 copies of a quadratic or cyclotomic field, with a
    nonsingular generator whose entries have coordinates in {-1, 0, 1}: at
    most 700 points, 400 in dimension 4 and 169 in dimension 8, where a
    search that runs to its full radius enumerates the most."""
    field = draw(st.sampled_from(_FADING_FIELDS))
    m = draw(st.sampled_from((1, 2)))
    primes = _primes(draw, field, 700 if m == 1 else 20 if field.n == 2 else 13)
    entry = st.tuples(*[st.sampled_from((-1, 0, 1))] * field.n).map(field.element)
    gmatrix = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    try:
        return build_index_code(field, primes, gmatrix)
    except InvalidArgument:  # a singular generator
        assume(False)


@settings(max_examples=80, deadline=None)
@given(code=st.one_of(_small_plain_codes(), _small_module_codes()))
def test_norm_search_matches_pair_scan(code):
    # the last message is nonzero in every component: a translate of the subcode
    translate = code.message_from_index(code.size - 1)
    k = len(code.primes)
    for r in range(k + 1):
        for s in itertools.combinations(range(1, k + 1), r):
            for fixed in (None, translate):
                if code.subcode_indices(s, fixed).shape[0] >= 2:
                    _assert_searches_match_pair_scans(code, s, fixed)


def test_m2_finite_distance_matches_lattice(zi_m2, zi_m2k2, module_codes):
    val0, _ = shortest_nonzero(zi_m2.gram2)
    assert (min_distance(zi_m2, ()) == Fraction(int(val0), 2)
            == pair_scan_min_distance(zi_m2, ()))
    vals, _ = shortest_nonzero(zi_m2k2.side_lattice((1,)).gram)
    assert (min_distance(zi_m2k2, (1,)) == Fraction(int(vals), 2)
            == pair_scan_min_distance(zi_m2k2, (1,)))
    for label, code in module_codes.items():
        k = len(code.primes)
        for s in (s for r in range(k + 1) for s in combinations(range(1, k + 1), r)):
            if code.subcode_indices(s).shape[0] >= 2:
                assert (min_distance(code, s)
                        == pair_scan_min_distance(code, s)), (label, s)


def test_m2_min_distance_rejects_singleton(zi_m2):
    # fully revealed m=1 K=1 subcode has one point
    with pytest.raises(InvalidArgument):
        min_distance(
            build_index_code(zi_m2.field, zi_m2.primes, [[1]]), (1,))


def test_unit_column_scaling_preserves_gains(zi_primes):
    field, primes = zi_primes
    theta = field.theta  # i, a unit
    a = build_index_code(field, primes[:1], [[1, 0], [0, 1]])
    b = build_index_code(field, primes[:1], [[1, 0], [field.zero, theta]])
    ra = side_info_gain(a, (1,))
    rb = side_info_gain(b, (1,))
    assert ra.d0_sq == rb.d0_sq
    assert ra.ds_sq == rb.ds_sq
    assert ra.gamma_db == rb.gamma_db


def test_shear_changes_lattice_but_keeps_point_count(zi_primes):
    field, primes = zi_primes
    theta = field.theta
    shear = build_index_code(field, primes[:1], [[1, 1 + theta], [0, 1]])
    assert shear.size == 25
    r = side_info_gain(shear, (1,))
    assert r.bounds_ok


def test_totally_real_stack():
    field = quadratic_field(5)
    prime = prime_ideals_above(field, 5)[0]  # ramified, norm 5
    code = build_index_code(field, [prime], [[1, 0], [0, 1]])
    assert code.size == 25
    assert float(code.mean_energy) > 0
    r = side_info_gain(code, (1,))
    assert r.lower_bound_db is None  # no exact-uniform claim off the PID fields
    assert r.gamma_db > 0
    assert float(r.ds_sq) <= r.minkowski_upper**2 * (1 + 1e-9)


def test_bounds_hold_when_no_bound_applies():
    # an m = 2 code off the imaginary quadratic PIDs has no gain sandwich to violate
    field = quadratic_field(-5)
    code = build_index_code(field, [prime_ideals_above(field, 3)[0]], [[1, 0], [0, 1]])
    r = side_info_gain(code, (1,))
    assert (r.lower_bound_db, r.upper_bound_db, r.exact_uniform) == (None, None, False)
    assert r.bounds_ok and r.to_dict()["bounds_ok"] is True


def test_gain_rejects_empty_set(zi_m2):
    with pytest.raises(InvalidArgument):
        side_info_gain(zi_m2, ())


def test_m2_diversity_counts_every_slot(module_codes, zi_1105):
    # every S of the five module codes and of the 1105-point code with generator
    # 1 + i, against the pair scan; m=2 two primes at S = {} (4225 points) is
    # pinned, its pair scan is too slow for tier-1
    for label, code in dict(module_codes, zi_1105=zi_1105).items():
        k = len(code.primes)
        for s in (s for r in range(k + 1) for s in combinations(range(1, k + 1), r)):
            idx = code.subcode_indices(s)
            if idx.shape[0] < 2 or (label, s) == ("m=2 two primes", ()):
                continue
            rep = diversity_and_product_distance(code, s)
            diversity, pmin = _pair_scan(code, idx)
            assert rep.diversity == diversity, (label, s)
            assert math.isclose(rep.product_distance, pmin, rel_tol=1e-12), (label, s, pmin)
    rep = diversity_and_product_distance(module_codes["m=2 two primes"], ())
    assert (rep.diversity, rep.product_distance) == (1, 1.0)


def test_analysing_every_set_reduces_each_side_sublattice_once(monkeypatch):
    # gains, minimum distances and fading figures read the code's one record per S
    # (IndexCode.side_lattice): over every nonempty S of a freshly built cyclo-K4, each
    # distinct side Gram, the code lattice's (S = {}) included, is LLL-reduced once
    code = preset_code("cyclo-K4")
    grams, lll_gram = [], linalg.lll_gram

    def counted(gram):
        grams.append(str(np.asarray(gram, dtype=object).tolist()))
        return lll_gram(gram)

    monkeypatch.setattr(linalg, "lll_gram", counted)
    monkeypatch.setattr(codec, "lll_gram", counted)
    sets = side_info_sets(len(code.primes))
    for s in sets:
        side_info_gain(code, s)
        if code.subcode_indices(s).shape[0] >= 2:
            min_distance(code, s)
            diversity_and_product_distance(code, s)
    assert len(grams) == len(set(grams)) == len(sets) + 1


def test_each_side_lattice_minimum_is_enumerated_once(monkeypatch):
    # the exact minimum lambda_S lives on the code's one record per S (IndexCode.side_lattice):
    # gains, fading figures and the simulator's exit read it, so over every nonempty S of a
    # freshly built cyclo-K4, plus a sweep context on every S, shortest_nonzero runs once per
    # distinct S, the code lattice's (S = {}) included
    code = preset_code("cyclo-K4")
    grams, shortest = [], linalg.shortest_nonzero

    def counted(gram2, lll=None):
        grams.append(str(np.asarray(gram2, dtype=object).tolist()))
        return shortest(gram2, lll)

    for module in (linalg, codec, analysis, sim):
        if hasattr(module, "shortest_nonzero"):
            monkeypatch.setattr(module, "shortest_nonzero", counted)
    sets = side_info_sets(len(code.primes))
    for s in sets:
        side_info_gain(code, s)
        if code.subcode_indices(s).shape[0] >= 2:
            diversity_and_product_distance(code, s)
    for s in [(), *sets]:
        sim._build_ctx(SimConfig(code, "awgn", (12.0,), side_info=s, workers=1))
    assert len(grams) == len(set(grams)) == len(sets) + 1


def test_side_ideal_differences_are_checked_at_the_exact_int64_bound(monkeypatch):
    # S = {1}, J = a prime of norm 2 in Z[i], whose HNF's first column is (2, 0):
    # a short vector (k, 0) maps to the difference (2k, 0), past int64 at k = 2^62
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, p)[0] for p in (2, 5)])
    assert code.side_lattice((1,)).basis[:, 0].tolist() == [2, 0]
    for k, error, what in ((2**62, Infeasible, "a side-ideal difference leaves the int64"),
                           (2**62 - 1, InvariantViolation, "no difference")):
        monkeypatch.setattr(analysis, "short_vectors",
                            lambda gram, bound2, lll: (np.array([[k, 0]]), np.array([1])))
        with pytest.raises(error, match=what):
            min_distance(code, (1,))


def test_subcode_differences_are_proven_in_int64(zi_1105, monkeypatch):
    # every G~ d with |d| inside the subcode's box, bounded here in Python ints
    X = zi_1105.coords_matrix
    span = (X.max(axis=0) - X.min(axis=0)).tolist()
    bound = max(sum(abs(b) * w for b, w in zip(row, span)) for row in zi_1105.basis.tolist())
    monkeypatch.setattr(linalg, "INT64_MAX", bound - 1)
    with pytest.raises(Infeasible, match="^a difference G~ d of the subcode leaves the int64"):
        diversity_and_product_distance(zi_1105, ())


def test_subcode_sums_are_checked_at_the_exact_int64_bound(monkeypatch):
    # S = {}, J = Z[i]: the difference d = (span_0, 0) fits the subcode's box, and
    # the sums x + d reach max_j (max|x_j| + max|d_j|), above every earlier bound
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, p)[0] for p in (2, 5)])
    X = code.coords_matrix.tolist()
    xmax = [max(abs(v) for v in col) for col in zip(*X)]
    span = [max(col) - min(col) for col in zip(*X)]
    d = [span[0], 0]
    bound = max(x + abs(v) for x, v in zip(xmax, d))
    assert bound > max(span)
    monkeypatch.setattr(analysis, "short_vectors",
                        lambda gram, bound2, lll: (np.array([d]), np.array([2 * span[0] ** 2])))
    monkeypatch.setattr(linalg, "INT64_MAX", bound - 1)
    with pytest.raises(Infeasible, match="^a sum x \\+ d of the subcode leaves the int64"):
        min_distance(code, ())
    monkeypatch.setattr(linalg, "INT64_MAX", bound)
    assert min_distance(code, ()) == span[0] ** 2  # x + d is stored for x = (-2, -1)
