import functools
import hashlib
import json
import math
import operator
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedex import (
    Infeasible,
    InvalidArgument,
    Message,
    SimConfig,
    Unsupported,
    build_index_code,
    decode_point,
    encode,
    load_code,
    min_distance,
    ml_detect,
    preset_code,
    prime_ideals_above,
    principal_ideal,
    quadratic_field,
    rate,
    save_code,
    subcode_points,
    whole_ring,
)
from latticedex import codec
from latticedex.codec import IndexCode
from latticedex.numberfield import (Ideal, classify_prime, factor_minpoly_mod_p,
                                   field_from_dict, ideal_from_generators)
from latticedex.numberfield import linalg
from latticedex.numberfield.linalg import reduce_mod_hnf_batch, short_vectors


def test_example1_shape(ex1_code):
    assert ex1_code.size == 55
    assert ex1_code.alphabet_sizes == (5, 11)
    assert ex1_code.num_messages == 2
    assert ex1_code.modulus.norm == 55
    assert ex1_code.coords_matrix.shape == (55, 2)
    assert ex1_code.embedded.shape == (55, 2)


def _assert_crt_idempotents(code):
    """e_k = delta_kj mod p_j and sum_k e_k = 1 mod I, each e_k its canonical
    residue mod I."""
    field, modulus = code.field, code.modulus
    for k, e in enumerate(code.idempotents):
        assert modulus.reduce(e) == e
        for j, p in enumerate(code.primes):
            assert p.reduce(e) == p.reduce(field.one if j == k else field.zero)
    assert modulus.reduce(functools.reduce(operator.add, code.idempotents)) == modulus.reduce(1)


def test_idempotents_are_crt_units(ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
    for code in (ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
        _assert_crt_idempotents(code)


def test_zero_message_maps_to_origin(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        pt = code.representative(code.zero_message())
        assert all(v == 0 for v in pt.coords)


def test_labels_round_trip_exhaustively(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        for pt in code.points:
            assert code.message_index(pt.message) == pt.index
            assert code.message_from_index(pt.index) == pt.message
            assert decode_point(code, pt.coords) == pt.message


def test_message_order_is_row_major(ex1_code):
    n2 = ex1_code.alphabet_sizes[1]
    assert np.all(ex1_code.residue_indices[:n2, 0] == 0)
    assert np.array_equal(ex1_code.residue_indices[:n2, 1], np.arange(n2))
    assert np.all(ex1_code.residue_indices[n2:2 * n2, 0] == 1)


def test_encoding_is_crt_additive(ex1_code, ex3_code):
    rng = random.Random(61)
    for code in (ex1_code, ex3_code):
        field = code.field
        for _ in range(30):
            a = code.points[rng.randrange(code.size)]
            b = code.points[rng.randrange(code.size)]
            s = code.representative(code.message_add(a.message, b.message))
            diff = field.element(tuple(x + y - z for x, y, z in
                                       zip(a.coords, b.coords, s.coords)))
            assert code.modulus.contains(diff)


def test_encoding_is_crt_multiplicative(ex1_code, ex3_code):
    rng = random.Random(67)
    for code in (ex1_code, ex3_code):
        field = code.field
        for _ in range(30):
            a = code.points[rng.randrange(code.size)]
            b = code.points[rng.randrange(code.size)]
            s = code.representative(code.message_mul(a.message, b.message))
            prod = field.element(a.coords) * field.element(b.coords)
            diff = prod - field.element(s.coords)
            assert code.modulus.contains(diff)


def test_representatives_have_minimum_energy(ex1_code, ex2_code):
    rng = random.Random(71)
    for code in (ex1_code, ex2_code):
        field = code.field

        def normsq2(a):  # x^T gram2 x = 2 * ||Psi(x)||^2, exactly
            return sum(ci * g * cj for ci, row in zip(a.coords, field.gram2)
                       for g, cj in zip(row, a.coords))

        shifts = [field.element(c) for c in code.modulus.basis_columns()]
        for _ in range(20):
            pt = code.points[rng.randrange(code.size)]
            x = field.element(pt.coords)
            for sh in shifts:
                assert normsq2(x) <= normsq2(x + sh)
                assert normsq2(x) <= normsq2(x - sh)


def test_mean_energy_normalization(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        e = code.gamma * code.embedded
        assert abs((e * e).sum() / code.size - 1.0) < 1e-12
        assert math.isclose(code.gamma, 1.0 / math.sqrt(float(code.mean_energy)),
                            rel_tol=1e-12)


def test_build_is_deterministic(ex1_code):
    field = quadratic_field(5)
    primes = [principal_ideal(field.element((-1, 2))),
              principal_ideal(field.element((3, 2)))]
    again = build_index_code(field, primes)
    assert np.array_equal(again.coords_matrix, ex1_code.coords_matrix)
    assert again.content_hash() == ex1_code.content_hash()


def test_side_ideal_and_subcode_sizes(ex1_code):
    assert ex1_code.side_ideal(()) == whole_ring(ex1_code.field)
    assert ex1_code.side_ideal((1,)) == ex1_code.primes[0]
    assert ex1_code.side_ideal((1, 2)).norm == 55
    assert ex1_code.subcode_indices(()).shape[0] == 55
    assert ex1_code.subcode_indices((1,)).shape[0] == 11
    assert ex1_code.subcode_indices((2,)).shape[0] == 5
    assert ex1_code.subcode_indices((1, 2)).shape[0] == 1


def test_subcode_membership(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        for s in ((1,), (2,), (1, 2)):
            ideal = code.side_ideal(s)
            idx = code.subcode_indices(s)
            for pt in subcode_points(code, s):
                assert ideal.contains(code.field.element(pt.coords))
            assert len(idx) * ideal.norm == code.size


def test_subcode_with_fixed_side_information(ex1_code):
    fixed = ex1_code.points[17].message
    idx = ex1_code.subcode_indices((1,), fixed)
    assert idx.shape[0] == 11
    want = ex1_code.primes[0].residue_indices([fixed.residues[0]])[0]
    assert np.all(ex1_code.residue_indices[idx, 0] == want)


def test_message_validation(ex1_code):
    with pytest.raises(InvalidArgument):
        ex1_code.message_index(Message(((0, 0),)))  # wrong K
    with pytest.raises(InvalidArgument):
        ex1_code.message_index(Message(((0,), (0, 0))))  # wrong length
    bad = Message(((9, 9), (0, 0)))  # not a canonical residue
    with pytest.raises(InvalidArgument):
        ex1_code.message_index(bad)
    with pytest.raises(InvalidArgument):
        ex1_code.message_index(Message(((1.5, 0), (0, 0))))  # not an integer
    with pytest.raises(InvalidArgument):
        ex1_code.check_side_info((3,))
    with pytest.raises(InvalidArgument):
        ex1_code.check_side_info((0,))
    # no truncation of 1.5 to 1, no bool taken for 1, no TypeError from None
    for s in ((1.5,), (2.9,), (True,), (None,), ("a",), (1, 2.0)):
        with pytest.raises(InvalidArgument, match="integer"):
            ex1_code.check_side_info(s)
    assert ex1_code.check_side_info((np.int64(2), 1, 2)) == (1, 2)


def test_bool_residues_are_refused(ex1_code):
    # True == 1 in Python, but a residue is an integer: Python or numpy, not a bool
    code = ex1_code
    py = Message(((0, 0), (1, 0)))
    as_numpy = Message(tuple(tuple(np.int64(v) for v in r) for r in py.residues))
    for flag in (True, np.True_):
        bad = Message(((0, 0), (flag, 0)))
        with pytest.raises(InvalidArgument, match="canonical residue"):
            code.message_index(bad)
        with pytest.raises(InvalidArgument, match="canonical residue"):
            encode(code, bad)
        with pytest.raises(InvalidArgument, match="canonical residue"):
            ml_detect(code, encode(code, py), (2,), fixed=bad)
        with pytest.raises(InvalidArgument, match="canonical residue"):
            min_distance(code, (2,), bad)
    assert code.message_index(py) == code.message_index(as_numpy) == 1
    assert np.array_equal(encode(code, py), encode(code, as_numpy))
    assert ml_detect(code, encode(code, py), (2,), fixed=as_numpy) == py
    assert min_distance(code, (2,), py) == min_distance(code, (2,), as_numpy)


def test_non_sequence_residues_are_refused(ex1_code):
    # a component that is not a sequence, inside S, is bad input: no TypeError from len
    code = ex1_code
    good = code.points[7].message
    entry_points = (
        code.message_index,
        code.representative,
        lambda w: encode(code, w),
        lambda w: code.subcode_indices((2,), w),
        lambda w: ml_detect(code, encode(code, good), (2,), fixed=w),
        lambda w: min_distance(code, (2,), w),
    )
    for bad in (5, None, "ab", "abc"):
        w = Message((good.residues[0], bad))
        for call in entry_points:
            with pytest.raises(InvalidArgument):
                call(w)


def test_build_rejects_duplicates_and_nonprimes():
    field = quadratic_field(5)
    g = principal_ideal(field.element((-1, 2)))
    with pytest.raises(InvalidArgument):
        build_index_code(field, [g, g])
    f7 = quadratic_field(-7)
    with pytest.raises(InvalidArgument):
        # norm 4 element: (1 + theta) * conj = 4, not a prime ideal
        build_index_code(f7, [principal_ideal(f7.element((1, 1)))])
    with pytest.raises(InvalidArgument, match="not a prime ideal"):
        build_index_code(field, [principal_ideal(field.element((6, 0)))])  # (6), norm 36
    with pytest.raises(InvalidArgument):
        build_index_code(field, [])


def test_index_code_checks_its_primes(ex1_code, load_doc):
    # the constructor is the one gate: untagged primes come out tagged exactly
    # as build_index_code has them, so the direct code hashes like the built
    # one and its file loads
    field, coords = ex1_code.field, ex1_code.coords_matrix
    a, b = (principal_ideal(field.element(g)) for g in ((-1, 2), (3, 2)))
    assert not a.is_prime_tagged
    direct = IndexCode(field, [a, b], coords[::-1])
    assert direct.content_hash() == ex1_code.content_hash()
    assert load_doc(direct.to_dict()).content_hash() == ex1_code.content_hash()
    # wrong tags on the right HNF are replaced by the true ones
    fake = Ideal(field, b.hnf, residue_char=11, ramification=2, inertia=1)
    assert IndexCode(field, [a, fake], coords).content_hash() == ex1_code.content_hash()
    # (2t-1)(3+2t) has norm 55: one "message" whose alphabet is not a field
    with pytest.raises(InvalidArgument, match="not a prime ideal"):
        IndexCode(field, [a * b], coords)
    with pytest.raises(InvalidArgument, match="duplicate"):
        IndexCode(field, [b, b], coords)
    with pytest.raises(InvalidArgument, match="at least one"):
        IndexCode(field, [], coords)
    with pytest.raises(InvalidArgument, match="field"):
        IndexCode(field, [prime_ideals_above(quadratic_field(-1), 5)[0]], coords)


def test_index_code_takes_its_points_in_any_order(maxreal_code, module_codes):
    # the constructor orders the points by message index, whatever order they
    # come in; code files hold only plain codes, so the m = 2 code compares
    # its arrays
    rng = np.random.default_rng(19)
    for code in (maxreal_code, module_codes["m=2 shear"]):
        perm = rng.permutation(code.size)
        direct = IndexCode(code.field, code.primes, code.coords_matrix[perm], code.gmatrix)
        for attr in ("coords_matrix", "labels", "residue_indices", "norms2", "embedded"):
            assert np.array_equal(getattr(direct, attr), getattr(code, attr)), attr
        assert (direct.idempotents, direct.gamma) == (code.idempotents, code.gamma)
        if code.is_plain:
            assert direct.content_hash() == code.content_hash()


def test_ideal_hnf_is_normalised():
    # a list-of-lists or numpy HNF, as a hand-made matrix has it, is the same
    # ideal as the tuple HNF of the prime: equal, equally hashed, accepted
    field = quadratic_field(5)
    prime = prime_ideals_above(field, 11)[0]
    built = build_index_code(field, [prime])
    for copy in (Ideal(field, [list(row) for row in prime.hnf]), Ideal(field, np.array(prime.hnf))):
        assert copy == prime and hash(copy) == hash(prime)
        assert all(type(v) is int for row in copy.hnf for v in row)
        direct = IndexCode(field, [copy], built.coords_matrix)
        assert direct.content_hash() == built.content_hash()


def test_integer_coordinates_are_never_truncated(ex1_code):
    field = quadratic_field(-7)
    for bad in ((2.9999, 1), ("3", "1"), (True, 0), (np.float64(2.0), 1)):
        with pytest.raises(InvalidArgument, match="integers"):
            field.element(bad)
    for bad in (1.5, "1", False):
        with pytest.raises(InvalidArgument, match="integers"):
            field.from_int(bad)
    el = field.element((np.int64(2), np.int32(1)))
    assert el.coords == (2, 1) and all(type(v) is int for v in el.coords)
    with pytest.raises(InvalidArgument, match="integers"):
        decode_point(ex1_code, (0.5, 1.7))
    with pytest.raises(InvalidArgument, match="integers"):
        build_index_code(ex1_code.field, ex1_code.primes[:1], [[1.5]])
    one = build_index_code(ex1_code.field, ex1_code.primes[:1], [[np.int64(1)]])
    assert one.content_hash() == build_index_code(ex1_code.field, ex1_code.primes[:1]).content_hash()


def test_ideal_hnf_entries_are_never_truncated():
    # int(v) made [[11.9, 7.2], [0, 1.0]] the prime ((11, 7), (0, 1)) above 11
    field = quadratic_field(5)
    prime = Ideal(field, [[11, 7], [0, 1]])
    assert prime in prime_ideals_above(field, 11)
    for bad in ([[11.9, 7.2], [0, 1.0]], [[11.0, 7], [0, 1]], np.array([[11.5, 7], [0, 1]]),
                [["11", 7], [0, 1]], [[11, 7], [False, True]]):
        with pytest.raises(InvalidArgument, match="integers"):
            Ideal(field, bad)
    assert Ideal(field, np.array(prime.hnf, dtype=np.int32)) == prime


def test_numpy_integers_are_rational_integers():
    # a + np.int64(1) was refused as "elements belong to different fields"
    field = quadratic_field(5)
    a = field.element((2, 3))
    prime = prime_ideals_above(field, 11)[0]
    for k in (np.int64(1), np.int32(2), np.int64(11), np.uint8(3)):
        assert a + k == a + int(k) == k + a
        assert a - k == a - int(k)
        assert a * k == a * int(k) == k * a
        assert prime.contains(k) is prime.contains(int(k))
    assert prime.contains(np.int64(11)) and not prime.contains(np.int64(3))
    assert ideal_from_generators(field, [np.int64(11)]) == ideal_from_generators(field, [11])
    for bad in (True, np.bool_(True), 1.0):
        with pytest.raises(InvalidArgument):
            a + bad
        with pytest.raises(InvalidArgument):
            prime.contains(bad)


def test_numpy_integers_as_exponents_and_primes():
    # a ** np.int64(2) and prime_ideals_above(field, np.int64(11)) were refused
    field = quadratic_field(5)
    a = field.element((2, 3))
    for k in (np.int64(2), np.int32(3), np.uint8(0)):
        assert a ** k == a ** int(k)
    for p in (np.int64(11), np.int32(2), np.uint16(5)):
        above = prime_ideals_above(field, p)
        assert above == prime_ideals_above(field, int(p))
        assert all(type(q.residue_char) is int and type(q.two_gen[0]) is int for q in above)
        assert classify_prime(field, p) == classify_prime(field, int(p))
        assert factor_minpoly_mod_p(field, p) == factor_minpoly_mod_p(field, int(p))
    code = build_index_code(field, [prime_ideals_above(field, np.int64(11))[0]])
    assert code.content_hash() == build_index_code(
        field, [prime_ideals_above(field, 11)[0]]).content_hash()
    for bad in (True, np.bool_(True), 2.0):
        with pytest.raises(InvalidArgument):
            a ** bad
        with pytest.raises(InvalidArgument):
            prime_ideals_above(field, bad)


_SQUAREFREE_D = [d for d in range(-30, 31)
                 if d not in (0, 1) and all(d % (q * q) for q in (2, 3, 5))]


@st.composite
def _quadratic_primes(draw):
    """A quadratic field and 1-3 distinct primes above p < 30, split, inert or
    ramified, of norm product at most 300."""
    field = quadratic_field(draw(st.sampled_from(_SQUAREFREE_D)))
    above = [q for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
             for q in prime_ideals_above(field, p)]
    primes = []
    for _ in range(draw(st.integers(1, 3))):
        room = 300 // math.prod(q.norm for q in primes)
        options = [q for q in above if q.norm <= room and q not in primes]
        if options:
            primes.append(draw(st.sampled_from(options)))
    return field, primes


@settings(max_examples=60, deadline=None)
@given(case=_quadratic_primes())
def test_crt_idempotents_and_the_prime_gate(case, tmp_path_factory):
    field, primes = case
    code = build_index_code(field, primes)
    _assert_crt_idempotents(code)
    # untagged copies of the primes give the built code, and it survives its file
    direct = IndexCode(field, [Ideal(field, q.hnf) for q in primes], code.coords_matrix[::-1])
    assert direct.content_hash() == code.content_hash()
    path = tmp_path_factory.mktemp("code") / "code.json"
    save_code(direct, path)
    assert load_code(path).content_hash() == code.content_hash()


@functools.cache
def _unramified_primes(family, m):
    """The field and its unramified primes above p < 40 of norm at most 400."""
    field = field_from_dict({"family": family, "param": m})
    return field, [q for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) if m % p
                   for q in prime_ideals_above(field, p) if q.norm <= 400]


@st.composite
def _crt_codes(draw):
    """A code on 1-2 distinct unramified primes above p < 40 of Q(zeta5),
    Q(zeta8), Q(zeta12), Q(zeta7+) or Q(zeta11+), with N(I) <= 400."""
    field, above = _unramified_primes(*draw(st.sampled_from(
        [("cyclotomic", 5), ("cyclotomic", 8), ("cyclotomic", 12),
         ("maximal_real", 7), ("maximal_real", 11)])))
    primes = [draw(st.sampled_from(above))]
    room = [q for q in above if q not in primes and q.norm * primes[0].norm <= 400]
    if room and draw(st.booleans()):
        primes.append(draw(st.sampled_from(room)))
    return build_index_code(field, primes)


@settings(max_examples=40, deadline=None)
@given(code=_crt_codes(), data=st.data())
def test_crt_ring_isomorphism_beyond_quadratic_fields(code, data, tmp_path_factory):
    _assert_crt_idempotents(code)
    field, modulus = code.field, code.modulus
    index = st.integers(0, code.size - 1)
    for _ in range(4):
        a = code.message_from_index(data.draw(index))
        b = code.message_from_index(data.draw(index))
        x, y = (field.element(code.representative(w).coords) for w in (a, b))
        for op, got in ((operator.add, code.message_add(a, b)),
                        (operator.mul, code.message_mul(a, b))):
            assert modulus.contains(op(x, y) - field.element(code.representative(got).coords))
    path = tmp_path_factory.mktemp("code") / "code.json"
    save_code(code, path)
    assert load_code(path).content_hash() == code.content_hash()


def test_build_enumerates_a_ball_sized_by_the_coset_count(monkeypatch):
    # the search starts near one lattice point per coset: cyclo-K4 and maxreal-K3
    # enumerated 469,651 and 47,773 rows when it started at the Minkowski bound
    rows = []
    enumerate_ball = codec.short_vectors

    def counting(*args, **kw):
        out = enumerate_ball(*args, **kw)
        rows.append(out[0].shape[0])
        return out

    monkeypatch.setattr(codec, "short_vectors", counting)
    for name, most in (("cyclo-K4", 100_000), ("maxreal-K3", 15_000)):
        rows.clear()
        preset_code(name)
        assert sum(rows) <= most, (name, rows)


def test_code_lattice_is_checked_at_the_exact_int64_bound(zi_primes):
    # the generator 2^31 on Z[i] makes a doubled Gram entry of 2 * 2^62 = 2^63
    field, primes = zi_primes
    with pytest.raises(Infeasible, match="the code lattice leaves the int64 range"):
        build_index_code(field, primes[:1], [[2**31]])
    _, _, gram2 = codec._generator_lattice(field, [[2**31 - 1]])
    assert gram2.max() == 2 * (2**31 - 1) ** 2


def test_a_built_code_past_the_energy_bound_is_infeasible(zi_primes):
    # the 5 points 0, +-1, +-i of Z[i] modulo a prime of norm 5, scaled by c: the
    # energy sum is bounded by 5 * 4c^2, past int64 at c = 2^30 (a too-big design)
    field, primes = zi_primes
    with pytest.raises(Infeasible, match="the constellation energy leaves the int64 range"):
        build_index_code(field, primes[:1], [[2**30]])
    assert build_index_code(field, primes[:1], [[2**29]]).size == 5


def test_loaded_coordinates_are_checked_at_the_exact_int64_bounds(ex1_code, monkeypatch, load_doc):
    # point 5 moved within its coset by 2^31 modulus columns; each bound, computed
    # here in Python ints, is refused as bad input one past INT64_MAX
    doc = ex1_code.to_dict()
    column = [row[0] for row in doc["modulus_hnf"]]
    doc["points"][5]["coords"] = [c + 2**31 * v for c, v in zip(doc["points"][5]["coords"], column)]
    X = [p["coords"] for p in doc["points"]]
    xmax = [max(abs(v) for v in col) for col in zip(*X)]
    inner = [sum(abs(g) * x for g, x in zip(row, xmax)) for row in ex1_code.gram2.tolist()]
    energy = max(*inner, len(X) * sum(x * g for x, g in zip(xmax, inner)))
    for limit, what in ((max(xmax) - 1, "a point G~ u"), (energy - 1, "the constellation energy")):
        monkeypatch.setattr(linalg, "INT64_MAX", limit)
        with pytest.raises(InvalidArgument, match=f"^{what} leaves the int64 range"):
            load_doc(doc)


def test_build_respects_enumeration_cap():
    field = quadratic_field(5)
    primes = [principal_ideal(field.element((-1, 2))),
              principal_ideal(field.element((3, 2)))]
    with pytest.raises(Infeasible):
        build_index_code(field, primes, enumeration_cap=54)


def test_build_refuses_oversized_enumeration(monkeypatch):
    from latticedex.numberfield import linalg

    field = quadratic_field(-1)
    monkeypatch.setattr(linalg, "_ENUM_LIMIT", 20)
    with pytest.raises(Infeasible):
        build_index_code(field, [prime_ideals_above(field, 5)[0], prime_ideals_above(field, 13)[0]])


def test_single_message_code():
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, 5)[0]])
    assert code.size == 5
    assert code.alphabet_sizes == (5,)
    assert code.check_side_info((1,)) == (1,)
    with pytest.raises(InvalidArgument):
        code.check_side_info((2,))
    for pt in code.points:
        assert decode_point(code, pt.coords) == pt.message


def test_rate_oracles(ex1_code):
    assert math.isclose(rate(ex1_code, (1,)), math.log2(5) / 2, rel_tol=1e-12)
    assert math.isclose(rate(ex1_code, (2,)), math.log2(11) / 2, rel_tol=1e-12)
    assert math.isclose(rate(ex1_code, (1, 2)), math.log2(55) / 2, rel_tol=1e-12)
    assert rate(ex1_code, ()) == 0.0


def test_encode_matches_embedding(ex1_code):
    pt = ex1_code.points[13]
    x = encode(ex1_code, pt.message)
    assert np.allclose(x, ex1_code.gamma * ex1_code.embedded[13], atol=0, rtol=1e-15)


def test_save_load_round_trip(tmp_path, ex1_code):
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    again = load_code(path)
    assert again.content_hash() == ex1_code.content_hash()
    assert np.array_equal(again.coords_matrix, ex1_code.coords_matrix)
    assert again.primes[0].residue_char == ex1_code.primes[0].residue_char


def test_load_rejects_tampered_files(tmp_path, ex1_code, load_doc):
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["gamma"] *= 1.01
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["points"][3]["label"], bad["points"][4]["label"] = (
        bad["points"][4]["label"], bad["points"][3]["label"])
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["idempotents"][0] = [7, 3]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["points"][0]["embedded"] = [9, 9]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["points"][7]["embedded"][1] *= 1 + 1e-6
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["points"][2]["embedded"] = [1.0]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    for embedded in (["0.0", "0.0"], [None, 0.0]):  # point 0 is the origin
        bad = json.loads(path.read_text())
        bad["points"][0]["embedded"] = embedded
        with pytest.raises(InvalidArgument):
            load_doc(bad)

    bad = json.loads(path.read_text())
    bad["mean_energy"] = [1, 1]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    bad = json.loads(path.read_text())
    bad["alphabet_sizes"] = [3, 3]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    for coord in (2**70, 1.5, True, "1", None):
        bad = json.loads(path.read_text())
        bad["points"][5]["coords"][0] = coord
        with pytest.raises(InvalidArgument):
            load_doc(bad)

    for coords in ([1], [1, 2, 3], 7):
        bad = json.loads(path.read_text())
        bad["points"][5]["coords"] = coords
        with pytest.raises(InvalidArgument):
            load_doc(bad)

    # same coset and inside int64, but the int64 energies would wrap
    bad = json.loads(path.read_text())
    column = [row[0] for row in bad["modulus_hnf"]]
    bad["points"][5]["coords"] = [c + 2**31 * v
                                  for c, v in zip(bad["points"][5]["coords"], column)]
    with pytest.raises(InvalidArgument):
        load_doc(bad)

    # a point deleted, two points in one coset, points not a list
    bad = json.loads(path.read_text())
    del bad["points"][5]
    with pytest.raises(InvalidArgument, match="cosets"):
        load_doc(bad)
    bad = json.loads(path.read_text())
    bad["points"][5] = bad["points"][6]
    with pytest.raises(InvalidArgument, match="same coset"):
        load_doc(bad)
    for points in ({}, [], [[0, 0]], None):
        bad = json.loads(path.read_text())
        bad["points"] = points
        with pytest.raises(InvalidArgument):
            load_doc(bad)

    # not an object, keys missing or mistyped
    with pytest.raises(InvalidArgument):
        load_doc([doc])
    for key in ("field", "primes", "gamma", "points"):
        bad = json.loads(path.read_text())
        del bad[key]
        with pytest.raises(InvalidArgument, match=key):
            load_doc(bad)
    for key in ("coords", "embedded", "label"):
        bad = json.loads(path.read_text())
        del bad["points"][0][key]
        with pytest.raises(InvalidArgument):
            load_doc(bad)
    for gamma in ("x", None, [1.0], float("nan")):
        bad = json.loads(path.read_text())
        bad["gamma"] = gamma
        with pytest.raises(InvalidArgument):
            load_doc(bad)
    for key, value in (("field", {}), ("field", [5]), ("field", {"family": "quadratic"}),
                       ("primes", []), ("primes", 5), ("primes", [{"p": 5}]),
                       ("primes", [{"hnf": 5}])):
        bad = json.loads(path.read_text())
        bad[key] = value
        with pytest.raises(InvalidArgument):
            load_doc(bad)

    # stored primes must be exactly the prime ideals above their p
    for key, value in (("hnf", [[5]]), ("hnf", [[5, 1], [0, 1]]), ("p", 7), ("p", "5"),
                       ("two_gen", 5)):
        bad = json.loads(path.read_text())
        bad["primes"][0][key] = value
        with pytest.raises(InvalidArgument):
            load_doc(bad)


def test_load_refuses_a_bool_in_a_label(tmp_path, ex1_code, load_doc):
    # True == 1 in Python, so a label compared by value alone takes it
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    bad = json.loads(path.read_text())
    label = bad["points"][1]["label"]
    k, i = next((k, i) for k, w in enumerate(label) for i, v in enumerate(w) if v == 1)
    label[k][i] = True
    with pytest.raises(InvalidArgument, match="stored points"):
        load_doc(bad)


def test_load_refuses_an_integer_in_an_embedding(tmp_path, ex1_code, load_doc):
    # 0 == 0.0, and numpy turns [0, 0.0] into a float array, so only its type tells
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    bad = json.loads(path.read_text())
    assert bad["points"][0]["embedded"] == [0.0, 0.0]  # point 0 is the origin
    bad["points"][0]["embedded"][0] = 0
    with pytest.raises(InvalidArgument, match="stored points"):
        load_doc(bad)


def test_content_hash_serialises_once(monkeypatch):
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, 5)[0]])
    calls = []
    emit = codec._canonical_json
    monkeypatch.setattr(codec, "_canonical_json",
                        lambda *args, **kw: calls.append(1) or emit(*args, **kw))
    first = code.content_hash()
    assert code.content_hash() == first
    assert len(calls) == 1


# (content hash, SHA-256 of the save_code bytes) of every preset: the format is
# the contract, so neither may move
_PINNED = {
    "ex1_code": ("18dc0d16808aaf2b5d168d82bbcb6fc59eb6e842f5de5ab6389da1e82c307538",
                 "5b877a828bf638076502d5fa31c668f8133abecab898bfaf9de01b32d79cfda1"),
    "ex2_code": ("fb710def5ffe09ebe72a6833384f44c50009b4b2a4f3008c54a428605fd170d8",
                 "56e2ebe0971cc9a94d3eafca6dc7956a3455406b8f2b9547228edd3824dfa5bf"),
    "ex3_code": ("2c69cbac53e523def401b66d4a3330a92b784b94ea1ff9ac6457f2d5800cafec",
                 "3235cdf2627700f563740f85e87313d7b5635ecd3a9cf294c51489903e9f70fa"),
    "cyclo_code": ("6c749ace6c4b635ce7a5cef983f1a300c8706b185e68ad745cc0d4a696248fe8",
                   "43ac9b205d8b49302212cb1f695a1cf6863a841c0496383216d413f3503db77b"),
    "maxreal_code": ("64a45e6e5b2b292466b11ebde6b6776908a16ca9a83a665444031e61155f3220",
                     "83293ba9872d9d63ce7bc4e2b1574c94da99cf6b4867b12475246466863c0162"),
}


@pytest.mark.parametrize("fixture", sorted(_PINNED))
def test_preset_code_files_are_pinned(fixture, request, tmp_path):
    code = request.getfixturevalue(fixture)
    content_hash, file_hash = _PINNED[fixture]
    assert code.content_hash() == content_hash
    path = tmp_path / "code.json"
    save_code(code, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_hash


@st.composite
def _small_quadratic_codes(draw):
    """Codes on 1-2 split primes of a small quadratic field, at most 200 points."""
    field = quadratic_field(draw(st.sampled_from((-11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 13))))
    split = [q for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
             for q in prime_ideals_above(field, p) if q.norm == p and q.ramification == 1]
    primes = draw(st.lists(st.sampled_from(split), min_size=1, max_size=2, unique=True)
                  .filter(lambda ps: math.prod(q.norm for q in ps) <= 200))
    return build_index_code(field, primes)


@settings(max_examples=40, deadline=None)
@given(code=_small_quadratic_codes())
def test_code_file_is_the_canonical_json(code, tmp_path_factory):
    doc = code.to_dict()
    path = tmp_path_factory.mktemp("code") / "code.json"
    save_code(code, path)
    assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert code.content_hash() == hashlib.sha256(compact.encode()).hexdigest()
    again = load_code(path)
    assert again.content_hash() == code.content_hash()
    assert again.to_dict() == doc


# where repr switches between positional and exponent notation (1e-4 and 1e16),
# the subnormal range, the extremes and both zeros
_FLOAT_EDGES = (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-05,
                1.0000000000000001e-05, 9.999999999999999e-05, 0.0001, 1.0000000000000002e-04,
                9999999999999998.0, 1e16, 1.0000000000000002e16, 1.0, 0.1, 1.7976931348623157e308)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.sampled_from(_FLOAT_EDGES + tuple(-v for v in _FLOAT_EDGES))
                       | st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=48),
       cols=st.integers(1, 4), block=st.integers(1, 5))
def test_float_text_is_repr_of_each_element(values, cols, block):
    values = values * 2  # every value repeats, in a later block too
    rows = np.array(values[:len(values) // cols * cols]).reshape(-1, cols)
    with mock.patch.object(codec, "_POINT_BLOCK", block):
        blocks = list(codec._float_rows(rows))
    assert all(len(b) <= block for b in blocks)
    assert [r for b in blocks for r in b.tolist()] == [[repr(v) for v in r] for r in rows.tolist()]


def test_negative_zero_keeps_its_sign_in_code_files(tmp_path):
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, p)[0] for p in (2, 5)])
    assert code.embedded[0].tolist() == [0.0, 0.0]  # the origin, in the same block
    code.embedded[3, 1] = -0.0
    doc = code.to_dict()
    path = tmp_path / "code.json"
    save_code(code, path)
    assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert "-0.0" in compact and code.content_hash() == hashlib.sha256(compact.encode()).hexdigest()


@pytest.mark.parametrize("fixture", sorted(_PINNED))
def test_a_saved_file_loads_without_decoding_its_points(fixture, request, tmp_path, monkeypatch):
    code = request.getfixturevalue(fixture)
    path = tmp_path / "code.json"
    save_code(code, path)
    decoded, loads = [], json.loads
    monkeypatch.setattr(json, "load", lambda *a, **kw: pytest.fail("json.load called"))
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
    again = load_code(path)
    assert again.content_hash() == code.content_hash()
    assert np.array_equal(again.coords_matrix, code.coords_matrix)
    assert decoded and not any('"embedded"' in text for text in decoded)


def _one_prime_code():
    field = quadratic_field(-1)
    return build_index_code(field, [prime_ideals_above(field, 13)[0]])


@pytest.mark.parametrize("fixture", ["ex1_code", "maxreal_code", None])
def test_saved_files_load_at_every_read_size(fixture, request, tmp_path, monkeypatch):
    # block boundaries inside '"coords": [', inside a number, inside the "\n ],\n" that ends
    # the points and inside the header; and one block, or one character short of it
    code = request.getfixturevalue(fixture) if fixture else _one_prime_code()
    path = tmp_path / "code.json"
    save_code(code, path)
    size = len(path.read_text())
    monkeypatch.setattr(json, "load", lambda *a, **kw: pytest.fail("json.load called"))
    for read in (1, 7, 64, 4096, size - 1, size):
        monkeypatch.setattr(codec, "_READ", read)
        assert load_code(path).content_hash() == code.content_hash(), read


def test_a_saved_file_is_read_in_blocks(maxreal_code, tmp_path, monkeypatch):
    # no read asks for more than _READ characters, so the whole text is never held: pass 1
    # parses the file, pass 2 compares it with the built code's own text
    path = tmp_path / "code.json"
    save_code(maxreal_code, path)
    size = len(path.read_text())
    assert size > codec._READ
    asked, got, real_open = [], [], open

    def spy_open(*args, **kw):
        fh = real_open(*args, **kw)
        read = fh.read

        def spy(n=-1):
            text = read(n)
            asked.append(n)
            got.append(len(text))
            return text

        fh.read = spy
        return fh

    monkeypatch.setattr(codec, "open", spy_open, raising=False)
    assert load_code(path).content_hash() == maxreal_code.content_hash()
    assert all(0 < n <= codec._READ for n in asked), sorted(set(asked))
    assert sum(got) == 2 * size


def test_loading_a_saved_file_costs_about_its_build(cyclo_code, tmp_path):
    # the load's traced peak stays within that of building the code from its coordinates,
    # plus 2 MiB: the file's 5.4 MB text is never held, nor a string per coordinate
    path = tmp_path / "code.json"
    save_code(cyclo_code, path)
    coords = cyclo_code.coords_matrix.copy()

    def peak(fn):
        fn()  # caches filled outside the traced call
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    build = peak(lambda: IndexCode(cyclo_code.field, cyclo_code.primes, coords))
    assert peak(lambda: load_code(path)) <= build + 2 * 2**20


def _compact_hash(text):
    """SHA-256 of the compact, sorted-key dump of the JSON in text."""
    compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode()).hexdigest()


def test_other_json_loads_by_its_content_hash(tmp_path, ex1_code):
    # any JSON whose compact, sorted-key dump is the code's canonical JSON loads, and the code's
    # hash is that of the file's content; a float moved by a last bit is another file
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    text = path.read_text()
    doc = json.loads(text)
    swapped = json.loads(text)
    swapped["points"] = [dict(reversed(pt.items())) for pt in doc["points"]]
    variants = {
        "compact": json.dumps(doc, sort_keys=True, separators=(",", ":")),
        "keys reordered": json.dumps(dict(reversed(doc.items())), indent=1),
        "point keys reordered": json.dumps(swapped, indent=1) + "\n",
        "indent 2": json.dumps(doc, indent=2, sort_keys=True) + "\n",
        "trailing spaces": text.replace("\n", " \n"),
        "no trailing newline": text[:-1],
        "two trailing newlines": text + "\n",
    }
    for name, variant in variants.items():
        assert variant != text, name
        path.write_text(variant)
        assert load_code(path).content_hash() == _compact_hash(variant), name
        assert _compact_hash(variant) == ex1_code.content_hash(), name
    moved = json.loads(text)
    moved["points"][7]["embedded"][1] *= 1 + 1e-12  # within the former 1e-9 tolerance
    ulp = json.loads(text)
    ulp["gamma"] = math.nextafter(ulp["gamma"], math.inf)
    for name, bad, key in (("embedding moved", moved, "points"), ("gamma up an ulp", ulp, "gamma")):
        assert bad != doc, name
        path.write_text(json.dumps(bad, indent=1, sort_keys=True) + "\n")
        with pytest.raises(InvalidArgument, match=f"^stored {key} disagrees"):
            load_code(path)


_EDIT_CHARS = '0123456789-+.,:[]{}" \neEnulltruefalseNaNx\xe9'


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edited_code_files_load_by_their_hash_or_are_refused(ex1_code, data, tmp_path_factory):
    # 1-3 one-character substitutions, deletions or insertions in a saved file, some aimed at
    # the header or at the primes that follow the points: the file loads, and its code hashes
    # as its content does, or it is refused as bad input (exit 1), never with another error
    path = tmp_path_factory.getbasetemp() / "edited_code.json"
    save_code(ex1_code, path)
    text = path.read_text()
    head, tail = text.index('"points"'), text.rindex('"primes"')
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, head) | st.integers(0, len(text)) | st.integers(tail, len(text)))
        op, char = data.draw(st.sampled_from("sdi")), data.draw(st.sampled_from(_EDIT_CHARS))
        text = text[:at] + (char if op != "d" else "") + text[at + (op != "i"):]
    path.write_text(text)
    try:
        code = load_code(path)
    except InvalidArgument:
        return
    assert code.content_hash() == _compact_hash(text)


def _assert_min_energy_points(code, scale=4):
    """The code's points are, per coset of I^m, the least (doubled energy,
    coordinates) in one short_vectors ball at scale times the code's largest
    doubled energy (any scale >= 1 covers every coset), found in plain Python
    with each coset keyed by the canonical residues of its slots mod I."""
    X, norms2 = short_vectors(code.gram2, scale * int(code.norms2.max()), include_zero=True)
    n = code.field.n
    res = reduce_mod_hnf_batch(X.reshape(-1, n), code.modulus.hnf).reshape(X.shape[0], -1)
    best = {}
    for key, norm, coords in zip(map(tuple, res.tolist()), norms2.tolist(),
                                 map(tuple, X.tolist())):
        best[key] = min(best.get(key, (norm, coords)), (norm, coords))
    want = sorted(coords for _, coords in best.values())
    assert sorted(map(tuple, code.coords_matrix.tolist())) == want


@pytest.mark.parametrize("fixture", sorted(_PINNED) + ["module_codes"])
def test_representatives_do_not_depend_on_the_radius(fixture, request):
    codes = request.getfixturevalue(fixture)
    for code in codes.values() if isinstance(codes, dict) else (codes,):
        _assert_min_energy_points(code)


@settings(max_examples=40, deadline=None)
@given(code=_small_quadratic_codes())
def test_representatives_match_one_large_ball(code):
    _assert_min_energy_points(code)


def test_high_dimensional_module_codes_build():
    # m = 2 codes in real dimension 10 and 12: a search started at m times the
    # Minkowski bound of I would hold more than _ENUM_LIMIT rows at one level
    for family, param, p in (("maximal_real", 11, 23), ("cyclotomic", 7, 29)):
        field = field_from_dict({"family": family, "param": param})
        code = build_index_code(field, [prime_ideals_above(field, p)[0]], [[1, 1], [0, 1]])
        assert code.size == p * p
        _assert_min_energy_points(code, scale=1)


def test_m1_identity_matches_plain_code(zi_primes):
    field, primes = zi_primes
    plain = build_index_code(field, primes)
    stacked = build_index_code(field, primes, [[1]])
    assert stacked.size == plain.size
    assert np.array_equal(stacked.coords_matrix, plain.coords_matrix)
    for k in range(2):
        assert np.array_equal(stacked.residue_indices[:, k], plain.residue_indices[:, k])
    assert abs(stacked.gamma - plain.gamma) < 1e-15
    assert stacked.content_hash() == plain.content_hash()


def test_m2_shape_and_labels(zi_m2):
    code = zi_m2
    assert code.m == 2
    assert code.dimension == 4
    # one message per prime, covering both slots: 5^m cosets
    assert code.size == 25
    assert code.coords_matrix.shape == (25, 4)
    assert code.embedded.shape == (25, 4)
    assert np.array_equal(np.sort(code.residue_indices[:, 0]), np.arange(25))
    for i in range(code.size):
        msg = code.message_from_index(i)
        assert len(msg.residues[0]) == 4  # one residue of O_K/p per slot
        assert code.message_index(msg) == i


def test_generator_validation(zi_primes):
    field, primes = zi_primes
    with pytest.raises(InvalidArgument):
        build_index_code(field, primes[:1], [[1, 1], [1, 1]])  # singular
    with pytest.raises(InvalidArgument):
        build_index_code(field, primes[:1], [[1, 0]])  # not square
    with pytest.raises(InvalidArgument):
        build_index_code(field, primes[:1],
                         [[quadratic_field(5).one, 0], [0, 1]])  # wrong field
    with pytest.raises(Infeasible):
        build_index_code(field, primes[:1], [[1, 0], [0, 1]],
                         enumeration_cap=24)
    with pytest.raises(InvalidArgument):
        build_index_code(field, [primes[0], primes[0]], [[1]])  # duplicate


def test_embedded_is_the_generated_point(module_codes):
    # embedded is Psi(G~ u), so its energy is the exact u^T gram2 u / 2
    for label, code in module_codes.items():
        energy2 = 2.0 * (code.embedded ** 2).sum(axis=1)
        assert np.allclose(energy2, code.norms2, rtol=1e-12, atol=0), label


def test_files_and_simulation_need_the_plain_code(module_codes):
    for label, code in module_codes.items():
        if label == "m=1 identity":
            assert code.is_plain
            continue
        with pytest.raises(Unsupported):
            code.to_dict()
        with pytest.raises(Unsupported):
            SimConfig(code=code, channel="awgn", snr_db=(10.0,))


def test_points_csv_needs_the_plain_code(zi_m2, tmp_path):
    # like save_code, the points CSV holds only m = 1 codes; nothing is written for any other
    path = tmp_path / "points.csv"
    with pytest.raises(Unsupported):
        codec.save_points_csv(zi_m2, path)
    assert not path.exists()


def test_a_refused_save_leaves_the_file_at_the_path(ex1_code, zi_m2, tmp_path):
    # save_code refuses a code that is not plain before it opens, and so truncates, its path
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    before = path.read_bytes()
    with pytest.raises(Unsupported):
        save_code(zi_m2, path)
    assert path.read_bytes() == before


def test_public_names_resolve():
    import latticedex
    from latticedex import analysis, numberfield, presets, sim

    for package in (latticedex, numberfield):
        assert [name for name in package.__all__ if not hasattr(package, name)] == []
    # what bench/ calls, and what it wraps in place (bench/tracer.py reads the
    # owner's __dict__), must survive a trim of the package
    called = {analysis: ("build_oklattice_code", "oklattice_side_info_gain"),
              sim: ("resolve_workers", "CHUNK"),
              presets: ("preset_field_and_primes", "preset_snr_grid")}
    wrapped = {codec: ("short_vectors",), analysis: ("short_vectors", "shortest_nonzero"),
               codec.IndexCode: ("content_hash",), sim: ("_run_chunk", "ProcessPoolExecutor"),
               presets: ("quadratic_field", "cyclotomic_field", "maximal_real_field",
                         "prime_ideals_above", "principal_ideal", "preset_summary")}
    for owner, names in called.items():
        assert [name for name in names if not hasattr(owner, name)] == [], owner
    for owner, names in wrapped.items():
        assert [name for name in names if name not in vars(owner)] == [], owner
    assert analysis.build_oklattice_code is build_index_code
    assert analysis.oklattice_side_info_gain is analysis.side_info_gain
    for name in ("build_oklattice_code", "oklattice_side_info_gain"):
        assert not hasattr(latticedex, name) and name not in latticedex.__all__


def test_m2_subcode_and_fixed(zi_m2, zi_m2k2):
    # K=1: revealing the only message pins the point completely
    idx = zi_m2.subcode_indices((1,))
    assert idx.shape[0] == 1
    assert zi_m2.residue_indices[idx[0], 0] == 0
    idx3 = zi_m2.subcode_indices((1,), fixed=zi_m2.message_from_index(3))
    assert idx3.shape[0] == 1
    assert zi_m2.residue_indices[idx3[0], 0] == 3
    with pytest.raises(InvalidArgument):
        zi_m2.subcode_indices((1,), fixed=[3])  # fixed is a Message
    # K=2: one reveal leaves the other message free
    code = zi_m2k2
    assert code.size == 4225
    idx = code.subcode_indices((1,))
    assert idx.shape[0] == 169
    assert np.all(code.residue_indices[idx, 0] == 0)
    idx3 = code.subcode_indices((1,), fixed=code.message_from_index(3 * 169))
    assert idx3.shape[0] == 169
    assert np.all(code.residue_indices[idx3, 0] == 3)
    assert code.subcode_indices((1, 2)).shape[0] == 1
    with pytest.raises(InvalidArgument):
        zi_m2.check_side_info((2,))
    with pytest.raises(InvalidArgument):
        zi_m2.check_side_info((0,))


def test_sublattice_gram_determinant_scaling(zi_m2):
    code = zi_m2
    _, ld0 = np.linalg.slogdet(code.gram2.astype(float))
    _, ld1 = np.linalg.slogdet(code.side_sublattice_gram((1,)).astype(float))
    # sublattice index is N(p)^m = 25, so the Gram determinant grows by 25^2
    want = ld0 + 2.0 * code.m * np.log(5.0)
    assert abs(ld1 - want) < 1e-8
