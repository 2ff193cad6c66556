import json
import math
import random

import numpy as np
import pytest

from latticedex import (
    IndexCode,
    Infeasible,
    InvalidArgument,
    Message,
    build_index_code,
    decode_point,
    encode,
    load_code,
    prime_ideals_above,
    principal_ideal,
    quadratic_field,
    rate,
    save_code,
    subcode_points,
    whole_ring,
)
from latticedex.codec import code_from_dict


def test_example1_shape(ex1_code):
    assert ex1_code.size == 55
    assert ex1_code.alphabet_sizes == (5, 11)
    assert ex1_code.num_messages == 2
    assert ex1_code.modulus.norm == 55
    assert ex1_code.coords_matrix.shape == (55, 2)
    assert ex1_code.embedded.shape == (55, 2)


def test_idempotents_are_crt_units(ex1_code, ex2_code, ex3_code):
    for code in (ex1_code, ex2_code, ex3_code):
        field = code.field
        for k, e in enumerate(code.idempotents):
            for j, p in enumerate(code.primes):
                want = field.one if j == k else field.zero
                assert p.reduce(e) == p.reduce(want)


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
        shifts = [field.element(c) for c in code.modulus.basis_columns()]
        for _ in range(20):
            pt = code.points[rng.randrange(code.size)]
            x = field.element(pt.coords)
            for sh in shifts:
                assert x.normsq2() <= (x + sh).normsq2()
                assert x.normsq2() <= (x - sh).normsq2()


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
    want = ex1_code.primes[0].residue_index(fixed.residues[0])
    assert np.all(ex1_code.residue_indices[idx, 0] == want)


def test_message_validation(ex1_code):
    with pytest.raises(InvalidArgument):
        ex1_code.check_message(Message(((0, 0),)))  # wrong K
    with pytest.raises(InvalidArgument):
        ex1_code.check_message(Message(((0,), (0, 0))))  # wrong length
    bad = Message(((9, 9), (0, 0)))  # not a canonical residue
    with pytest.raises(InvalidArgument):
        ex1_code.check_message(bad)
    with pytest.raises(InvalidArgument):
        ex1_code.check_message(Message(((1.5, 0), (0, 0))))  # not an integer
    with pytest.raises(InvalidArgument):
        ex1_code.check_side_info((3,))
    with pytest.raises(InvalidArgument):
        ex1_code.check_side_info((0,))


def test_build_rejects_duplicates_and_nonprimes():
    field = quadratic_field(5)
    g = principal_ideal(field.element((-1, 2)))
    with pytest.raises(InvalidArgument):
        build_index_code(field, [g, g])
    f7 = quadratic_field(-7)
    with pytest.raises(InvalidArgument):
        # norm 4 element: (1 + theta) * conj = 4, not a prime ideal
        build_index_code(f7, [principal_ideal(f7.element((1, 1)))])
    with pytest.raises(InvalidArgument):
        build_index_code(field, [])


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


def test_load_rejects_tampered_files(tmp_path, ex1_code):
    path = tmp_path / "code.json"
    save_code(ex1_code, path)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["gamma"] *= 1.01
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["points"][3]["label"], bad["points"][4]["label"] = (
        bad["points"][4]["label"], bad["points"][3]["label"])
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["idempotents"][0] = [7, 3]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["points"][0]["embedded"] = [9, 9]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["points"][7]["embedded"][1] *= 1 + 1e-6
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["points"][2]["embedded"] = [1.0]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["mean_energy"] = [1, 1]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    bad = json.loads(path.read_text())
    bad["alphabet_sizes"] = [3, 3]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)

    for coord in (2**70, 1.5, True, "1", None):
        bad = json.loads(path.read_text())
        bad["points"][5]["coords"][0] = coord
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)

    for coords in ([1], [1, 2, 3], 7):
        bad = json.loads(path.read_text())
        bad["points"][5]["coords"] = coords
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)

    # same coset and inside int64, but the int64 energies would wrap
    bad = json.loads(path.read_text())
    column = [row[0] for row in bad["modulus_hnf"]]
    bad["points"][5]["coords"] = [c + 2**31 * v
                                  for c, v in zip(bad["points"][5]["coords"], column)]
    with pytest.raises(InvalidArgument):
        code_from_dict(bad)


def test_content_hash_serialises_once(monkeypatch):
    field = quadratic_field(-1)
    code = build_index_code(field, [prime_ideals_above(field, 5)[0]])
    calls = []
    to_dict = IndexCode.to_dict
    monkeypatch.setattr(IndexCode, "to_dict", lambda self: calls.append(1) or to_dict(self))
    first = code.content_hash()
    assert code.content_hash() == first
    assert len(calls) == 1


def test_public_names_resolve():
    import latticedex

    assert [name for name in latticedex.__all__ if not hasattr(latticedex, name)] == []
