import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedex import (
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
from latticedex import codec
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
    # no truncation of 1.5 to 1, no bool taken for 1, no TypeError from None
    for s in ((1.5,), (2.9,), (True,), (None,), ("a",), (1, 2.0)):
        with pytest.raises(InvalidArgument, match="integer"):
            ex1_code.check_side_info(s)
    assert ex1_code.check_side_info((np.int64(2), 1, 2)) == (1, 2)


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

    for embedded in (["0.0", "0.0"], [None, 0.0]):  # point 0 is the origin
        bad = json.loads(path.read_text())
        bad["points"][0]["embedded"] = embedded
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

    # a point deleted, two points in one coset, points not a list
    bad = json.loads(path.read_text())
    del bad["points"][5]
    with pytest.raises(InvalidArgument, match="cosets"):
        code_from_dict(bad)
    bad = json.loads(path.read_text())
    bad["points"][5] = bad["points"][6]
    with pytest.raises(InvalidArgument, match="same coset"):
        code_from_dict(bad)
    for points in ({}, [], [[0, 0]], None):
        bad = json.loads(path.read_text())
        bad["points"] = points
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)

    # not an object, keys missing or mistyped
    with pytest.raises(InvalidArgument):
        code_from_dict([doc])
    for key in ("field", "primes", "gamma", "points"):
        bad = json.loads(path.read_text())
        del bad[key]
        with pytest.raises(InvalidArgument, match=key):
            code_from_dict(bad)
    for key in ("coords", "embedded", "label"):
        bad = json.loads(path.read_text())
        del bad["points"][0][key]
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)
    for gamma in ("x", None, [1.0], float("nan")):
        bad = json.loads(path.read_text())
        bad["gamma"] = gamma
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)
    for key, value in (("field", {}), ("field", [5]), ("field", {"family": "quadratic"}),
                       ("primes", []), ("primes", 5), ("primes", [{"p": 5}]),
                       ("primes", [{"hnf": 5}])):
        bad = json.loads(path.read_text())
        bad[key] = value
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)

    # stored primes must be exactly the prime ideals above their p
    for key, value in (("hnf", [[5]]), ("hnf", [[5, 1], [0, 1]]), ("p", 7), ("p", "5"),
                       ("two_gen", 5)):
        bad = json.loads(path.read_text())
        bad["primes"][0][key] = value
        with pytest.raises(InvalidArgument):
            code_from_dict(bad)


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


def test_public_names_resolve():
    import latticedex

    assert [name for name in latticedex.__all__ if not hasattr(latticedex, name)] == []
