import random

import numpy as np
import pytest
import sympy

from latticedex.codec import build_index_code
from latticedex.errors import InvalidArgument, Unsupported
from latticedex.numberfield import (
    cyclotomic_field,
    ideal_from_generators,
    ideal_to_dict,
    maximal_real_field,
    prime_ideals_above,
    principal_ideal,
    quadratic_field,
    whole_ring,
)
from latticedex.numberfield.linalg import reduce_mod_hnf_batch
from test_numberfield import BRUTE_ORACLES

FIELDS = [
    quadratic_field(5),
    quadratic_field(-5),
    quadratic_field(-7),
    cyclotomic_field(5),
    maximal_real_field(7),
]


def test_whole_ring_properties():
    for field in FIELDS:
        O = whole_ring(field)
        assert O.norm == 1
        assert O.contains(field.one)
        assert O.contains(field.theta)
        assert O.reduce(field.element((3,) * field.n)).is_zero


def test_prime_ideals_sum_ef_equals_degree():
    for field in FIELDS + [cyclotomic_field(12), cyclotomic_field(15), cyclotomic_field(20)]:
        for p in sympy.primerange(2, 200):
            p = int(p)
            if field.family in ("cyclotomic", "maximal_real") and field.param % p == 0:
                continue
            ideals = prime_ideals_above(field, p)
            assert sum(q.ramification * q.inertia for q in ideals) == field.n
            _, e, f, h = BRUTE_ORACLES[field.family](field, p)
            assert len(ideals) == h, (field, p)
            for q in ideals:
                assert (q.ramification, q.inertia) == (e, f), (field, p)
                assert q.norm == p**q.inertia
                assert q.residue_char == p
                assert q.contains(field.from_int(p))


def test_prime_ideals_match_classification_type():
    field = quadratic_field(-5)
    ram = prime_ideals_above(field, 5)
    assert len(ram) == 1 and ram[0].ramification == 2
    split = prime_ideals_above(field, 7)  # -20 is a QR mod 7
    assert len(split) == 2 and all(q.norm == 7 for q in split)
    inert = prime_ideals_above(field, 11)
    assert len(inert) == 1 and inert[0].norm == 121


def test_prime_ideals_above_rejects_composite():
    with pytest.raises(InvalidArgument):
        prime_ideals_above(quadratic_field(5), 15)


def test_conductor_primes_not_offered():
    with pytest.raises(Unsupported):
        prime_ideals_above(cyclotomic_field(5), 5)
    with pytest.raises(Unsupported):
        prime_ideals_above(maximal_real_field(7), 7)


def test_distinct_primes_above_same_p_are_coprime():
    field = quadratic_field(-5)
    p1, p2 = prime_ideals_above(field, 7)
    assert p1 != p2
    assert (p1 + p2).norm == 1
    assert (p1 + p1).norm != 1


def test_ideal_norm_multiplicative():
    rng = random.Random(53)
    for field in FIELDS:
        pool = []
        for p in (2, 3, 5, 7, 11, 13):
            if field.family in ("cyclotomic", "maximal_real") and field.param % p == 0:
                continue
            pool.extend(prime_ideals_above(field, p))
        for _ in range(8):
            a, b = rng.choice(pool), rng.choice(pool)
            assert (a * b).norm == a.norm * b.norm


def test_ideal_product_contains_products_of_members():
    field = quadratic_field(-5)
    p1, p2 = prime_ideals_above(field, 7)
    prod = p1 * p2
    for x in p1.basis_columns():
        for y in p2.basis_columns():
            assert prod.contains(field.element(x) * field.element(y))
    assert prod.norm == 49


def test_principal_ideal_oracles():
    field = quadratic_field(5)
    g = field.element((-1, 2))  # 2*theta - 1 = sqrt 5
    ideal = principal_ideal(g)
    assert ideal.norm == 5
    assert ideal.contains(g)
    assert ideal.reduce(g).is_zero
    assert ideal.contains(g * field.element((7, -3)))
    assert not ideal.contains(field.one)
    with pytest.raises(InvalidArgument):
        principal_ideal(field.zero)


def test_ideal_from_generators_validation():
    field = quadratic_field(5)
    with pytest.raises(InvalidArgument):
        ideal_from_generators(field, [])
    with pytest.raises(InvalidArgument):
        ideal_from_generators(field, [field.zero])
    with pytest.raises(InvalidArgument):
        ideal_from_generators(field, [quadratic_field(2).one])
    # rational integer generators are accepted
    assert ideal_from_generators(field, [6, 4]).norm == 4  # gcd 2, norm 2^2


def test_residues_enumeration_and_index():
    for field in FIELDS[:3]:
        for q in prime_ideals_above(field, 11 if field.param != -5 else 7):
            seen = []
            for r in q.residues():
                idx = int(q.residue_indices([r])[0])
                seen.append(idx)
                assert q.reduce(field.element(r)).coords == r
            assert sorted(seen) == list(range(q.norm))


def test_residues_come_in_index_order():
    # an inert prime and a composite ideal have several nontrivial HNF
    # diagonal entries, so a wrong digit order shows
    zi = quadratic_field(-1)
    (inert,) = prime_ideals_above(zi, 3)
    composite = prime_ideals_above(zi, 5)[0] * inert
    q19 = prime_ideals_above(cyclotomic_field(5), 19)[0]  # residue degree 2
    for ideal in (inert, composite, q19, ideal_from_generators(cyclotomic_field(5), [6])):
        assert sum(h > 1 for h in np.diag(ideal.hnf)) > 1
        rows = list(ideal.residues())
        assert ideal.residue_indices(rows).tolist() == list(range(ideal.norm))


def test_reduce_is_canonical_and_lattice_compatible():
    rng = random.Random(59)
    field = quadratic_field(-7)
    (q,) = prime_ideals_above(field, 7)
    for _ in range(50):
        el = field.element((rng.randint(-40, 40), rng.randint(-40, 40)))
        r = q.reduce(el)
        assert q.contains(el - r)
        for i, v in enumerate(r.coords):
            assert 0 <= v < q.hnf[i][i]


def test_reduce_batch_matches_reduce():
    field = cyclotomic_field(5)
    q = prime_ideals_above(field, 11)[0]
    rng = np.random.default_rng(5)
    V = rng.integers(-30, 30, size=(100, field.n))
    R = reduce_mod_hnf_batch(V, q.hnf)
    for v, r in zip(V, R):
        assert tuple(int(x) for x in r) == q.reduce(field.element(v)).coords


def test_ideal_equality_independent_of_generators():
    field = quadratic_field(5)
    g = field.element((-1, 2))
    u = field.element((0, 1))  # golden ratio, a unit
    assert principal_ideal(g) == principal_ideal(g * u)
    assert principal_ideal(g) != principal_ideal(g * g)


def test_ideal_dict_round_trip(load_doc):
    # a code file stores each prime as ideal_to_dict writes it and reads it back
    # from its HNF alone: the code's prime check restores the tags
    field = quadratic_field(-5)
    for q in prime_ideals_above(field, 7):
        doc = build_index_code(field, [q]).to_dict()
        assert doc["primes"] == [ideal_to_dict(q)]
        again = load_doc(doc).primes[0]
        assert again == q
        assert again.residue_char == q.residue_char
        assert again.ramification == q.ramification
        assert again.inertia == q.inertia
        assert again.two_gen[0] == q.two_gen[0]
        assert again.two_gen[1] == q.two_gen[1]
    plain = principal_ideal(field.element((2, 1)))
    assert ideal_to_dict(plain) == {"hnf": [list(r) for r in plain.hnf]}


def test_label_forms():
    field = quadratic_field(-5)
    q = prime_ideals_above(field, 7)[0]
    assert q.label().startswith("(7, ")
    assert "norm-9" in principal_ideal(field.element((2, 1))).label()


def test_cross_field_operations_rejected():
    a = prime_ideals_above(quadratic_field(5), 11)[0]
    b = prime_ideals_above(quadratic_field(2), 7)[0]
    with pytest.raises(InvalidArgument):
        a * b
    with pytest.raises(InvalidArgument):
        a + b
    with pytest.raises(InvalidArgument):
        a.contains(quadratic_field(2).one)
