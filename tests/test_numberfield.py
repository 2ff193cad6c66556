import hashlib
import math
import random

import numpy as np
import pytest
import sympy

from latticedex.errors import Infeasible, InvalidArgument
from latticedex.numberfield import field as field_mod
from latticedex.numberfield import (
    AlgebraicInt,
    NumberField,
    classify_prime,
    cyclotomic_field,
    cyclotomic_poly,
    field_from_dict,
    maximal_real_field,
    quadratic_field,
)

TEST_FIELDS = [
    quadratic_field(5),
    quadratic_field(2),
    quadratic_field(-1),
    quadratic_field(-5),
    quadratic_field(-7),
    cyclotomic_field(5),
    cyclotomic_field(8),
    maximal_real_field(7),
    maximal_real_field(11),
]
# plus cyclotomic fields where a ramified p has f > 1 or h > 1
ORACLE_FIELDS = TEST_FIELDS + [cyclotomic_field(12), cyclotomic_field(15), cyclotomic_field(20)]


def _rand_el(rng, field, span=5):
    return field.element(tuple(rng.randint(-span, span) for _ in range(field.n)))


# ---- construction and validation ----

# a parameter that is not an integer used to be truncated: 5.5 gave Q(sqrt(5))
NOT_INTEGERS = (True, False, None, "8")


def test_quadratic_field_rejects_bad_d():
    for d in (0, 1, 4, 12, -4, 18):
        with pytest.raises(InvalidArgument):
            quadratic_field(d)
    for d in (5.5, 5.0, -1.0) + NOT_INTEGERS:
        with pytest.raises(InvalidArgument, match="must be an integer"):
            quadratic_field(d)
    assert quadratic_field(np.int64(-5)) == quadratic_field(-5)


def test_cyclotomic_field_rejects_bad_m():
    for m in (2, 6, 10, 1):
        with pytest.raises(InvalidArgument):
            cyclotomic_field(m)
    for m in (5.9, 8.0) + NOT_INTEGERS:
        with pytest.raises(InvalidArgument, match="must be an integer"):
            cyclotomic_field(m)
    assert type(cyclotomic_field(np.int32(8)).param) is int


def test_maximal_real_field_rejects_bad_m():
    for m in (4, 6, 9, 15):
        with pytest.raises(InvalidArgument):
            maximal_real_field(m)
    for m in (7.2, 7.0) + NOT_INTEGERS:
        with pytest.raises(InvalidArgument, match="must be an integer"):
            maximal_real_field(m)
    assert maximal_real_field(np.uint8(7)) == maximal_real_field(7)


def test_unknown_family_rejected():
    with pytest.raises(InvalidArgument):
        NumberField("function_field", 3)


def test_min_poly_oracles():
    assert quadratic_field(5).min_poly == (-1, -1, 1)      # x^2 - x - 1
    assert quadratic_field(-1).min_poly == (1, 0, 1)       # x^2 + 1
    assert quadratic_field(-5).min_poly == (5, 0, 1)
    assert quadratic_field(-7).min_poly == (2, -1, 1)      # x^2 - x + 2
    assert cyclotomic_field(5).min_poly == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)         # x^4 - x^2 + 1
    assert maximal_real_field(7).min_poly == (-1, -2, 1, 1)  # y^3 + y^2 - 2y - 1


def test_discriminant_oracles():
    assert quadratic_field(5).discriminant == 5
    assert quadratic_field(2).discriminant == 8
    assert quadratic_field(-1).discriminant == -4
    assert quadratic_field(-5).discriminant == -20
    assert quadratic_field(-7).discriminant == -7
    assert cyclotomic_field(5).discriminant == 125
    assert cyclotomic_field(8).discriminant == 256
    assert cyclotomic_field(3).discriminant == -3
    assert maximal_real_field(7).discriminant == 49
    assert maximal_real_field(11).discriminant == 11**4


def test_discriminant_matches_minpoly_discriminant():
    # all supported families are monogenic, so the field discriminant equals
    # the discriminant of the defining polynomial
    x = sympy.Symbol("x")
    for field in ORACLE_FIELDS:
        poly = sympy.Poly(list(reversed(field.min_poly)), x)
        assert field.discriminant == int(sympy.discriminant(poly))


def test_signature_oracles():
    assert quadratic_field(5).signature == (2, 0)
    assert quadratic_field(-5).signature == (0, 1)
    assert cyclotomic_field(5).signature == (0, 2)
    assert maximal_real_field(11).signature == (5, 0)
    assert quadratic_field(5).is_totally_real
    assert not quadratic_field(5).is_totally_complex
    assert cyclotomic_field(5).is_totally_complex


@pytest.mark.parametrize("family, param", [
    *(("quadratic", d) for d in (-163, -15, -7, -5, -2, -1, 2, 3, 5, 13, 101)),
    *(("cyclotomic", m) for m in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20)),
    *(("maximal_real", p) for p in (5, 7, 11, 13, 17)),
])
def test_every_family_is_totally_real_or_totally_complex(family, param):
    # analysis.gain_bounds has no branch for a mixed signature: the roots of
    # the minimal polynomial are all real or all non-real
    make = {"quadratic": quadratic_field, "cyclotomic": cyclotomic_field,
            "maximal_real": maximal_real_field}[family]
    field = make(param)
    real = int((np.abs(np.roots(field.min_poly[::-1]).imag) < 1e-9).sum())
    assert real in (0, field.n)
    assert field.signature == ((field.n, 0) if real else (0, field.n // 2))
    assert field.is_totally_real != field.is_totally_complex


def _supported_small_fields():
    """Every supported quadratic d in [-30, 30], cyclotomic m <= 40 and maximal-real m <= 31."""
    for d in range(-30, 31):
        if d not in (0, 1) and all(e == 1 for e in sympy.factorint(abs(d)).values()):
            yield quadratic_field(d)
    for m in range(3, 41):
        if m % 4 != 2 and sympy.totient(m) <= field_mod.MAX_DEGREE:
            yield cyclotomic_field(m)
    for m in sympy.primerange(5, 32):
        yield maximal_real_field(int(m))


# SHA-256 of the tables hashed below for the 74 fields of _supported_small_fields(), measured at
# 497c2fa: any bit that moves in any of them fails this pin
FIELD_TABLES_SHA256 = "300fb16dd9cc6742627c7094f757dda204bf62aa7b9897799f480d3625eac2b4"


def test_field_tables_are_pinned():
    fields = list(_supported_small_fields())
    assert len(fields) == 74
    h = hashlib.sha256()
    for f in fields:
        h.update(repr((f.min_poly, f.theta_name, f.name, f.describe(), f.signature, f.gram2,
                       f.discriminant, f.places.tolist(), f.embeddings)).encode())
        h.update(f.embed_matrix.tobytes())
    assert h.hexdigest() == FIELD_TABLES_SHA256


def test_imaginary_quadratic_pid_flag():
    for d in (-1, -2, -3, -7, -11, -19, -43, -67, -163):
        assert quadratic_field(d).is_imaginary_quadratic_pid
    for field in (quadratic_field(-5), quadratic_field(-6), quadratic_field(5),
                  cyclotomic_field(5)):
        assert not field.is_imaginary_quadratic_pid


def test_oversized_fields_refused_before_any_table():
    # degree 33..50 and 210..1008: refused at once, not built (or overflowed)
    for family, m in (("maximal_real", 67), ("maximal_real", 101), ("cyclotomic", 211),
                      ("cyclotomic", 1009), ("cyclotomic", 10**40)):
        with pytest.raises(Infeasible, match="degree"):
            NumberField(family, m)
    assert maximal_real_field(61).n == 30 and cyclotomic_field(64).n == 32


def test_trace_form_outside_int64_refused(monkeypatch):
    monkeypatch.setattr(field_mod, "MAX_DEGREE", 60)
    with pytest.raises(Infeasible, match="int64"):
        maximal_real_field(67)


def test_huge_quadratic_d_refused_before_factoring(monkeypatch):
    # a 130-bit semiprime used to be factored (8 s) before the int64 guard refused it
    def boom(n):
        raise AssertionError(f"squarefree test called on {n}")

    monkeypatch.setattr(field_mod, "is_squarefree", boom)
    semiprime = int(sympy.nextprime(2**64)) * int(sympy.nextprime(2**65))
    for d in (semiprime, -semiprime, 2**63, -(2**63) - 3):
        with pytest.raises(Infeasible, match=f"^d = {d} leaves the int64 range"):
            quadratic_field(d)


def test_field_from_dict_checks_shape():
    for d in (5, [5], {}, {"family": "quadratic"}, {"family": 5, "param": 5},
              {"family": "quadratic", "param": "5"}, {"family": "quadratic", "param": True},
              {"family": "quadratic", "param": 5.0}):
        with pytest.raises(InvalidArgument, match="field must be"):
            field_from_dict(d)


def test_field_round_trip_and_identity():
    for field in TEST_FIELDS:
        again = field_from_dict(field.to_dict())
        assert again == field
        assert hash(again) == hash(field)
    assert quadratic_field(5) != quadratic_field(3)


# ---- element arithmetic ----

def test_theta_satisfies_min_poly():
    for field in TEST_FIELDS:
        t = field.theta
        acc = field.zero
        for j, a in enumerate(field.min_poly):
            acc = acc + a * t**j
        assert acc.is_zero


def test_ring_axioms_randomized():
    rng = random.Random(23)
    for field in TEST_FIELDS:
        for _ in range(10):
            a, b, c = (_rand_el(rng, field) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == field.zero
            assert a * field.one == a


def test_norm_and_trace_oracles():
    F = quadratic_field(5)  # theta = (1+sqrt 5)/2
    el = F.element((3, 2))  # 3 + 2*theta = 4 + sqrt 5
    assert el.norm() == 11
    assert F.trace_coords(el.coords) == 8
    G = quadratic_field(-5)
    assert G.element((2, 1)).norm() == 9  # (2+sqrt-5)(2-sqrt-5)
    assert G.trace_coords((2, 1)) == 4


def test_norm_multiplicative_trace_additive():
    rng = random.Random(31)
    for field in TEST_FIELDS:
        for _ in range(10):
            a, b = _rand_el(rng, field), _rand_el(rng, field)
            assert (a * b).norm() == a.norm() * b.norm()
            assert (field.trace_coords((a + b).coords)
                    == field.trace_coords(a.coords) + field.trace_coords(b.coords))


def test_norm_matches_product_of_embeddings():
    rng = random.Random(37)
    for field in TEST_FIELDS:
        for _ in range(5):
            a = _rand_el(rng, field, span=3)
            prod = 1.0
            for kind, z in field.embeddings:
                val = sum(c * z**k for k, c in enumerate(a.coords))
                prod *= abs(val) ** (2 if kind == "c" else 1)
            n = abs(a.norm())
            assert math.isclose(prod, n, rel_tol=1e-8, abs_tol=1e-8)


def test_normsq2_matches_embedding_norm():
    # x^T gram2 x is 2 * ||Psi(x)||^2, exactly in Python ints
    rng = random.Random(41)
    for field in TEST_FIELDS:
        for _ in range(10):
            a = _rand_el(rng, field)
            emb = field.embed_matrix @ np.array(a.coords, dtype=np.float64)
            q = sum(ci * g * cj for ci, row in zip(a.coords, field.gram2)
                    for g, cj in zip(row, a.coords))
            assert abs(q - 2.0 * float(emb @ emb)) < 1e-7 * max(1, q)


def test_trace_of_powers_matches_embeddings():
    # Tr(theta^j), j <= 2n - 2, is read off the multiplication matrix of theta^j
    for field in TEST_FIELDS:
        for j in range(2 * field.n - 1):
            total = sum((2 * z**j).real if kind == "c" else z**j for kind, z in field.embeddings)
            assert field.trace_coords(field._pow[j]) == round(total), (field, j)


def test_places_and_place_sizes():
    assert cyclotomic_field(5).places.tolist() == [0, 0, 1, 1]
    assert maximal_real_field(7).places.tolist() == [0, 1, 2]
    assert quadratic_field(5).places.tolist() == [0, 1]
    assert quadratic_field(-1).places.tolist() == [0, 0]
    rng = random.Random(47)
    for field in TEST_FIELDS:
        r1, r2 = field.signature
        assert np.bincount(field.places).tolist() == [1] * r1 + [2] * r2
        els = [_rand_el(rng, field) for _ in range(6)]
        emb = np.array([a.coords for a in els], dtype=np.float64) @ field.embed_matrix.T
        sizes = field.place_sizes(emb)
        assert sizes.shape == (6, r1 + r2)
        # any leading shape; a real place is exactly |x|
        assert np.array_equal(field.place_sizes(emb.reshape(2, 3, field.n)),
                              sizes.reshape(2, 3, -1))
        assert np.array_equal(sizes[:, :r1], np.abs(emb[:, :r1]))
        for a, row in zip(els, sizes):
            want = [abs(sum(c * z**k for k, c in enumerate(a.coords)))
                    for _, z in field.embeddings]
            assert np.allclose(row, want, rtol=1e-9, atol=1e-9), (field, a)
            norm = float(np.prod(row ** np.bincount(field.places)))
            assert math.isclose(norm, abs(a.norm()), rel_tol=1e-8, abs_tol=1e-8), (field, a)


def test_gram_matrix_is_symmetric_positive_definite():
    for field in TEST_FIELDS:
        G = field.gram2_np
        assert np.array_equal(G, G.T)
        eig = np.linalg.eigvalsh(G.astype(float))
        assert eig.min() > 0


def test_conjugation_involution_and_norm():
    rng = random.Random(43)
    for field in TEST_FIELDS:
        for _ in range(8):
            a = _rand_el(rng, field)
            assert a.conj().conj() == a
            if field.family == "quadratic" and field.param < 0:
                prod = a * a.conj()
                assert prod.coords[0] == a.norm()
                assert all(v == 0 for v in prod.coords[1:])


def test_embed_dimension_and_conventions():
    F = quadratic_field(5)
    e = F.embed_matrix @ np.array([0.0, 1.0])  # theta = (1+sqrt5)/2 -> golden ratio first
    assert e.shape == (2,)
    assert math.isclose(e[0], (1 + math.sqrt(5)) / 2, rel_tol=1e-12)
    assert math.isclose(e[1], (1 - math.sqrt(5)) / 2, rel_tol=1e-12)
    G = quadratic_field(-1)
    e = G.embed_matrix @ np.array([0.0, 1.0])  # i -> (Re, Im) = (0, 1)
    assert math.isclose(e[0], 0.0, abs_tol=1e-12)
    assert math.isclose(e[1], 1.0, rel_tol=1e-12)


def test_element_validation():
    F = quadratic_field(5)
    with pytest.raises(InvalidArgument):
        F.element((1,))
    with pytest.raises(InvalidArgument):
        F.element((1, 2, 3))
    a = F.element((1, 0))
    b = quadratic_field(2).element((1, 0))
    with pytest.raises(InvalidArgument):
        a + b
    with pytest.raises(InvalidArgument):
        a ** -1


def test_int_mixing():
    F = quadratic_field(-7)
    a = F.element((2, 3))
    assert a + 1 == F.element((3, 3))
    assert 2 * a == F.element((4, 6))
    assert (1 - a) == F.element((-1, -3))


def test_str_forms():
    F = quadratic_field(5)
    assert str(F.zero) == "0"
    assert str(F.element((3, -1))) == "3 - t"
    assert str(F.element((0, 2))) == "2*t"


# ---- prime classification vs brute-force oracles ----

def _brute_quadratic(field, p):
    disc = field.discriminant
    if disc % p == 0:
        return "ramified", 2, 1, 1
    if p == 2:
        return ("split", 1, 1, 2) if disc % 8 == 1 else ("inert", 1, 2, 1)
    if any((x * x - disc) % p == 0 for x in range(p)):
        return "split", 1, 1, 2
    return "inert", 1, 2, 1


def _brute_order(p, m):
    t, k = p % m, 1
    while t != 1:
        t = t * p % m
        k += 1
    return k


def _brute_cyclotomic(field, p):
    m = field.param
    n = field.n
    if m % p == 0:
        mp = m
        a = 0
        while mp % p == 0:
            mp //= p
            a += 1
        e = (p - 1) * p ** (a - 1)
        f = _brute_order(p, mp) if mp > 1 else 1
        return "ramified", e, f, n // (e * f)
    f = _brute_order(p, m)
    h = n // f
    return ("split" if f == 1 else "inert" if h == 1 else "partial"), 1, f, h


def _brute_maxreal(field, p):
    m = field.param
    n = field.n
    if p == m:
        return "ramified", n, 1, 1
    t, k = p % m, 1
    while t not in (1, m - 1):
        t = t * p % m
        k += 1
    h = n // k
    return ("split" if k == 1 else "inert" if h == 1 else "partial"), 1, k, h


BRUTE_ORACLES = {"quadratic": _brute_quadratic, "cyclotomic": _brute_cyclotomic,
                 "maximal_real": _brute_maxreal}


def test_classify_prime_against_brute_oracle():
    for field in ORACLE_FIELDS:
        brute = BRUTE_ORACLES[field.family]
        for p in sympy.primerange(2, 200):
            info = classify_prime(field, int(p))
            assert (info.kind, info.e, info.f, info.h) == brute(field, int(p)), (
                field.name, p)
    for m, p, efh in ((12, 2, (2, 2, 1)), (15, 3, (2, 4, 1)), (20, 5, (4, 1, 2))):
        assert _brute_cyclotomic(cyclotomic_field(m), p) == ("ramified",) + efh


def test_classify_prime_rejects_composites():
    with pytest.raises(InvalidArgument):
        classify_prime(quadratic_field(5), 6)
    with pytest.raises(InvalidArgument):
        classify_prime(quadratic_field(5), 1)
