import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from latticedex import (
    InvalidArgument,
    build_index_code,
    diversity_and_product_distance,
    min_distance,
    prime_ideals_above,
    quadratic_field,
    side_info_gain,
)
from conftest import _pair_scan, pair_scan_min_distance
from latticedex.numberfield.linalg import shortest_nonzero


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


def test_m2_finite_distance_matches_lattice(zi_m2, zi_m2k2, module_codes):
    val0, _ = shortest_nonzero(zi_m2.gram2)
    assert (min_distance(zi_m2, ()) == Fraction(int(val0), 2)
            == pair_scan_min_distance(zi_m2, ()))
    vals, _ = shortest_nonzero(zi_m2k2.side_sublattice_gram((1,)))
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


def test_sublattice_gram_determinant_scaling(zi_m2):
    code = zi_m2
    _, ld0 = np.linalg.slogdet(code.gram2.astype(float))
    _, ld1 = np.linalg.slogdet(code.side_sublattice_gram((1,)).astype(float))
    # sublattice index is N(p)^m = 25, so the Gram determinant grows by 25^2
    want = ld0 + 2.0 * code.m * np.log(5.0)
    assert abs(ld1 - want) < 1e-8


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


