"""Primality, small factorizations and F_p[x] factoring, with sympy as the oracle."""

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticedex.errors import Infeasible, InvalidArgument
from latticedex.numberfield import (
    NumberField,
    cyclotomic_field,
    factor_minpoly_mod_p,
    maximal_real_field,
    prime_ideals_above,
    quadratic_field,
)
from latticedex.numberfield import field as field_module
from latticedex.numberfield.linalg import INT64_MAX
from latticedex.numberfield.modp import (
    MR_EXACT_BOUND,
    factor_mod_p,
    is_prime,
    is_squarefree,
)

PRIMES = [int(p) for p in sympy.primerange(2, 2000)]
# conductors of degree <= 12 keep the sympy side of each example near a second
CYCLO_M = [m for m in range(3, 100) if m % 4 != 2 and sympy.totient(m) <= 12]
MAXREAL_M = [5, 7, 11, 13, 17, 19, 23]


def _sympy_factors(poly, p):
    x = sympy.Symbol("x")
    _, facs = sympy.Poly(list(reversed(poly)), x, modulus=p).factor_list()
    out = [(tuple(int(c) % p for c in reversed(f.all_coeffs())), int(e)) for f, e in facs]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def _assert_factoring_matches_sympy(field):
    for p in PRIMES:
        assert factor_minpoly_mod_p(field, p) == _sympy_factors(field.min_poly, p), (
            field.name, p)


def _squarefree_oracle(n):
    return all(e == 1 for e in sympy.factorint(n).values())


# ---- F_p[x] factoring ----

@settings(max_examples=10, deadline=None)
@given(d=st.integers(-10**6, 10**6).filter(
    lambda d: d not in (0, 1) and _squarefree_oracle(abs(d))))
@example(d=-1)
@example(d=-5)  # 2 and 5 ramify
@example(d=3 * 5 * 7 * 11 * 13 * 17)  # six odd ramified primes and 2
def test_quadratic_factoring_matches_sympy(d):
    _assert_factoring_matches_sympy(quadratic_field(d))


@settings(max_examples=4, deadline=None)
@given(m=st.sampled_from(CYCLO_M))
@example(m=16)  # x^8 + 1 = (x + 1)^8 mod 2: two p-th roots
@example(m=12)
def test_cyclotomic_factoring_matches_sympy(m):
    _assert_factoring_matches_sympy(cyclotomic_field(m))


@settings(max_examples=4, deadline=None)
@given(m=st.sampled_from(MAXREAL_M))
@example(m=7)
def test_maximal_real_factoring_matches_sympy(m):
    _assert_factoring_matches_sympy(maximal_real_field(m))


def test_factoring_at_word_sized_primes():
    # Q(zeta64) at p = 7 (mod 64): four factors of degree 8; at 2^61 - 1 = -1 (mod 64):
    # sixteen of degree 2
    field = cyclotomic_field(64)
    for p, count in ((10**9 + 7, 4), (2**61 - 1, 16)):
        got = factor_minpoly_mod_p(field, p)
        assert len(got) == count
        assert got == _sympy_factors(field.min_poly, p)
    # 2^61 - 1 = 1 (mod 5) splits completely in Q(zeta5)
    assert [q.norm for q in prime_ideals_above(cyclotomic_field(5), 2**61 - 1)] == [2**61 - 1] * 4


def test_factoring_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        factor_minpoly_mod_p(quadratic_field(5), 15)
    with pytest.raises(InvalidArgument):
        factor_mod_p((1, 2), 5)  # not monic


# ---- primality ----

@settings(max_examples=400, deadline=None)
@given(n=st.integers(0, 2**64 - 1))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(2**20, 2**32), b=st.integers(2**20, 2**32))
def test_is_prime_on_products_of_primes(a, b):
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


def test_is_prime_small_and_pseudoprimes():
    assert [n for n in range(3000) if is_prime(n)] == list(sympy.primerange(0, 3000))
    # Carmichael numbers, then strong pseudoprimes to bases 2..7, 2..23 and 2..37
    for n in (561, 41041, 825265, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n) and not sympy.isprime(n), n


def test_is_prime_refuses_beyond_exact_range():
    big = 2**89 - 1  # a Mersenne prime above the bound
    assert big > MR_EXACT_BOUND
    with pytest.raises(Infeasible):
        is_prime(big)
    assert not is_prime(big * (2**61 - 1))  # a witness still proves compositeness


# ---- trial division and the squarefree test ----

def test_cyclotomic_degree_from_trial_division():
    for m in range(3, 2 * 32**2 + 1):
        if m % 4 == 2 or sympy.totient(m) <= 32:
            continue
        with pytest.raises(Infeasible, match="degree"):
            NumberField("cyclotomic", m)
    for m in (15, 16, 21, 60):
        assert cyclotomic_field(m).n == sympy.totient(m)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2**5, 2**21), r=st.integers(1, 2**21))
@example(k=2**31, r=1)
@example(k=2**21, r=2**21)  # d = q^2 (q - 1) near 2^63: its trace form leaves int64
def test_squarefree_finds_a_large_planted_square(k, r):
    q = int(sympy.prevprime(k))
    r = min(r, q - 1, INT64_MAX // (q * q))  # q > r makes q > the cube root of q^2 r
    d = q * q * r
    assert q**3 > d
    assert not is_squarefree(d)
    for sign in (1, -1):
        # a too-large trace form is refused first, squarefree or not
        top = max(map(max, _quadratic_trace_form(sign * d)))
        with (pytest.raises(Infeasible, match="trace form") if top > INT64_MAX
              else pytest.raises(InvalidArgument, match="squarefree")):
            quadratic_field(sign * d)


def _quadratic_trace_form(d):
    """The doubled trace form of Q(sqrt(d)) on the power basis 1, theta."""
    if d % 4 == 1:  # theta = (1 + sqrt(d))/2: Tr(theta) = 1, N(theta) = (1 - d)/4
        return ((4, 2), (2, d + 1)) if d > 0 else ((2, 1), (1, (1 - d) // 2))
    return ((4, 0), (0, 4 * d)) if d > 0 else ((2, 0), (0, -2 * d))  # theta = sqrt(d)


def test_quadratic_trace_form_is_checked_before_the_squarefree_test(monkeypatch):
    for d in (-15, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 13, 14):
        assert quadratic_field(d).gram2 == _quadratic_trace_form(d), d

    def refuse(n):
        raise AssertionError(f"is_squarefree({n}) was called")

    monkeypatch.setattr(field_module, "is_squarefree", refuse)
    # 4d, 4d and 2|d| leave int64 (2|d| = 2^63 at d = -2^62); |d| does not
    for d in (2**63 - 25, 2**62 + 3, -(2**62 + 1), -(2**62)):
        assert abs(d) <= INT64_MAX
        with pytest.raises(Infeasible, match="trace form"):
            quadratic_field(d)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2**40))
def test_is_squarefree_matches_sympy(n):
    assert is_squarefree(n) == _squarefree_oracle(n)


def test_is_squarefree_range():
    assert is_squarefree(int(sympy.prevprime(2**63)))
    assert not is_squarefree(INT64_MAX)  # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
    for n in (0, INT64_MAX + 1):
        with pytest.raises(Infeasible):
            is_squarefree(n)
