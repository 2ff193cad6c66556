"""Ideals of the ring of integers: HNF form, factorization, arithmetic.

An ideal is stored as the column-style Hermite normal form of its Z-basis
over the power basis of the field.  Since every supported field is monogenic
(O_K = Z[theta]), Dedekind's factorization criterion applies at every
rational prime: the primes above p correspond to the irreducible factors of
the minimal polynomial mod p, with the ideal (p, g_i(theta)) having residue
degree deg g_i and ramification index the factor multiplicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import sympy

from ..errors import InvalidArgument, InvariantViolation, Unsupported
from .field import AlgebraicInt, NumberField, kronecker_symbol
from .linalg import (
    hnf_columns,
    hnf_contains,
    reduce_mod_hnf,
    reduce_mod_hnf_batch,
)


@dataclass(frozen=True)
class PrimeClass:
    """How a rational prime decomposes: kind plus (e, f, h)."""

    kind: str  # "ramified" | "split" | "inert" | "partial"
    e: int  # ramification index
    f: int  # residue degree
    h: int  # number of distinct primes above p


class Ideal:
    """A nonzero integral ideal in HNF; prime ideals carry (p, e, f) tags."""

    __slots__ = ("field", "hnf", "residue_char", "ramification", "inertia", "two_gen")

    def __init__(self, field, hnf, residue_char=None, ramification=None, inertia=None, two_gen=None):
        self.field = field
        self.hnf = hnf
        self.residue_char = residue_char
        self.ramification = ramification
        self.inertia = inertia
        self.two_gen = two_gen

    @property
    def norm(self):
        v = 1
        for i in range(self.field.n):
            v *= self.hnf[i][i]
        return v

    @property
    def is_prime_tagged(self):
        return self.residue_char is not None

    def basis_columns(self):
        n = self.field.n
        return [tuple(self.hnf[r][j] for r in range(n)) for j in range(n)]

    def basis_elements(self):
        return [AlgebraicInt(self.field, c) for c in self.basis_columns()]

    def contains(self, el):
        el = self._coerce(el)
        return hnf_contains(self.hnf, el.coords)

    def reduce(self, el):
        """Canonical residue of el modulo this ideal."""
        el = self._coerce(el)
        return AlgebraicInt(self.field, reduce_mod_hnf(el.coords, self.hnf))

    def reduce_batch(self, vecs):
        """Vectorized reduce on an (M, n) int64 coordinate array."""
        return reduce_mod_hnf_batch(vecs, self.hnf)

    def residues(self):
        """All canonical residues (the HNF box), as coordinate tuples."""
        return itertools.product(*(range(self.hnf[i][i]) for i in range(self.field.n)))

    def residue_indices(self, coords):
        """Mixed-radix index of every row of an (M, n) array of canonical
        residues, coordinate 0 least significant; inverse of residues() order."""
        strides = np.cumprod([1] + [self.hnf[i][i] for i in range(self.field.n - 1)])
        return np.asarray(coords, dtype=np.int64) @ strides

    def residue_index(self, coords):
        """residue_indices of one canonical residue."""
        return int(self.residue_indices([coords])[0])

    def _coerce(self, el):
        if isinstance(el, int):
            el = self.field.from_int(el)
        if not isinstance(el, AlgebraicInt) or el.field != self.field:
            raise InvalidArgument("element does not belong to this ideal's field")
        return el

    def __mul__(self, other):
        if not isinstance(other, Ideal) or other.field != self.field:
            raise InvalidArgument("ideals belong to different fields")
        cols = []
        for b in self.basis_columns():
            for c in other.basis_columns():
                cols.append(self.field.mul_coords(b, c))
        return Ideal(self.field, hnf_columns(cols))

    def __add__(self, other):
        if not isinstance(other, Ideal) or other.field != self.field:
            raise InvalidArgument("ideals belong to different fields")
        return Ideal(self.field, hnf_columns(self.basis_columns() + other.basis_columns()))

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.field == other.field and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.field, self.hnf))

    def label(self):
        if self.two_gen is not None:
            p, g = self.two_gen
            return f"({p}, {g})"
        return f"norm-{self.norm} ideal"

    def __repr__(self):
        tags = ""
        if self.is_prime_tagged:
            tags = f", p={self.residue_char}, e={self.ramification}, f={self.inertia}"
        return f"Ideal({self.field.name}, norm={self.norm}{tags})"


def whole_ring(field):
    n = field.n
    hnf = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return Ideal(field, hnf)


def ideal_from_generators(field, gens):
    """The O_K-ideal generated by the given elements (or rational integers)."""
    cols = []
    for g in gens:
        if isinstance(g, int):
            g = field.from_int(g)
        if not isinstance(g, AlgebraicInt) or g.field != field:
            raise InvalidArgument("generators must be elements of the field")
        for j in range(field.n):
            cols.append(field.mul_coords(g.coords, field._pow[j]))
    if not cols or not any(any(c) for c in cols):
        raise InvalidArgument("need at least one nonzero generator")
    return Ideal(field, hnf_columns(cols))


def principal_ideal(el):
    if el.is_zero:
        raise InvalidArgument("the zero ideal is not supported")
    return ideal_from_generators(el.field, [el])


def is_coprime(i1, i2):
    return (i1 + i2).norm == 1


# ============================================================
# Prime decomposition
# ============================================================


def _check_prime(p):
    if not isinstance(p, int) or not sympy.isprime(p):
        raise InvalidArgument(f"p = {p!r} is not a prime")


def _mult_order(p, m, allow_sign=False):
    """Multiplicative order of p mod m, or its order in (Z/m)^* / {+-1}."""
    t = p % m
    k = 1
    while t != 1 and not (allow_sign and t == m - 1):
        t = (t * p) % m
        k += 1
    return k


def classify_prime(field, p):
    """Decomposition type of p in the field, from quadratic-residue or
    multiplicative-order arithmetic (no factorization involved)."""
    _check_prime(p)
    n = field.n
    if field.family == "quadratic":
        k = kronecker_symbol(field.discriminant, p)
        if k == 0:
            return PrimeClass("ramified", 2, 1, 1)
        if k == 1:
            return PrimeClass("split", 1, 1, 2)
        return PrimeClass("inert", 1, 2, 1)
    m = field.param
    if field.family == "cyclotomic":
        if m % p == 0:
            mp, a = m, 0
            while mp % p == 0:
                mp //= p
                a += 1
            e = (p - 1) * p ** (a - 1)
            f = _mult_order(p, mp) if mp > 1 else 1
            h = n // (e * f)
            return PrimeClass("ramified", e, f, h)
        f = _mult_order(p, m)
    else:  # maximal_real
        if p == m:
            return PrimeClass("ramified", n, 1, 1)
        f = _mult_order(p, m, allow_sign=True)
    h = n // f
    if f == 1:
        return PrimeClass("split", 1, 1, h)
    if h == 1:
        return PrimeClass("inert", 1, f, 1)
    return PrimeClass("partial", 1, f, h)


def factor_minpoly_mod_p(field, p):
    """Irreducible factors of the minimal polynomial mod p, with multiplicity.

    Returns a deterministically sorted list of (coeffs_low_to_high, mult)
    with coefficients lifted to [0, p).
    """
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(field.min_poly)), x, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append((tuple(coeffs), int(mult)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def prime_ideals_above(field, p):
    """All prime ideals above p, Dedekind-style, sorted canonically.

    Ramified primes of cyclotomic / maximal-real fields (p dividing the
    conductor) are rejected: the toolkit never selects them automatically.
    """
    _check_prime(p)
    if field.family in ("cyclotomic", "maximal_real") and field.param % p == 0:
        raise Unsupported(
            f"p = {p} ramifies in {field.name} (divides m = {field.param}); not offered"
        )
    ideals = []
    for coeffs, mult in factor_minpoly_mod_p(field, p):
        coords = [0] * field.n
        for j, c in enumerate(coeffs):
            if c:
                pw = field._pow[j]
                for r in range(field.n):
                    coords[r] += c * pw[r]
        g = AlgebraicInt(field, tuple(coords))
        ideal = ideal_from_generators(field, [field.from_int(p), g])
        f = len(coeffs) - 1
        if ideal.norm != p**f:
            raise InvariantViolation(f"prime above {p}: norm {ideal.norm} != {p}^{f}")
        ideals.append(
            Ideal(field, ideal.hnf, residue_char=p, ramification=mult, inertia=f, two_gen=(p, g))
        )
    if sum(i.ramification * i.inertia for i in ideals) != field.n:
        raise InvariantViolation(f"sum of e*f over primes above {p} != degree")
    return tuple(ideals)


def ideal_to_dict(ideal):
    d = {"hnf": [list(r) for r in ideal.hnf]}
    if ideal.is_prime_tagged:
        d["p"] = ideal.residue_char
        d["e"] = ideal.ramification
        d["f"] = ideal.inertia
    if ideal.two_gen is not None:
        d["two_gen"] = [ideal.two_gen[0], list(ideal.two_gen[1].coords)]
    return d
