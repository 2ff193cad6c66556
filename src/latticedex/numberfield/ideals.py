"""Ideals of the ring of integers: HNF form, factorization, arithmetic.

An ideal is stored as the column-style Hermite normal form of its Z-basis
over the power basis of the field.  Since every supported field is monogenic
(O_K = Z[theta]), Dedekind's factorization criterion applies at every
rational prime: the primes above p correspond to the irreducible factors of
the minimal polynomial mod p, with the ideal (p, g_i(theta)) having residue
degree deg g_i and ramification index the factor multiplicity.  That one
factorization gives both the prime ideals above p and p's splitting type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import InvalidArgument, InvariantViolation, Unsupported
from .field import AlgebraicInt, _is_integer
from .linalg import hnf_columns, reduce_mod_hnf
from .modp import factor_mod_p, is_prime


@dataclass(frozen=True)
class PrimeClass:
    """How a rational prime decomposes: kind plus (e, f, h)."""

    kind: str  # "ramified" | "split" | "inert" | "partial"
    e: int  # ramification index
    f: int  # residue degree
    h: int  # number of distinct primes above p


class Ideal:
    """A nonzero integral ideal in HNF; prime ideals carry (p, e, f) tags.

    The HNF is kept as a tuple of tuples of ints, however it is given, so
    equal ideals compare and hash equal; entries that are not integers
    (floats, strings, bools) are refused rather than truncated."""

    __slots__ = ("field", "hnf", "residue_char", "ramification", "inertia", "two_gen")

    def __init__(self, field, hnf, residue_char=None, ramification=None, inertia=None, two_gen=None):
        self.field = field
        hnf = tuple(tuple(row) for row in hnf)
        if not all(_is_integer(v) for row in hnf for v in row):
            raise InvalidArgument(f"HNF entries {hnf} must be integers")
        self.hnf = tuple(tuple(int(v) for v in row) for row in hnf)
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

    def contains(self, el):
        return self.reduce(el).is_zero

    def reduce(self, el):
        """Canonical residue of el modulo this ideal."""
        el = self._coerce(el)
        return AlgebraicInt(self.field, reduce_mod_hnf(el.coords, self.hnf))

    def residues(self):
        """All canonical residues (the HNF box), as coordinate tuples, coordinate 0
        varying fastest: the order of their index in a code (codec._places)."""
        box = (range(self.hnf[i][i]) for i in range(self.field.n - 1, -1, -1))
        return (r[::-1] for r in itertools.product(*box))

    def _coerce(self, el):
        if _is_integer(el):
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
        if _is_integer(g):
            g = field.from_int(g)
        if not isinstance(g, AlgebraicInt) or g.field != field:
            raise InvalidArgument("generators must be elements of the field")
        cols.extend(field.mul_columns(g.coords))
    if not cols or not any(any(c) for c in cols):
        raise InvalidArgument("need at least one nonzero generator")
    return Ideal(field, hnf_columns(cols))


def principal_ideal(el):
    if el.is_zero:
        raise InvalidArgument("the zero ideal is not supported")
    return ideal_from_generators(el.field, [el])


# ============================================================
# Prime decomposition
# ============================================================


def _check_prime(p):
    """p as a Python int, after checking it is a rational prime (a Python or
    numpy int, not a bool)."""
    if not _is_integer(p) or not is_prime(int(p)):
        raise InvalidArgument(f"p = {p!r} is not a prime")
    return int(p)


def classify_prime(field, p):
    """Decomposition type of p in the field, read off the factors of the
    minimal polynomial mod p (Dedekind: h factors, each of multiplicity e
    and degree f).  Unlike prime_ideals_above, it accepts the ramified p of
    every family."""
    factors = factor_minpoly_mod_p(field, p)
    es = {mult for _, mult in factors}
    fs = {len(coeffs) - 1 for coeffs, _ in factors}
    if len(es) != 1 or len(fs) != 1:
        raise InvariantViolation(f"primes above {p} in the Galois field {field.name} "
                                 f"differ in e or f: {factors}")
    (e,), (f,), h = es, fs, len(factors)
    kind = "ramified" if e > 1 else "split" if f == 1 else "inert" if h == 1 else "partial"
    return PrimeClass(kind, e, f, h)


def factor_minpoly_mod_p(field, p):
    """Irreducible factors of the minimal polynomial mod p, with multiplicity.

    Returns a deterministically sorted list of (coeffs_low_to_high, mult)
    with coefficients lifted to [0, p).
    """
    p = _check_prime(p)
    return factor_mod_p(field.min_poly, p)


def prime_ideals_above(field, p):
    """All prime ideals above p, Dedekind-style, sorted canonically.

    Ramified primes of cyclotomic / maximal-real fields (p dividing the
    conductor) are rejected: the toolkit never selects them automatically.
    """
    p = _check_prime(p)
    if field.family in ("cyclotomic", "maximal_real") and field.param % p == 0:
        raise Unsupported(
            f"p = {p} ramifies in {field.name} (divides m = {field.param}); not offered"
        )
    ideals = []
    for coeffs, mult in factor_mod_p(field.min_poly, p):
        g = field.zero
        for c in reversed(coeffs):  # g(theta) by Horner's rule
            g = g * field.theta + c
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
