"""Number fields with a power integral basis and their canonical embeddings.

Three families, each with ring of integers exactly Z[theta]:

* quadratic Q(sqrt(d)), squarefree d not in {0, 1}: theta = sqrt(d) when
  d = 2, 3 (mod 4), theta = (1 + sqrt(d))/2 when d = 1 (mod 4);
* cyclotomic Q(zeta_m), m >= 3, m != 2 (mod 4): theta = zeta_m;
* maximal real subfield Q(zeta_m + zeta_m^{-1}) for prime m >= 5:
  theta = 2*cos(2*pi/m).

Elements are integer coordinate vectors over 1, theta, ..., theta^(n-1).
The canonical embedding maps an element to R^n: real embeddings first in
ascending order of their defining exponent, then one (Re, Im) pair per
conjugate pair of complex embeddings, ascending.  Complex coordinates are
counted once in squared norms, so the doubled trace form
G2[k][l] = Tr(theta^k * conj(theta^l)) is an integer matrix with
x^T G2 x = 2 * ||Psi(x)||^2 exactly.  Column j lies at place places[j]
([0, 0, 1, 1] on Q(zeta5), [0, 1, 2] on Q(zeta7+)), and place_sizes gives
|sigma(x)| at each of the r1 + r2 places.  Since O_K = Z[theta], the
discriminant is det Tr(theta^(i+j)), read off the same trace table.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache

import numpy as np

from ..errors import Infeasible, InvalidArgument
from .linalg import INT64_MAX, det_int
from .modp import is_prime, is_squarefree, prime_factors

IMAGINARY_PID_DS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
# Largest degree a field may have.  Building one costs about n^3 and every
# lattice search on it grows exponentially in n; the presets stop at 6.
MAX_DEGREE = 32

# ============================================================
# Integer polynomial helpers (coefficient lists, low to high)
# ============================================================


def _poly_divmod_exact(num, den):
    """Quotient of num / den when the division is exact over Z."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c % lead:
            raise InvalidArgument("inexact polynomial division")
        qi = c // lead
        q[i - dn] = qi
        if qi:
            for j, dj in enumerate(den):
                num[i - dn + j] -= qi * dj
    if any(num[:dn]):
        raise InvalidArgument("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients of the m-th cyclotomic polynomial, low to high."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _maxreal_poly(m):
    """Minimal polynomial of 2*cos(2*pi/m) for prime m, via the palindromic
    reduction of x^(m-1) + ... + 1 with x^k + x^(-k) = P_k(y)."""
    n = (m - 1) // 2
    out = [1] + [0] * n
    p_prev = [2]  # P_0
    p_cur = [0, 1]  # P_1
    for _ in range(1, n + 1):
        for i, c in enumerate(p_cur):
            out[i] += c
        nxt = [0] + p_cur  # y * P_k - P_{k-1}
        for i, c in enumerate(p_prev):
            nxt[i] -= c
        p_prev, p_cur = p_cur, nxt
    return tuple(out)


def _is_integer(v):
    """A rational integer: a Python or numpy int, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# ============================================================
# Fields
# ============================================================


class NumberField:
    """A monogenic number field from one of the supported families.

    Use :func:`quadratic_field`, :func:`cyclotomic_field` or
    :func:`maximal_real_field` instead of calling this directly.
    """

    def __init__(self, family, param):
        if not _is_integer(param):
            raise InvalidArgument(f"the field parameter must be an integer, not {param!r}")
        param = int(param)
        if family == "quadratic":
            d = param
            if d in (0, 1):
                raise InvalidArgument("d must be a squarefree integer other than 0, 1")
            # the trace form holds |d|, so a d outside int64 is refused before any factoring
            if abs(d) > INT64_MAX:
                raise Infeasible(f"d = {d} leaves the int64 range of the trace form")
            # and so is a d whose trace form's largest entry leaves int64 (the
            # check in _init_tables, in closed form): size guards come first
            if d % 4 == 1:
                top = d + 1 if d > 0 else (1 - d) // 2
            else:
                top = 4 * d if d > 0 else -2 * d
            if top > INT64_MAX:
                raise Infeasible(f"the trace form of Q(sqrt({d})) leaves the int64 range")
            if not is_squarefree(abs(d)):
                raise InvalidArgument(f"d = {d} is not squarefree")
            if d % 4 == 1:
                self.min_poly = ((1 - d) // 4, -1, 1)
                self.theta_name = f"(1+sqrt({d}))/2"
            else:
                self.min_poly = (-d, 0, 1)
                self.theta_name = f"sqrt({d})"
            self.r1, self.r2 = (2, 0) if d > 0 else (0, 1)
        elif family == "cyclotomic":
            m = param
            if m < 3 or m % 4 == 2:
                raise InvalidArgument("need m >= 3 with m != 2 (mod 4)")
            # phi(m) >= sqrt(m/2): a larger m is refused without factoring it
            if m > 2 * MAX_DEGREE**2:
                raise Infeasible(f"Q(zeta{m}) has degree phi({m}) > {MAX_DEGREE}, "
                                 "the largest accepted")
            primes = prime_factors(m)
            n = m
            for p in primes:
                n = n // p * (p - 1)
            if n > MAX_DEGREE:
                raise Infeasible(f"Q(zeta{m}) has degree phi({m}) = {n} > {MAX_DEGREE}, "
                                 "the largest accepted")
            self.min_poly = cyclotomic_poly(m)
            self.theta_name = f"zeta_{m}"
            self.r1, self.r2 = 0, n // 2
        elif family == "maximal_real":
            m = param
            if m < 5 or not is_prime(m):
                raise InvalidArgument("need a prime m >= 5")
            if (m - 1) // 2 > MAX_DEGREE:
                raise Infeasible(f"Q(zeta{m}+) has degree "
                                 f"{(m - 1) // 2} > {MAX_DEGREE}, the largest accepted")
            self.min_poly = _maxreal_poly(m)
            self.theta_name = f"2*cos(2*pi/{m})"
            self.r1, self.r2 = (m - 1) // 2, 0
        else:
            raise InvalidArgument(f"unknown field family {family!r}")
        self.family = family
        self.param = param
        self.n = len(self.min_poly) - 1
        self._init_tables()

    # ---- precomputed tables ----

    def _init_tables(self):
        n, a = self.n, self.min_poly
        # theta^j for j <= 3n - 3: products reach j = 2n - 2, and Tr(theta^j),
        # the trace of multiplication by theta^j, is sum_i (theta^(i+j))_i
        pows = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        for _ in range(n, 3 * n - 2):
            prev = pows[-1]
            pows.append(tuple((prev[r - 1] if r else 0) - prev[n - 1] * a[r] for r in range(n)))
        self._pow = tuple(pows)
        self._trace_pow = [sum(pows[i + j][i] for i in range(n)) for j in range(2 * n - 1)]
        # O_K = Z[theta], so disc(O_K) = det Tr(theta^(i+j))
        self.discriminant = det_int([self._trace_pow[i:i + n] for i in range(n)])

        if self.r2 == 0:
            self._conj_pow = self._pow[:n]
        else:
            if self.family == "quadratic":
                ct = (1, -1) if self.param % 4 == 1 else (0, -1)
            else:
                ct = self._element_pow_coords(self._pow[1], self.param - 1)
            conj_pows = [self._pow[0], tuple(ct)]
            for _ in range(2, n):
                conj_pows.append(self.mul_coords(conj_pows[-1], ct))
            self._conj_pow = tuple(conj_pows[:n])

        g2 = [[0] * n for _ in range(n)]
        for k in range(n):
            for l in range(n):
                if self.r2 == 0:
                    g2[k][l] = 2 * self._trace_pow[k + l]
                else:
                    g2[k][l] = self.trace_coords(
                        self.mul_coords(self._pow[k], self._conj_pow[l])
                    )
        if max(abs(v) for r in g2 for v in r) > INT64_MAX:
            raise Infeasible(f"the trace form of {self.name} leaves the int64 range")
        self.gram2 = tuple(tuple(r) for r in g2)
        self.gram2_np = np.array(g2, dtype=np.int64)

        embs = []
        if self.family == "quadratic":
            d = self.param
            if d > 0:
                rt = math.sqrt(d)
                if d % 4 == 1:
                    embs = [("r", (1 + rt) / 2), ("r", (1 - rt) / 2)]
                else:
                    embs = [("r", rt), ("r", -rt)]
            else:
                rt = math.sqrt(-d)
                z = complex(0.5, rt / 2) if d % 4 == 1 else complex(0.0, rt)
                embs = [("c", z)]
        elif self.family == "cyclotomic":
            m = self.param
            embs = [
                ("c", cmath.exp(2j * math.pi * j / m))
                for j in range(1, m // 2 + 1)
                if math.gcd(j, m) == 1
            ]
        else:
            m = self.param
            embs = [("r", 2 * math.cos(2 * math.pi * j / m)) for j in range(1, self.n + 1)]
        self.embeddings = tuple(embs)
        rows, places = [], []
        for place, (kind, z) in enumerate(embs):
            zp = [z**k for k in range(n)]
            parts = [zp] if kind == "r" else [[w.real for w in zp], [w.imag for w in zp]]
            rows += parts
            places += [place] * len(parts)
        self.embed_matrix = np.array(rows, dtype=np.float64)
        self.places = np.array(places)
        self._place_starts = np.searchsorted(self.places, np.arange(len(embs)))

    def place_sizes(self, emb):
        """|sigma(x)| at each of the r1 + r2 places, for rows (..., n) of
        canonical embeddings; a real column's sqrt(x*x) is exactly |x|."""
        return np.sqrt(np.add.reduceat(emb * emb, self._place_starts, axis=-1))

    # ---- identity ----

    @property
    def signature(self):
        return (self.r1, self.r2)

    @property
    def is_totally_real(self):
        return self.r2 == 0

    @property
    def is_totally_complex(self):
        return self.r1 == 0

    @property
    def is_imaginary_quadratic_pid(self):
        return self.family == "quadratic" and self.param in IMAGINARY_PID_DS

    @property
    def name(self):
        if self.family == "quadratic":
            return f"Q(sqrt({self.param}))"
        if self.family == "cyclotomic":
            return f"Q(zeta{self.param})"
        return f"Q(zeta{self.param}+)"

    def describe(self):
        return f"{self.name}, degree {self.n}, theta = {self.theta_name}, discriminant {self.discriminant}"

    def to_dict(self):
        return {"family": self.family, "param": self.param}

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.family == other.family
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.family, self.param))

    def __repr__(self):
        return f"NumberField({self.name})"

    # ---- coordinate arithmetic ----

    def mul_coords(self, a, b):
        n = self.n
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = list(conv[:n])
        for j in range(n, 2 * n - 1):
            cj = conv[j]
            if cj:
                pw = self._pow[j]
                for r in range(n):
                    out[r] += cj * pw[r]
        return tuple(out)

    def _element_pow_coords(self, base, k):
        result = self._pow[0]
        cur = tuple(base)
        while k:
            if k & 1:
                result = self.mul_coords(result, cur)
            k >>= 1
            if k:
                cur = self.mul_coords(cur, cur)
        return result

    def trace_coords(self, c):
        return sum(cj * self._trace_pow[j] for j, cj in enumerate(c) if cj)

    def mul_columns(self, c):
        """Columns c * theta^j, j < n: the matrix of multiplication by c."""
        n, a = self.n, self.min_poly
        cols = [tuple(c)]
        for _ in range(n - 1):
            prev = cols[-1]
            top = prev[n - 1]
            cols.append(tuple((prev[r - 1] if r else 0) - top * a[r] for r in range(n)))
        return cols

    # ---- element constructors ----

    def element(self, coords):
        """The element with these integer coordinates; anything else (floats,
        strings, bools) is refused rather than truncated."""
        coords = tuple(coords)
        if not all(_is_integer(v) for v in coords):
            raise InvalidArgument(f"coordinates {coords} must be integers")
        if len(coords) != self.n:
            raise InvalidArgument(f"expected {self.n} coordinates, got {len(coords)}")
        return AlgebraicInt(self, tuple(map(int, coords)))

    def from_int(self, k):
        return self.element((k,) + (0,) * (self.n - 1))

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    @property
    def theta(self):
        return self.element(self._pow[1]) if self.n > 1 else self.one


def quadratic_field(d):
    """Q(sqrt(d)) for squarefree d, with its full ring of integers."""
    return NumberField("quadratic", d)


def cyclotomic_field(m):
    """Q(zeta_m) for m >= 3, m != 2 (mod 4)."""
    return NumberField("cyclotomic", m)


def maximal_real_field(m):
    """Maximal real subfield of Q(zeta_m) for prime m >= 5."""
    return NumberField("maximal_real", m)


def field_from_dict(d):
    """The field that a code file or experiment config names as
    {"family": ..., "param": <int>}."""
    if not (isinstance(d, dict) and isinstance(d.get("family"), str)
            and type(d.get("param")) is int):
        raise InvalidArgument("field must be an object with a family name and an integer param")
    return NumberField(d["family"], d["param"])


# ============================================================
# Elements
# ============================================================


class AlgebraicInt:
    """An algebraic integer as coordinates over the power basis of its field."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _check(self, other):
        if _is_integer(other):
            return self.field.from_int(other)
        if not isinstance(other, AlgebraicInt) or other.field != self.field:
            raise InvalidArgument("elements belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return AlgebraicInt(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return AlgebraicInt(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self._check(other).__sub__(self)

    def __neg__(self):
        return AlgebraicInt(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._check(other)
        return AlgebraicInt(self.field, self.field.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not _is_integer(k) or k < 0:
            raise InvalidArgument("exponent must be a nonnegative integer")
        return AlgebraicInt(self.field, self.field._element_pow_coords(self.coords, int(k)))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraicInt)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    @property
    def is_zero(self):
        return not any(self.coords)

    def norm(self):
        return det_int(self.field.mul_columns(self.coords))

    def trace(self):
        return self.field.trace_coords(self.coords)

    def embed(self):
        return self.field.embed_matrix @ np.asarray(self.coords, dtype=np.float64)

    def conj(self):
        """Complex conjugate; the element itself in a totally real field."""
        f = self.field
        if f.r2 == 0:
            return self
        return AlgebraicInt(f, tuple(sum(cj * pw[r] for cj, pw in zip(self.coords, f._conj_pow))
                                     for r in range(f.n)))

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coords):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                var = "t" if j == 1 else f"t^{j}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    def __repr__(self):
        return f"AlgebraicInt({self} | {self.field.name})"
