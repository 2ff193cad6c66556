"""Arithmetic modulo a prime: primality, the squarefree test, F_p[x] factoring.

Everything the fields and ideals need from elementary number theory, in
plain Python integers:

* :func:`is_prime`: deterministic Miller-Rabin over the 13 prime bases
  2, ..., 41, exact below 3.317e24 (Sorenson and Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 86, 2017);
* :func:`is_squarefree` (trial division, for |d| < 2^63);
* :func:`factor_mod_p`: the monic irreducible factors of a monic
  polynomial over F_p with multiplicities, by square-free decomposition,
  distinct-degree splitting through the Frobenius matrix and Cantor-Zassenhaus
  equal-degree splitting (Cantor and Zassenhaus, "A new algorithm for
  factoring polynomials over finite fields", Math. Comp. 36, 1981; Cohen,
  "A Course in Computational Algebraic Number Theory", section 3.4).

Polynomials are coefficient lists, low to high, with coefficients in
[0, p) and no trailing zeros; the zero polynomial is [].  All arithmetic,
the quotient ring F_p[x]/(f) included, works on these lists directly.
"""

from __future__ import annotations

import math
import random

from ..errors import Infeasible, InvalidArgument
from .linalg import INT64_MAX

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin over _MR_BASES has no strong pseudoprime below this bound.
MR_EXACT_BOUND = 3317044064679887385961981

# ============================================================
# Integers
# ============================================================


def is_prime(n):
    """Whether the integer n is prime.

    A failed base proves n composite at any size; an n at or above
    MR_EXACT_BOUND that passes every base is refused with Infeasible
    rather than guessed."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BOUND:
        raise Infeasible(f"{n} is beyond the exact primality test (limit {MR_EXACT_BOUND:.4g})")
    return True


def _trial_divisors():
    """2, 3, then every 6k +- 1: all primes, and few composites."""
    yield 2
    yield 3
    q = 5
    while True:
        yield q
        yield q + 2
        q += 6


def is_squarefree(n):
    """Whether 1 <= n <= INT64_MAX has no square factor other than 1.

    The primes q with q^3 <= (what is left of n) are divided out; the
    cofactor then has at most two prime factors, so it is squarefree unless
    it is a perfect square."""
    if not 1 <= n <= INT64_MAX:
        raise Infeasible(f"{n} is outside the squarefree test's range [1, 2^63)")
    for q in _trial_divisors():
        if q * q * q > n:
            break
        if n % q == 0:
            n //= q
            if n % q == 0:
                return False
    r = math.isqrt(n)
    return n == 1 or r * r != n


# ============================================================
# Dense polynomials over F_p
# ============================================================


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a, b, p):
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _divmod(a, b, p):
    """Quotient and remainder of a by nonzero b; a may hold any integers."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return q, _trim([c % p for c in a[:db]])


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p):
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else a


# ============================================================
# The quotient ring F_p[x]/(f)
# ============================================================


class _Ring:
    """F_p[x]/(f) for a monic f of degree n >= 1, on coefficient lists.

    A product is the schoolbook convolution reduced modulo f with _divmod.
    The Frobenius map a -> a^p is linear in the coefficients of a: it is
    applied as the combination of the rows x^(p*j) mod f, j < n."""

    def __init__(self, f, p, xp=None):
        self.f, self.p, self.n = f, p, len(f) - 1
        self._xp = xp
        self._frob_rows = None

    def mul(self, a, b):
        if not a or not b:
            return []
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return _divmod(conv, self.f, self.p)[1]

    def pow(self, a, e):
        """a^e for e >= 1, left to right."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    @property
    def xp(self):
        """x^p mod f."""
        if self._xp is None:
            self._xp = self.pow([0, 1], self.p)
        return self._xp

    def frob(self, a):
        """a^p mod f, for a of degree < n."""
        if self._frob_rows is None:
            rows = [[1]]
            for _ in range(self.n - 1):
                rows.append(self.mul(rows[-1], self.xp))
            self._frob_rows = rows
        out = [0] * self.n
        for aj, row in zip(a, self._frob_rows):
            if aj:
                for r, v in enumerate(row):
                    out[r] += aj * v
        return _trim([v % self.p for v in out])


# ============================================================
# Factoring
# ============================================================


def _squarefree_parts(f, p):
    """Pairwise coprime squarefree (g, e) with f = prod g^e, for monic f."""
    out = []
    mult = 1
    while len(f) > 1:
        c = _gcd(f, _trim([i * f[i] % p for i in range(1, len(f))]), p)
        w = _divmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c, p)
            fac = _divmod(w, y, p)[0]
            if len(fac) > 1:
                out.append((fac, i * mult))
            w, c = y, _divmod(c, y, p)[0]
            i += 1
        # what is left is a p-th power: take its root
        f, mult = c[::p], mult * p
    return out


def _distinct_degree(ring):
    """(h, d): h the product of all degree-d factors of the squarefree modulus."""
    g, p = ring.f, ring.p
    out = []
    h, d = [0, 1], 0
    while 2 * (d + 1) <= len(g) - 1:
        d += 1
        h = ring.frob(h)  # x^(p^d) mod the original modulus, hence mod g
        t = _gcd(g, _sub(h, [0, 1], p), p)
        if len(t) > 1:
            out.append((t, d))
            g = _divmod(g, t, p)[0]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(g, d, ring, rng):
    """The degree-d irreducible factors of g, a squarefree divisor of ring.f
    whose irreducible factors all have degree d."""
    k, p = len(g) - 1, ring.p
    if k == d:
        return [g]
    if g != ring.f:
        ring = _Ring(g, p, _divmod(ring.xp, g, p)[1])
    while True:
        a = _trim([rng.randrange(p) for _ in range(k)])
        if len(a) < 2:
            continue
        # b = a^((p^d - 1)/2) - 1, or at p = 2 the trace a + a^2 + ... + a^(2^(d-1))
        t = b = a
        for _ in range(d - 1):
            t = ring.frob(t)
            b = _sub(b, t, p) if p == 2 else ring.mul(b, t)  # b - t = b + t at p = 2
        if p != 2:
            b = _sub(ring.pow(b, (p - 1) // 2), [1], p)
        h = _gcd(g, b, p)
        if 1 < len(h) < len(g):
            break
    return (_equal_degree(h, d, ring, rng)
            + _equal_degree(_divmod(g, h, p)[0], d, ring, rng))


def factor_mod_p(poly, p):
    """Monic irreducible factors of a monic integer polynomial mod a prime p.

    Returns (coeffs_low_to_high, multiplicity) pairs with coefficients in
    [0, p), sorted by degree and then by coefficients."""
    if not poly or poly[-1] != 1:
        raise InvalidArgument("factor_mod_p needs a monic polynomial")
    f = [c % p for c in poly]
    rng = random.Random(0)
    out = []
    for g, e in _squarefree_parts(f, p):
        ring = _Ring(g, p)
        for h, d in _distinct_degree(ring):
            out.extend((tuple(q), e) for q in _equal_degree(h, d, ring, rng))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out
