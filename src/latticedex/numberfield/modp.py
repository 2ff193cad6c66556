"""Arithmetic modulo a prime: primality, small factorizations, F_p[x] factoring.

Everything the fields and ideals need from elementary number theory, in
plain Python integers:

* :func:`is_prime`: deterministic Miller-Rabin over the 13 prime bases
  2, ..., 41, exact below 3.317e24 (Sorenson and Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 86, 2017);
* :func:`prime_factors` (trial division, bounded inputs) and
  :func:`is_squarefree` (for |d| < 2^63);
* :func:`factor_mod_p`: the monic irreducible factors of a monic
  polynomial over F_p with multiplicities, by square-free decomposition,
  distinct-degree splitting through the Frobenius matrix and Cantor-Zassenhaus
  equal-degree splitting (Cantor and Zassenhaus, "A new algorithm for
  factoring polynomials over finite fields", Math. Comp. 36, 1981; Cohen,
  "A Course in Computational Algebraic Number Theory", section 3.4).

Polynomials are coefficient lists, low to high, with coefficients in
[0, p) and no trailing zeros; the zero polynomial is [].
"""

from __future__ import annotations

import math
import random
from operator import mul

from ..errors import Infeasible, InvalidArgument
from .linalg import INT64_MAX

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin over _MR_BASES has no strong pseudoprime below this bound.
MR_EXACT_BOUND = 3317044064679887385961981
# prime_factors divides by every candidate up to sqrt(n): refuse larger n.
TRIAL_DIVISION_LIMIT = 1 << 32

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


def prime_factors(n):
    """{prime: exponent} of 1 <= n < TRIAL_DIVISION_LIMIT by trial division."""
    if not 1 <= n < TRIAL_DIVISION_LIMIT:
        raise Infeasible(f"{n} is outside the trial-division range [1, 2^32)")
    out = {}
    for q in _trial_divisors():
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    """Quotient and remainder of a by nonzero b."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return q, _trim(a[:db])


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
    """F_p[x]/(f) for a monic f of degree n >= 1.

    Products are taken by Kronecker substitution: a polynomial is packed into
    one integer with w bytes per coefficient, so Python's big-integer
    multiplication does the convolution.  The degrees n..2n-2 are folded back
    with the packed rows x^j mod f, and the Frobenius map a -> a^p is the
    matrix of rows x^(p*j) mod f applied the same way."""

    def __init__(self, f, p, xp=None):
        self.f, self.p, self.n = f, p, len(f) - 1
        n = self.n
        # a slot holds up to 2n products of two residues without carrying
        self.w = (2 * p.bit_length() + (2 * n).bit_length() + 7) // 8
        self._low = (1 << (8 * self.w * n)) - 1
        rows = []
        cur = [0] * (n - 1) + [1]
        for _ in range(n - 1):  # x^j mod f for j = n, ..., 2n-2
            cur = self._times_x(cur)
            rows.append(self._pack(cur))
        self._fold = rows
        self._xp = xp
        self._frob_rows = None

    def _times_x(self, a):
        """x * a mod f, for a of degree < n."""
        a = a + [0] * (self.n - len(a))
        top = a[-1]
        return _trim([((a[k - 1] if k else 0) - top * fk) % self.p
                      for k, fk in enumerate(self.f[:-1])])

    def _pack(self, a):
        w = self.w
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")

    def _unpack(self, v, count):
        w, p = self.w, self.p
        buf = v.to_bytes(w * count, "little")
        return [int.from_bytes(buf[i:i + w], "little") % p for i in range(0, w * count, w)]

    def mul(self, a, b):
        if not a or not b:
            return []
        n, w = self.n, self.w
        prod = self._pack(a) * self._pack(b)
        size = len(a) + len(b) - 1
        if size <= n:
            return _trim(self._unpack(prod, size))
        acc = prod & self._low
        high = self._unpack(prod >> (8 * w * n), size - n)
        acc += sum(map(mul, high, self._fold))
        return _trim(self._unpack(acc, n))

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
            r = self._times_x([1])
            for bit in bin(self.p)[3:]:
                r = self.mul(r, r)
                if bit == "1":
                    r = self._times_x(r)
            self._xp = r
        return self._xp

    def frob(self, a):
        """a^p mod f, linear in the coefficients of a."""
        if self._frob_rows is None:
            rows, cur = [1], [1]
            for _ in range(self.n - 1):
                cur = self.mul(cur, self.xp)
                rows.append(self._pack(cur))
            self._frob_rows = rows
        return _trim(self._unpack(sum(map(mul, a, self._frob_rows)), self.n))


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
