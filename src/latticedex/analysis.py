"""Distance and gain analysis for index codes.

Side-information gains are computed from exact squared distances: d_0 is the
shortest nonzero vector of the code lattice and d_S that of its side
sublattice, the u with every slot in prod_{k in S} p_k (revealing w_S reduces
the candidate set to a translate of it).  Both come from
numberfield.linalg.shortest_nonzero: LLL reduction of the Gram matrix, then
Fincke-Pohst enumeration in the reduced basis with exact integer scoring,
so skewed HNF sublattice bases cost no more than reduced ones.  For the
plain code on O_K the side sublattice is the ideal lattice
Psi(prod_{k in S} p_k).  min_distance is the finite-subcode brute force over
constellation pairs; the two agree on every built code and are cross-checked
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import build_index_code, minkowski_bound_sq, rate
from .errors import Infeasible, InvalidArgument, InvariantViolation
# bench/workloads.py traces enumeration through analysis.short_vectors too
from .numberfield.linalg import short_vectors, shortest_nonzero, sublattice_gram  # noqa: F401

SIX_DB = 20.0 * math.log10(2.0)  # exact gain of PID constructions, ~6.0206
_PAIR_CHUNK = 512


@dataclass(frozen=True)
class GainReport:
    """Side-information gain of one index set, with applicable bounds."""

    s: tuple
    d0_sq: Fraction
    ds_sq: Fraction
    rate_bits: float
    gamma_db: float
    lower_bound_db: float | None
    upper_bound_db: float | None
    minkowski_upper: float
    exact_uniform: bool = False

    @property
    def bounds_ok(self):
        if self.lower_bound_db is None:
            return True
        return (
            self.lower_bound_db - 1e-9 <= self.gamma_db <= self.upper_bound_db + 1e-9
        )

    def to_dict(self):
        return {
            "S": list(self.s),
            "d0_sq": [self.d0_sq.numerator, self.d0_sq.denominator],
            "dS_sq": [self.ds_sq.numerator, self.ds_sq.denominator],
            "rate_bits_per_dim": self.rate_bits,
            "gamma_db_per_bit_per_dim": self.gamma_db,
            "lower_bound_db": self.lower_bound_db,
            "upper_bound_db": self.upper_bound_db,
            "minkowski_upper": self.minkowski_upper,
            "exact_uniform": self.exact_uniform,
            "bounds_ok": self.bounds_ok,
        }


@dataclass(frozen=True)
class FadingReport:
    """Diversity order and minimum product distance of a subcode."""

    s: tuple
    diversity: int
    product_distance: float
    floor: float | None

    def to_dict(self):
        return {
            "S": list(self.s),
            "diversity": self.diversity,
            "product_distance": self.product_distance,
            "floor": self.floor,
        }


# ============================================================
# Exact distances
# ============================================================


def ideal_lambda1_sq(ideal):
    """Exact squared length of the shortest nonzero vector of Psi(ideal)."""
    # the HNF's columns are a Z-basis of the ideal
    val, _ = shortest_nonzero(sublattice_gram(ideal.hnf, ideal.field.gram2))
    return Fraction(int(val), 2)


def min_distance(code, s, fixed=None):
    """Exact min squared distance over the finite subcode (un-normalized).

    Brute force over pairs of subcode_points(code, s, fixed); w_S defaults
    to zero.  Raises on singleton subcodes, where the pairwise minimum is
    undefined; ideal_lambda1_sq covers that case.
    """
    idx = code.subcode_indices(s, fixed)
    if idx.shape[0] < 2:
        raise InvalidArgument("subcode has fewer than two points; distance undefined")
    X = code.coords_matrix[idx]
    G = code.gram2
    q = np.einsum("ij,jk,ik->i", X, G, X)
    XG = X @ G
    best = []
    for lo, hi, i, j in _pairs(X.shape[0]):
        d2 = q[lo:hi, None] + q[None, :] - 2 * (XG[lo:hi] @ X.T)  # int64 exact
        best.append(int(d2[i, j].min()))
    return Fraction(min(best), 2)


def _pairs(count):
    """Every pair a < b of count points, _PAIR_CHUNK rows a at a time.

    Yields (lo, hi, i, j) for each chunk with a pair: rows lo..hi-1 pair
    up as (lo + i, j), so block[i, j] picks them from a rows-by-count block.
    """
    for lo in range(0, count, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, count)
        iu = np.triu_indices(hi - lo, k=1, m=count)
        mask = iu[1] > iu[0] + lo  # strict upper triangle in global indices
        if mask.any():
            yield lo, hi, iu[0][mask], iu[1][mask]


def minkowski_upper_bound(field, ideal):
    """Geometry-of-numbers bound on the ideal lattice's shortest vector."""
    return math.sqrt(minkowski_bound_sq(field, ideal))


def gain_bounds(code, s):
    """(lower_db, upper_db) gain sandwich for totally real or complex fields.

    Imaginary quadratic PIDs return the exact value 20*log10(2) on both
    sides; mixed-signature fields return (None, None).
    """
    field = code.field
    s = code.check_side_info(s)
    if not s:
        raise InvalidArgument("side-information set must be nonempty")
    if field.is_imaginary_quadratic_pid:
        return (SIX_DB, SIX_DB)
    if not (field.is_totally_real or field.is_totally_complex):
        return (None, None)
    denom = sum(math.log2(code.primes[k - 1].norm) for k in s)
    disc = abs(field.discriminant)
    if field.is_totally_real:
        upper = 6.0 + 10.0 * math.log10(disc) / denom
    else:
        upper = 6.0 + 10.0 * math.log10(disc * (2.0 / math.pi) ** field.n) / denom
    return (6.0, upper)


def side_info_gain(code, s):
    """GainReport for a nonempty side-information set.

    The plain code reports the Minkowski bound of prod_{k in S} p_k and the
    field's gain sandwich; other generators report the ball-packing bound of
    the side sublattice and the exact 20*log10(2) only on imaginary
    quadratic PIDs.
    """
    s = code.check_side_info(s)
    if not s:
        raise InvalidArgument("side-information set must be nonempty")
    val0, _ = shortest_nonzero(code.gram2)
    d0_sq = Fraction(int(val0), 2)
    side_gram = code.side_sublattice_gram(s)
    vals, _ = shortest_nonzero(side_gram)
    ds_sq = Fraction(int(vals), 2)
    r = rate(code, s)
    gamma_db = 10.0 * math.log10(float(ds_sq / d0_sq)) / r
    exact = code.field.is_imaginary_quadratic_pid
    if code.is_plain:
        lower, upper = gain_bounds(code, s)
        mink = minkowski_upper_bound(code.field, code.side_ideal(s))
    else:
        lower = upper = SIX_DB if exact else None
        mink = _general_minkowski(side_gram)
    return GainReport(
        s=s,
        d0_sq=d0_sq,
        ds_sq=ds_sq,
        rate_bits=r,
        gamma_db=gamma_db,
        lower_bound_db=lower,
        upper_bound_db=upper,
        minkowski_upper=mink,
        exact_uniform=exact,
    )


def _general_minkowski(gram2):
    """Ball-packing bound on the shortest vector from the Gram determinant."""
    d = gram2.shape[0]
    sign, logdet = np.linalg.slogdet(gram2.astype(float) / 2.0)
    if sign <= 0:
        raise InvariantViolation("lattice Gram matrix is not positive definite")
    log_covol = 0.5 * logdet
    log_ball = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
    return 2.0 * math.exp((log_covol - log_ball) / d)


def side_info_sets(num_messages, k_cap=20):
    """All 2^K - 1 nonempty side-information sets, in bitmask order.

    Refuses (Infeasible) when K exceeds k_cap, before any set is made.
    """
    if num_messages > k_cap:
        raise Infeasible(f"2^{num_messages} subsets exceed the scan cap K <= {k_cap}; "
                         "raise the cap or name the sets")
    return [tuple(k + 1 for k in range(num_messages) if mask >> k & 1)
            for mask in range(1, 1 << num_messages)]


def overall_side_info_gain(code, k_cap=20):
    """(worst-case GainReport, all 2^K - 1 reports) over nonempty S."""
    reports = [side_info_gain(code, s) for s in side_info_sets(len(code.primes), k_cap)]
    best = min(reports, key=lambda r: r.gamma_db)
    return best, reports


# ============================================================
# Fading figures of merit
# ============================================================


def _coordinate_gaps(field, diff_embedded):
    """Per-coordinate magnitudes, slot by slot, complex pairs collapsed to one
    column."""
    r1, r2 = field.signature
    cols = []
    for slot in range(0, diff_embedded.shape[-1], field.n):
        d = diff_embedded[..., slot:slot + field.n]
        if r1:
            cols.append(np.abs(d[..., :r1]))
        for j in range(r2):
            cols.append(np.hypot(d[..., r1 + 2 * j], d[..., r1 + 2 * j + 1])[..., None])
    return np.concatenate(cols, axis=-1)


def diversity_and_product_distance(code, s, fixed=None, tol=1e-9):
    """Brute-force diversity order and min product distance of a subcode.

    Counts embedded coordinates (complex pairs count once) whose gap exceeds
    tol; the product runs over the differing coordinates of each pair.
    """
    idx = code.subcode_indices(s, fixed)
    if idx.shape[0] < 2:
        raise InvalidArgument("subcode has fewer than two points; diversity undefined")
    E = code.embedded[idx]
    diversity, pmin = [], []
    for lo, hi, i, j in _pairs(E.shape[0]):
        g = _coordinate_gaps(code.field, E[lo:hi, None, :] - E[None, :, :])[i, j]
        differing = g > tol
        diversity.append(int(differing.sum(axis=1).min()))
        pmin.append(float(np.where(differing, g, 1.0).prod(axis=1).min()))
    s = code.check_side_info(s)
    floor = None
    if code.is_plain and code.field.is_totally_real:
        floor = float(math.prod(code.primes[k - 1].norm for k in s))
    return FadingReport(s=s, diversity=min(diversity), product_distance=min(pmin),
                        floor=floor)


def capacity_rhs(snr):
    """Capacity of the point-to-point reference channel, bits per dimension."""
    if snr < 0:
        raise InvalidArgument("snr must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


# Former names of the module-code entry points; the code type is one.
build_oklattice_code = build_index_code
oklattice_min_distance = min_distance
oklattice_side_info_gain = side_info_gain
