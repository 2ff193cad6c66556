"""Distance and gain analysis for index codes.

Side-information gains are computed from exact squared distances: d_0 is the
shortest nonzero vector of the code lattice and d_S that of its side
sublattice, the u with every slot in prod_{k in S} p_k (revealing w_S reduces
the candidate set to a translate of it).  Both read the code's one record of
that lattice, IndexCode.side_lattice (S = {} for the code lattice), whose exact
minimum numberfield.linalg.shortest_nonzero finds once per S (Fincke-Pohst with
exact integer scoring) in the record's LLL-reduced basis, so skewed HNF bases
cost no more than reduced ones.  For the plain code on O_K the side sublattice
is the ideal lattice Psi(prod_{k in S} p_k).

The finite subcode's figures scan no pair of points: every difference of a
subcode is a nonzero d of the side sublattice (each slot in
J = prod_{k in S} p_k), and one search of those d (_smallest_realised) finds
the ones it realises.  In order of length the first realised d gives
min_distance; in order of the product of |N(e_i)| over the nonzero slots of
e = G~ d it gives the fading figures of every code, over the places of K
(field.places, field.place_sizes): a nonzero algebraic integer has no zero
embedding, so every place of a nonzero slot differs.  The tests check the
search against a scan of every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import build_index_code, rate
from .errors import Infeasible, InvalidArgument, InvariantViolation
from .numberfield.linalg import (check_int64, column_max, product_bounds, short_vectors,
                                 shortest_nonzero, sublattice_gram)

SIX_DB = 20.0 * math.log10(2.0)  # exact gain of PID constructions, ~6.0206
_SEARCH_ROWS = 1 << 18  # sums x + d tested at once by the fading search


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
        return (self.lower_bound_db is None
                or self.lower_bound_db - 1e-9 <= self.gamma_db <= self.upper_bound_db + 1e-9)

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

    The shortest difference that subcode_points(code, s, fixed) realises, w_S
    defaulting to zero.  Raises on singleton subcodes, where the pairwise
    minimum is undefined; ideal_lambda1_sq covers that case.
    """
    idx = code.subcode_indices(s, fixed)
    if idx.shape[0] < 2:
        raise InvalidArgument("subcode has fewer than two points; distance undefined")
    return Fraction(_smallest_realised(code, s, idx), 2)


def minkowski_upper_bound(field, ideal):
    """Geometry-of-numbers bound on the ideal lattice's shortest vector."""
    n, (r1, r2) = field.n, field.signature
    return math.sqrt((r1 + r2) * (math.sqrt(abs(field.discriminant)) * ideal.norm) ** (2.0 / n)
                     * (2.0 / math.pi) ** (2.0 * r2 / n))


def gain_bounds(code, s):
    """(lower_db, upper_db) gain sandwich of a field that is totally real or
    totally complex, as every supported field is.

    Imaginary quadratic PIDs return the exact value 20*log10(2) on both sides.
    """
    field = code.field
    s = code.check_side_info(s)
    if not s:
        raise InvalidArgument("side-information set must be nonempty")
    if field.is_imaginary_quadratic_pid:
        return (SIX_DB, SIX_DB)
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
    side = code.side_lattice(s)
    d0_sq, ds_sq = Fraction(code.side_lattice(()).minimum, 2), Fraction(side.minimum, 2)
    r = rate(code, s)
    gamma_db = 10.0 * math.log10(float(ds_sq / d0_sq)) / r
    exact = code.field.is_imaginary_quadratic_pid
    if code.is_plain:
        lower, upper = gain_bounds(code, s)
        mink = minkowski_upper_bound(code.field, side.ideal)
    else:
        lower = upper = SIX_DB if exact else None
        mink = _general_minkowski(side.gram)
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


def _first_realised(code, X, D, *keys):
    """The first row d of D in np.lexsort(keys) order (the last key leads)
    with x + d a stored point for some row x of X, or None.  Tries 1, 2, 4,
    ... rows of D at a time, with at most _SEARCH_ROWS sums x + d in memory."""
    order = np.lexsort(keys)
    most = max(1, _SEARCH_ROWS // X.shape[0])
    start, step = 0, 1
    while start < order.shape[0]:
        rows = order[start:start + step]
        sums = (X[None, :, :] + D[rows][:, None, :]).reshape(-1, X.shape[1])
        hit = (code.point_index(sums) >= 0).reshape(rows.shape[0], -1).any(axis=1)
        if hit.any():
            return int(rows[hit.argmax()])
        start, step = start + step, min(2 * step, most)
    return None


def _smallest_realised(code, s, idx, by_norm=False):
    """Least doubled length over the differences d of the subcode idx, or by_norm (fewest
    nonzero slots, least key) over them, the key of d being the exact product of |N(e_i)| over
    the nonzero slots e_i of G~ d.

    Two points of the subcode differ by a nonzero d with every slot in J = prod_{k in S} p_k,
    and x + d is then in the subcode exactly when it is a stored point (IndexCode.point_index).
    Candidates are the short_vectors of that side sublattice (code.side_lattice(s)) within a
    doubled radius, and the first realised in order of length, or of key (of slots, unless the
    key winner has one) then length, wins.  Float norms only set the order (exact integers are
    at least 1 apart); the winner's key is checked exactly.  G~ has entries in O_K, so every
    slot of G~ d lies in J: a norm search stops at key N(J) with one slot, or when the radius
    covers every difference, 4 times the largest doubled energy.  The radius doubles from twice
    the least doubled length of a d, the side sublattice's exact minimum (side.minimum).
    """
    field, side = code.field, code.side_lattice(s)
    H, norm = side.basis.astype(np.int64), side.ideal.norm  # N(J), the index of J in O_K
    X = code.coords_matrix[idx]
    span, xmax = X.max(axis=0) - X.min(axis=0), column_max(X)
    check_int64(product_bounds(code.basis, span.tolist()), "a difference G~ d of the subcode")
    full = 4 * int(code.norms2[idx].max())
    bound2 = min(full, 2 * side.minimum)
    while True:
        Y, len2 = short_vectors(side.gram, bound2, lll=side.lll)
        check_int64(product_bounds(H, column_max(Y)), "a side-ideal difference")
        D = Y @ H.T
        # d and -d are realised together; a realised d fits the subcode's box
        sign = D[np.arange(D.shape[0]), (D != 0).argmax(axis=1)]
        keep = (sign > 0) & (np.abs(D) <= span).all(axis=1)
        D, len2 = D[keep], len2[keep]
        check_int64([a + b for a, b in zip(xmax, column_max(D))], "a sum x + d of the subcode")
        if not by_norm:
            hit = _first_realised(code, X, D, len2)
            if hit is not None:
                return int(len2[hit])
        else:
            E = (D @ code.basis.T).reshape(D.shape[0], code.m, field.n)
            nonzero = E.any(axis=2)
            sizes = field.place_sizes(E.astype(np.float64) @ field.embed_matrix.T)
            norms = np.rint((sizes ** np.bincount(field.places)).prod(axis=2))
            keys, slots = np.where(nonzero, norms, 1.0).prod(axis=1), nonzero.sum(axis=1)
            hit = _first_realised(code, X, D, len2, keys)
            if hit is not None:
                fewest = hit if slots[hit] == 1 else _first_realised(code, X, D, len2, slots)
                if (keys[hit] == norm and slots[fewest] == 1) or bound2 == full:
                    break
        if bound2 == full:
            raise InvariantViolation("no difference of the subcode lies in its side ideal")
        bound2 = min(2 * bound2, full)
    key = math.prod(abs(field.element(e).norm()) for e in E[hit].tolist() if any(e))
    if key != keys[hit]:
        raise InvariantViolation(
            f"float key {keys[hit]} of {D[hit].tolist()} is not its exact key {key}")
    return int(slots[fewest]), key


def diversity_and_product_distance(code, s, fixed=None):
    """Diversity order and min product distance of a subcode, exact on every code.

    A nonzero algebraic integer has no zero embedding, so a difference d
    differs at every place of each nonzero slot of G~ d.  The diversity is
    r1 + r2 times the fewest nonzero slots of a realised d, and the product
    distance the least product of |N(e_i)| over the nonzero slots e_i of a
    realised G~ d (totally real) or its square root (totally complex).
    """
    idx = code.subcode_indices(s, fixed)
    if idx.shape[0] < 2:
        raise InvalidArgument("subcode has fewer than two points; diversity undefined")
    s, field = code.check_side_info(s), code.field
    slots, key = _smallest_realised(code, s, idx, by_norm=True)
    # every supported field is totally real or totally complex
    pmin = float(key) if field.is_totally_real else math.sqrt(key)
    floor = float(code.side_ideal(s).norm) if code.is_plain and field.is_totally_real else None
    return FadingReport(s=s, diversity=slots * (field.r1 + field.r2), product_distance=pmin,
                        floor=floor)


# Former names of build_index_code and side_info_gain, kept only because
# bench/workloads.py and bench/record.py call them.
build_oklattice_code = build_index_code
oklattice_side_info_gain = side_info_gain
