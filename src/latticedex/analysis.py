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

Fading figures run over the places of K (field.places, field.place_sizes).
Those of a plain code (m = 1, identity generator) are exact and need no
pair: every difference of a subcode is a nonzero d in J = prod_{k in S} p_k,
so the diversity is r1 + r2 and the product distance follows from the least
|N(d)| that the subcode realises, found by a search of the J-lattice in
order of |N(d)|.  Other codes scan every pair of the subcode, every place of
a slot differing where that slot's exact integer difference is nonzero; that
scan is also the tests' oracle for the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import build_index_code, minkowski_bound_sq, rate
from .errors import Infeasible, InvalidArgument, InvariantViolation
from .numberfield.linalg import INT64_MAX, short_vectors, shortest_nonzero, sublattice_gram

SIX_DB = 20.0 * math.log10(2.0)  # exact gain of PID constructions, ~6.0206
_PAIR_CHUNK = 512
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


def _pair_scan(code, idx):
    """(diversity, min product distance) of the subcode idx over every pair.

    Each difference is embedded from the exact difference of the integer
    points G~ u, slot by slot, so no cancellation between large embeddings
    enters its place sizes (field.place_sizes).  A nonzero algebraic integer
    has no zero embedding, so every place of a slot where that exact
    difference is nonzero differs, and none of a zero slot; the product runs
    over the differing places of each pair.
    """
    field = code.field
    # integer points, exact in float64 like the embedding built from them
    P = (code.coords_matrix[idx] @ code.basis.T).astype(np.float64)
    diversity, pmin = [], []
    for lo, _, i, j in _pairs(P.shape[0]):
        diff = (P[lo + i] - P[j]).reshape(-1, field.n)  # one row per slot of each pair
        slots = diff.any(axis=1).reshape(-1, code.m)
        g = field.place_sizes(diff @ field.embed_matrix.T).reshape(*slots.shape, -1)
        diversity.append(int(slots.sum(axis=1).min()) * g.shape[2])
        pmin.append(float(np.where(slots[:, :, None], g, 1.0).prod(axis=(1, 2)).min()))
    return min(diversity), min(pmin)


def _row_keys(rows):
    """One exactly comparable key per row of an int64 array: its bytes, so
    forming a key does no arithmetic that could wrap."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _first_realised(D, X, keys):
    """Position of the first row d of D with x + d a row of X for some row x
    of X, or None; keys are the sorted _row_keys of X.  Tries 1, 2, 4, ...
    rows of D at a time, with at most _SEARCH_ROWS sums x + d in memory."""
    most = max(1, _SEARCH_ROWS // X.shape[0])
    start, step = 0, 1
    while start < D.shape[0]:
        chunk = D[start:start + step]
        sums = _row_keys((X[None, :, :] + chunk[:, None, :]).reshape(-1, X.shape[1]))
        pos = np.minimum(np.searchsorted(keys, sums), keys.shape[0] - 1)
        hit = (keys[pos] == sums).reshape(chunk.shape[0], -1).any(axis=1)
        if hit.any():
            return start + int(hit.argmax())
        start += step
        step = min(2 * step, most)
    return None


def _smallest_realised_norm(code, s, idx):
    """Exact min |N(d)| over the differences d of the plain subcode idx.

    Two points of the subcode differ by a nonzero d in J = prod_{k in S} p_k,
    and N(J) divides N(d).  Candidates are the short_vectors of the J-lattice
    within a doubled radius, tried in order of |N(d)| and then length; the
    first d with x and x + d both in the subcode for some x wins.  The float
    norms from the embeddings only set that order (exact integers are at
    least 1 apart); the winner's norm is then checked exactly.  The search
    stops when the winner reaches N(J) or the radius covers every difference,
    4 times the largest doubled energy; until then the radius doubles from
    twice the least doubled energy an element of norm N(J) can have.
    """
    field, ideal = code.field, code.side_ideal(s)
    H = np.array(ideal.hnf, dtype=np.int64)
    gram = sublattice_gram(ideal.hnf, field.gram2)
    X = code.coords_matrix[idx]
    span = X.max(axis=0) - X.min(axis=0)
    keys = np.sort(_row_keys(X))
    full = 4 * int(code.norms2[idx].max())
    # AM-GM: 2|Psi(d)|^2 >= c * n * |N(d)|^(2/n), c = 2 totally real, 1 totally complex
    least = (2 if field.is_totally_real else 1) * field.n * ideal.norm ** (2 / field.n)
    bound2 = min(full, math.ceil(2 * least))
    while True:
        Y, len2 = short_vectors(gram, bound2)
        ymax = np.abs(Y).max(axis=0, initial=0).tolist()
        if max(sum(abs(h) * y for h, y in zip(row, ymax)) for row in ideal.hnf) > INT64_MAX:
            raise Infeasible("side-ideal differences leave the int64 range")
        D = Y @ H.T
        # d and -d are realised together; a realised d fits the subcode's box
        sign = D[np.arange(D.shape[0]), (D != 0).argmax(axis=1)]
        keep = (sign > 0) & (np.abs(D) <= span).all(axis=1)
        D, len2 = D[keep], len2[keep]
        sizes = field.place_sizes(D.astype(np.float64) @ field.embed_matrix.T)
        norms = np.rint((sizes ** np.bincount(field.places)).prod(axis=1))
        order = np.lexsort((len2, norms))
        D, norms = D[order], norms[order]
        hit = _first_realised(D, X, keys)
        if hit is not None and (norms[hit] == ideal.norm or bound2 == full):
            break
        if bound2 == full:
            raise InvariantViolation("no difference of the subcode lies in its side ideal")
        bound2 = min(2 * bound2, full)
    d = D[hit].tolist()
    norm = abs(field.element(d).norm())
    if norm != norms[hit]:
        raise InvariantViolation(f"float norm {norms[hit]} of {d} is not its exact norm {norm}")
    return norm


def diversity_and_product_distance(code, s, fixed=None):
    """Diversity order and min product distance of a subcode.

    Plain codes (m = 1, identity generator) are exact: a nonzero algebraic
    integer has no zero embedding, so the diversity is r1 + r2, and the
    product distance is |N(d)| (totally real) or sqrt(|N(d)|) (totally
    complex) for the realised difference d of least |N(d)|, found by a
    norm-ordered search of the side ideal.  Other codes scan every pair of
    the subcode, counting the places of the slots where the pair's exact
    integer difference is nonzero.
    """
    idx = code.subcode_indices(s, fixed)
    if idx.shape[0] < 2:
        raise InvalidArgument("subcode has fewer than two points; diversity undefined")
    s = code.check_side_info(s)
    field = code.field
    if code.is_plain:
        diversity = field.r1 + field.r2
        norm = _smallest_realised_norm(code, s, idx)
        # every supported field is totally real or totally complex
        pmin = float(norm) if field.is_totally_real else math.sqrt(norm)
    else:
        diversity, pmin = _pair_scan(code, idx)
    floor = None
    if code.is_plain and field.is_totally_real:
        floor = float(math.prod(code.primes[k - 1].norm for k in s))
    return FadingReport(s=s, diversity=diversity, product_distance=pmin, floor=floor)


def capacity_rhs(snr):
    """Capacity of the point-to-point reference channel, bits per dimension."""
    if snr < 0:
        raise InvalidArgument("snr must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


# Former names of the module-code entry points; the code type is one.
build_oklattice_code = build_index_code
oklattice_min_distance = min_distance
oklattice_side_info_gain = side_info_gain
