"""CRT index codes: message tuples over residue fields mapped to minimum-energy
coset representatives of a lattice carved from O_K.

A code lives on m copies of O_K mixed by an invertible generator matrix G~
over O_K; the default 1x1 identity gives the plain code on O_K itself.  Its
points are minimum-energy representatives of G~ O_K^m modulo G~ I^m with
I = prod p_k, and message k is u mod p_k slot by slot, an element of
(O_K/p_k)^m.  The p_k are distinct prime ideals, so each O_K/p_k is a finite
field and the p_k are pairwise coprime; IndexCode alone checks this.  The
encoder is the CRT isomorphism O_K/I = prod_k O_K/p_k, which needs no
principal ideals: for the plain code, (w_1, ..., w_K) maps to the
representative of sum_k e_k * w_k mod I, where the CRT idempotent e_k is
read off the constellation as the point whose message is 1 on p_k and 0 on
the other primes.
Per-coset representatives minimize the canonical-embedding energy, with ties
broken lexicographically on exact integer coordinates, so constellations are
reproducible.  Message components are canonical HNF residues of O_K / p_k;
finite-field operations are ring operations followed by reduction.  Point i is
the one whose message has index i by the one residue-index rule (_places), w_1
slowest: its message is read off i, and the points make the message grid, one
axis per message: side information w_S fixes S's axes, and its subcode is a slice.

A plain code's file is the JSON of to_dict() with sorted keys: save_code
writes it with indent=1, and with it the points CSV if asked, from one pass of
one emitter; content_hash hashes its compact form (SHA-256).  load_code
loads a file only if its JSON is the canonical JSON of the code its field,
primes and coordinates define, so its hash is the hash of the file's content;
a saved file is read in blocks and checked byte for byte, never read whole.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass, make_dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, InvalidArgument, InvariantViolation, LatticedexError, Unsupported
from .numberfield import (
    AlgebraicInt,
    Ideal,
    field_from_dict,
    ideal_to_dict,
    prime_ideals_above,
    whole_ring,
)
from .numberfield.field import _checked_array, _is_integer
from .numberfield.linalg import (check_int64, column_max, det_int, lll_gram, product_bounds,
                                 reduce_mod_hnf_batch, short_vectors, shortest_nonzero,
                                 sublattice_gram)
from .settings import DEFAULT_ENUMERATION_CAP

_POINT_BLOCK = 1024  # points per chunk of the canonical JSON
_POINT_KEYS = ("coords", "embedded", "label")  # of each point in a code file
_POINTS_KEY = '\n "points": '  # in a saved file
_COORDS = re.compile(r'"coords": \[([^\]]*)\]')
_READ = 1 << 18  # characters per read of a code file
SideLattice = make_dataclass("SideLattice", "ideal basis gram lll minimum".split(), frozen=True)


@dataclass(frozen=True)
class Message:
    """K message symbols; symbol k is a canonical residue of O_K mod p_k per
    slot, slot-major (m*n integers)."""

    residues: tuple

    def __len__(self):
        return len(self.residues)


@dataclass(frozen=True)
class CodePoint:
    """One constellation point: message label and exact coordinates."""

    index: int
    message: Message
    coords: tuple


def _code_primes(field, primes):
    """The primes of a code, checked: one or more distinct prime ideals of field.

    Each ideal is replaced by its match among the prime ideals above p, where
    the HNF corner hnf[0][0] generates the ideal's intersection with Z (pZ
    for a prime), so untagged ideals come back with their (p, e, f) tags; p
    is factored once per call.  Distinct primes are coprime, all the CRT asks.
    """
    above, out = {}, []
    for ideal in primes:
        if not isinstance(ideal, Ideal) or ideal.field != field:
            raise InvalidArgument("primes must be ideals of the code's field")
        p = int(ideal.hnf[0][0])
        if p not in above:
            try:
                above[p] = prime_ideals_above(field, p)
            except InvalidArgument:  # hnf[0][0] is not a prime
                above[p] = ()
        match = next((q for q in above[p] if q == ideal), None)
        if match is None:
            raise InvalidArgument(f"ideal of norm {ideal.norm} is not a prime ideal")
        if match in out:
            raise InvalidArgument(f"duplicate prime ideal {match.label()}")
        out.append(match)
    if not out:
        raise InvalidArgument("need at least one prime ideal")
    return tuple(out)


def _generator_lattice(field, gmatrix):
    """(rows, basis, gram2) of the code lattice G~ O_K^m.

    rows is the validated generator (entries may be given as ring elements or
    rational integers; None is the 1x1 identity).  basis is the integer
    matrix of u -> G~ u on slot-major power-basis coordinates and gram2 the
    doubled Gram matrix of the lattice in the u coordinates.
    """
    if gmatrix is None:
        gmatrix = [[field.one]]
    m = len(gmatrix)
    if m == 0 or any(len(row) != m for row in gmatrix):
        raise InvalidArgument("generator matrix must be square and nonempty")
    rows = tuple(tuple(e if isinstance(e, AlgebraicInt) else field.from_int(e) for e in row)
                 for row in gmatrix)
    if any(e.field is not field for row in rows for e in row):
        raise InvalidArgument("generator entries must live in the code's field")
    cols = []
    for j in range(m):
        blocks = [field.mul_columns(rows[r][j].coords) for r in range(m)]
        cols.extend([v for block in blocks for v in block[i]] for i in range(field.n))
    if det_int(cols) == 0:  # det of the integer basis is +-N(det G~)
        raise InvalidArgument("generator matrix is singular")
    basis = np.array(cols, dtype=object).T
    gram2 = sublattice_gram(basis, np.kron(np.eye(m, dtype=np.int64), field.gram2_np))
    check_int64([*basis.flat, *gram2.flat], "the code lattice")
    return rows, basis.astype(np.int64), gram2.astype(np.int64)


def _places(ideals, m):
    """The one residue-index rule: (box, places) of the digits of an index over (O_K/ideals[0])^m
    x (O_K/ideals[1])^m x ..., lists of len(ideals)*m*n ints.  A digit is a coordinate of a
    canonical residue, in [0, box) (the HNF diagonal); ideal 0 is the most significant, then slot
    0, and coordinate 0 the least within a slot: digits @ places is the index, i // places % box
    the digits of index i."""
    n = ideals[0].field.n
    box = np.array([p.hnf[j][j] for p in ideals for _ in range(m) for j in range(n)])
    places = np.cumprod(np.r_[1, box.reshape(-1, n)[::-1].ravel()[:-1]])  # slots reversed
    return box.tolist(), places.reshape(-1, n)[::-1].ravel().tolist()


def _index(ideals, places, coords):
    """The index of each slot-major int64 row of coords by its residues mod the ideals (_places)."""
    n, d = ideals[0].field.n, coords.shape[1]
    return sum(reduce_mod_hnf_batch(coords.reshape(-1, n), p.hnf).reshape(-1, d)
               @ places[k * d:(k + 1) * d] for k, p in enumerate(ideals))


def _min_energy_representatives(modulus, gram2, m):
    """Minimum-energy representative of every coset of the modulus, slot-wise.

    Enumerates origin-centered balls in the lattice with doubled Gram gram2,
    starting at the ball that holds about one lattice point per coset of
    O_K^m / modulus^m (the Gaussian heuristic) and growing it by about twice
    the volume until every coset is covered, and keeps the lowest-energy
    point per coset, ties broken lexicographically on exact coordinates.  A
    covering ball holds every coset's minimizers, so the result does not
    depend on the start.  Returns int64 coordinates (N, m*n), one row per
    coset, in no particular order.
    """
    count, dim, places = modulus.norm ** m, gram2.shape[0], _places((modulus,), m)[1]
    log_covol = 0.5 * (math.log(det_int(gram2.tolist())) - dim * math.log(2.0))
    log_ball = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
    bound2 = 2.0 * math.exp(2.0 * (math.log(count) + log_covol - log_ball) / dim)
    while True:
        X, norms2 = short_vectors(gram2, bound2, include_zero=True)
        keys = tuple(X[:, i] for i in range(X.shape[1] - 1, -1, -1)) + (norms2,)
        order = np.lexsort(keys)
        uniq, first = np.unique(_index((modulus,), places, X)[order], return_index=True)
        if uniq.shape[0] == count:
            return X[order[first]]
        bound2 *= 2.0 ** (2.0 / dim)


class PointLookup:
    """A code's point lookup, picklable without the code: called on (N, m*n) int64 rows, it
    gives each row's index in coords (one point per coset of I^m), or -1 where it is not."""

    def __init__(self, modulus, m, coords):
        self.ideals, self.coords = (modulus,), coords
        self.places = np.array(_places(self.ideals, m)[1])
        self.cosets = np.argsort(_index(self.ideals, self.places, coords))  # point of each coset

    def __call__(self, u):
        shape = (-1, self.coords.shape[1])
        u = _checked_array(u, shape, True, f"rows u must be an integer array of shape {shape}")
        idx = self.cosets[_index(self.ideals, self.places, u)]
        return np.where((self.coords[idx] == u).all(axis=1), idx, -1)


class IndexCode:
    """Immutable index code on m copies of O_K; build with build_index_code.

    The constructor takes the field, the primes and one point per coset of
    I^m, or build_index_code's enumeration of them, and is the one place that
    checks the generator and the primes (_generator_lattice, _code_primes):
    built, loaded or made directly, a code holds tagged, distinct prime ideals.

    size is the number of points M, num_messages the number of messages K and dimension
    the real dimension m*n.  coords_matrix holds the slot-major power-basis coordinates of u,
    embedded the canonical embedding of the point G~ u and norms2 the exact doubled energies
    2*|Psi(G~ u)|^2.  The points biject with the cosets of I^m (checked): point i's message,
    its residues mod each p_k, has index i (_places), so message_residues reads it off i and
    message_grid, np.arange(M) shaped alphabet_sizes, maps messages to points.  idempotents
    holds e_k as the residue mod I of slot 0 of the point with message 1 on p_k, 0 elsewhere.
    side_lattice(s), S's side sublattice, its LLL reduction and exact minimum, is made once, kept.
    """

    def __init__(self, field, primes, coords, gmatrix=None):
        self.field = field
        self.gmatrix, self.basis, self.gram2 = _generator_lattice(field, gmatrix)
        self.primes = _code_primes(field, primes)
        self.m = m = len(self.gmatrix)
        self.modulus = functools.reduce(operator.mul, self.primes)
        self.alphabet_sizes = tuple(p.norm ** m for p in self.primes)
        if callable(coords):
            coords = coords(self.modulus, self.gram2, m)
        coords = _checked_array(coords, (-1, m * field.n), True, "point coords must be an integer "
                                f"array of shape {(-1, m * field.n)} (-1: any length)")
        self.size = coords.shape[0]
        if self.size != self.modulus.norm ** m:
            raise InvariantViolation(
                f"{self.size} points for the {self.modulus.norm ** m} cosets of I")
        # exact bounds on the int64 points G~ u, energies and their sum;
        # reduce_mod_hnf_batch guards every reduction modulo an HNF itself
        xmax = column_max(coords)
        check_int64(product_bounds(self.basis, xmax), "a point G~ u")
        energy = product_bounds(self.gram2, xmax)
        check_int64([*energy, self.size * product_bounds([energy], xmax)[0]],
                    "the constellation energy")

        self._places = _places(self.primes, m)
        msg_index = _index(self.primes, self._places[1], coords)
        if not np.array_equal(np.bincount(msg_index, minlength=self.size), np.ones(self.size)):
            raise InvariantViolation("two points lie in the same coset of I")
        X = self.coords_matrix = coords[np.argsort(msg_index)]
        self.norms2 = np.einsum("ij,jk,ik->i", X, self.gram2, X)
        n = field.n
        points = (X @ self.basis.T).reshape(-1, n).astype(np.float64)
        self.embedded = (points @ field.embed_matrix.T).reshape(self.size, m * n)
        # made after the build's temporaries: made among them it raised catalog peak RSS 1.4 MB
        self.message_grid = np.arange(self.size).reshape(self.alphabet_sizes)
        self.message_grid.flags.writeable = False
        # e_k is 1 mod p_k and 0 mod the other primes: slot 0 of the point whose message is 1
        # on p_k and 0 on the others, whose index is 1's digits in each slot at p_k's places
        d, one = m * n, field.one.coords * m
        self.idempotents = tuple(self.modulus.reduce(field.element(self.coords_matrix[np.dot(
            one, self._places[1][k * d:(k + 1) * d])][:n])) for k in range(len(self.primes)))

        total = int(self.norms2.sum())
        if total <= 0:
            raise InvariantViolation("constellation has no energy")
        self.mean_energy = Fraction(total, 2 * self.size)
        self.gamma = 1.0 / math.sqrt(total / (2.0 * self.size))
        self._hash, self._side = None, {}

    @property
    def num_messages(self):
        return len(self.primes)

    @property
    def dimension(self):
        return self.m * self.field.n

    @property
    def is_plain(self):
        """True for m = 1 with the identity generator: the code on O_K itself."""
        return self.gmatrix == ((self.field.one,),)

    # ---- message plumbing ----

    def _checked_indices(self, idx, shape):
        """idx as int64 (an int at shape ()), checked: integers (no bool or float) in [0, M)."""
        bad = f"point indices must be integers in [0, {self.size})"
        a = _checked_array(idx, shape, True, bad)
        if not (0 <= a < self.size if shape == () else ((a >= 0) & (a < self.size)).all()):
            raise InvalidArgument(bad)
        return a

    def message_residues(self, idx):
        """The messages of point indices idx (an int or int array), shaped idx.shape + (K, m*n):
        canonical residues of u modulo each p_k, slot-major, the digits (_places) of idx."""
        box, places = self._places
        a = self._checked_indices(idx, None)
        return (a[..., None] // places % box).reshape(*a.shape, len(self.primes), self.dimension)

    def _point(self, i):
        return CodePoint(i, self.message_from_index(i), tuple(self.coords_matrix[i].tolist()))

    @functools.cached_property
    def points(self):
        """Every CodePoint in message-index order, built on first use from one message_residues."""
        messages = self.message_residues(np.arange(self.size)).tolist()
        return tuple(CodePoint(i, Message(tuple(map(tuple, r))), tuple(c))
                     for i, (r, c) in enumerate(zip(messages, self.coords_matrix.tolist())))

    def _residue_index(self, k, res):
        """Index of w_{k+1} in (O_K/p_k)^m after checking it is canonical: integers (the one
        input rule, _checked_array) in the HNF box of every slot."""
        try:
            size = len(res)
        except TypeError:  # an int, None or another non-sequence
            size = None
        if size != self.dimension:
            raise InvalidArgument(f"w_{k+1} must be a sequence of {self.dimension} integers")
        box, places = (v[k * size:(k + 1) * size] for v in self._places)
        w = _checked_array(res, (size,), True, bad := f"w_{k+1} = {res} is not a canonical residue")
        if not ((w >= 0) & (w < box)).all():
            raise InvalidArgument(bad)
        return int(w @ places) // places[-self.field.n]  # over its least significant place

    def message_index(self, msg):
        return int(self.subcode_indices(range(1, len(self.primes) + 1), msg)[0])

    def representative(self, msg):
        """The CodePoint encoding this message."""
        return self._point(self.message_index(msg))

    def message_from_index(self, idx):
        i, (box, places) = int(self._checked_indices(idx, ())), self._places
        digits = iter([i // p % b for p, b in zip(places, box)])  # message_residues(i), as ints
        return Message(tuple(zip(*[digits] * self.dimension)))  # K tuples of m*n digits

    def zero_message(self):
        return Message(tuple((0,) * self.dimension for _ in self.primes))

    def _message_op(self, a, b, op):
        n, el = self.field.n, self.field.element
        return Message(tuple(
            tuple(v for r in range(0, len(ra), n)
                  for v in p.reduce(op(el(ra[r:r + n]), el(rb[r:r + n]))).coords)
            for ra, rb, p in zip(a.residues, b.residues, self.primes)))

    def message_add(self, a, b):
        return self._message_op(a, b, operator.add)

    def message_mul(self, a, b):
        return self._message_op(a, b, operator.mul)

    # ---- side information ----

    def check_side_info(self, s):
        """S as sorted distinct indices in 1..K; InvalidArgument for anything else."""
        if isinstance(s, (str, bytes)) or not hasattr(s, "__iter__"):
            raise InvalidArgument(f"side-information set {s!r} must be a collection of indices")
        s = tuple(s)
        if not all(_is_integer(k) for k in s):
            raise InvalidArgument(f"side-information set {list(s)} must hold integer "
                                  "message indices")
        s = tuple(sorted(set(int(k) for k in s)))
        if s and (s[0] < 1 or s[-1] > len(self.primes)):
            raise InvalidArgument(f"side-information set {s} not within 1..{len(self.primes)}")
        return s

    def side_lattice(self, s):
        """S's SideLattice: ideal J = prod_{k in S} p_k, basis H = kron(I_m, HNF(J)) spanning the u
        with every slot in J, gram H^T G2 H (read-only Python ints), lll (U, R) = lll_gram(gram)
        and minimum = shortest_nonzero(gram, lll)[0], the exact doubled lambda_S (a Python int)."""
        s = self.check_side_info(s)
        if s not in self._side:
            J = math.prod([self.primes[k - 1] for k in s], start=whole_ring(self.field))
            H = np.kron(np.eye(self.m, dtype=object), np.array(J.hnf, dtype=object))
            G = sublattice_gram(H, self.gram2)
            H.flags.writeable = G.flags.writeable = False
            lll = tuple(tuple(map(tuple, M)) for M in lll_gram(G))
            self._side[s] = SideLattice(J, H, G, lll, shortest_nonzero(G, lll)[0])
        return self._side[s]

    def side_ideal(self, s):
        """The ideal prod_{k in S} p_k (whole ring for empty S)."""
        return self.side_lattice(s).ideal

    def side_groups(self, s):
        """The message grid with S's axes first, as (G, M/G): row g holds the points whose w_S
        has index g (w_1 most significant), ascending."""
        ks = [k - 1 for k in self.check_side_info(s)]
        grid = np.moveaxis(self.message_grid, ks, range(len(ks)))
        return grid.reshape(math.prod(grid.shape[:len(ks)]), -1)

    def subcode_indices(self, s, fixed=None):
        """Points whose messages in S equal those of the Message fixed (default 0), ascending,
        its components in S checked: the message grid at w_S, in work of the group's size."""
        s, fixed = self.check_side_info(s), self.zero_message() if fixed is None else fixed
        if not isinstance(fixed, Message) or len(fixed.residues) != len(self.primes):
            raise InvalidArgument(f"need a Message with {len(self.primes)} components")
        at = [slice(None)] * len(self.primes)
        for k in s:
            at[k - 1] = self._residue_index(k - 1, fixed.residues[k - 1])
        return self.message_grid[tuple(at)].flatten()

    @functools.cached_property
    def point_index(self):
        """The code's PointLookup: point_index(u) is each row's point index, or -1."""
        return PointLookup(self.modulus, self.m, self.coords_matrix)

    # ---- code files ----

    def _file_header(self):
        """Everything a code file holds but its points."""
        if not self.is_plain:
            raise Unsupported("code files hold only m = 1 codes with the identity generator")
        return {
            "format": "latticedex-code-v1",
            "field": self.field.to_dict(),
            "primes": [ideal_to_dict(p) for p in self.primes],
            "modulus_hnf": [list(r) for r in self.modulus.hnf],
            "idempotents": [list(e.coords) for e in self.idempotents],
            "alphabet_sizes": list(self.alphabet_sizes),
            "gamma": self.gamma,
            "mean_energy": [self.mean_energy.numerator, self.mean_energy.denominator],
        }

    def to_dict(self):
        """The code file as a dict: what save_code writes and content_hash hashes."""
        return {**self._file_header(), "points": [
            dict(zip(_POINT_KEYS, row)) for row in zip(
                self.coords_matrix.tolist(), self.embedded.tolist(),
                self.message_residues(np.arange(self.size)).tolist())]}

    def content_hash(self):
        """SHA-256 of the compact, sorted-key JSON of the code file; computed
        once, the code is immutable."""
        if self._hash is None:
            digest = hashlib.sha256()
            for chunk in _canonical_json(self):
                digest.update(chunk.encode())
            self._hash = digest.hexdigest()
        return self._hash

    def __repr__(self):
        sizes = "x".join(str(v) for v in self.alphabet_sizes)
        return f"IndexCode({self.field.name}, {self.size} points, alphabets {sizes})"


def build_index_code(field, primes, gmatrix=None, *,
                     enumeration_cap=DEFAULT_ENUMERATION_CAP):
    """Build the index code for the given distinct prime ideals.

    gmatrix is an invertible m x m generator over O_K (ring elements or
    rational integers; default the 1x1 identity).  enumeration_cap limits
    the constellation size N(I)^m.
    """
    def enumerate_points(modulus, gram2, m):  # on the checked code, the cap first
        if (count := modulus.norm ** m) > enumeration_cap:
            raise Infeasible(f"constellation size {count} exceeds enumeration cap "
                             f"{enumeration_cap}")
        return _min_energy_representatives(modulus, gram2, m)
    return IndexCode(field, primes, enumerate_points, gmatrix)


def encode(code, msg):
    """Transmit vector gamma * Psi(representative of the message)."""
    return code.gamma * code.embedded[code.message_index(msg)]


def decode_point(code, x):
    """Message labels of an arbitrary algebraic integer: w_k = x mod p_k."""
    if not isinstance(x, AlgebraicInt):
        x = code.field.element(x)
    return Message(tuple(tuple(p.reduce(x).coords) for p in code.primes))


def subcode_points(code, s, fixed=None):
    """Constellation points consistent with side information w_S (default 0)."""
    return [code._point(i) for i in code.subcode_indices(s, fixed)]


def rate(code, s):
    """(1/n) * sum_{k in S} log2 N(p_k) in bits per dimension."""
    s = code.check_side_info(s)
    return sum(math.log2(code.primes[k - 1].norm) for k in s) / code.field.n


def _float_rows(values):
    """repr, as json prints a float, of each float of a 2-D array, in object
    arrays of _POINT_BLOCK rows; called once per bit pattern (0.0 and -0.0 differ)."""
    table = {}
    for i in range(0, values.shape[0], _POINT_BLOCK):
        keys, inverse = np.unique(values[i:i + _POINT_BLOCK].view(np.int64), return_inverse=True)
        text = [table.get(key) or table.setdefault(key, repr(value))
                for key, value in zip(keys.tolist(), keys.view(np.float64).tolist())]
        yield np.array(text, dtype=object)[inverse.reshape(-1, values.shape[1])]


def _point_blocks(code, *labels):
    """(first index, rows) of each block of _POINT_BLOCK points: an object array, a row per point
    of its int coordinates, float text (_float_rows) and text by labels[-1] (label % residue, a
    table per label and prime); given two labels, first its index and text by labels[0]."""
    k = len(code.primes)
    tables = [np.array([label % tuple(r[i]) for r in code.message_residues(np.moveaxis(
        code.message_grid, i, -1)[(0,) * (k - 1)]).tolist()], dtype=object)
        for label in labels for i in range(k)]
    for i, floats in zip(range(0, code.size, _POINT_BLOCK), _float_rows(code.embedded)):
        index = np.arange(i, i + len(floats))[:, None]
        text = [t[r] for t, r in zip(tables, np.unravel_index(index, code.alphabet_sizes) * 2)]
        index = [index] * (len(labels) > 1)  # a CSV's column, else freed before the concatenation
        yield i, np.concatenate(index + text[:-k] + [
            code.coords_matrix[i:i + _POINT_BLOCK], floats] + text[-k:], axis=1, dtype=object)


def _canonical_json(code, indent=None, csv=None):
    """The canonical JSON of a plain code's file in chunks; its points CSV goes to csv, if given.

    The text equals json.dumps(code.to_dict(), sort_keys=True) with
    separators (",", ":") (indent=None, what content_hash hashes) or with
    indent=1 and a newline (the file), but no file-sized dict or string is built.
    The header goes through json; the points are spliced in where "points"
    sorts, a block of _point_blocks at a time: each point from one %-template
    made by json from a point of placeholders, a block from one % of them.
    """
    seps = (",", ": ") if indent else (",", ":")
    dumps = functools.partial(json.dumps, sort_keys=True, indent=indent, separators=seps)
    key = dumps("points") + seps[1]
    head, tail = dumps({**code._file_header(), "points": 0}).split(key + "0")
    k, d = len(code.primes), code.dimension
    point = dumps(dict(zip(_POINT_KEYS, (["%d"] * d, ["%s"] * d, ["%s"] * k))))
    label = dumps(["%d"] * d).replace('"%d"', "%d")
    if indent:  # in the file a point nests 2 deep and each prime's label 4
        point, label = point.replace("\n", "\n  "), label.replace("\n", "\n    ")
        start, sep, end = "[\n  ", ",\n  ", "\n ]"
    else:
        start, sep, end = "[", ",", "]"
    point = point.replace('"%d"', "%d").replace('"%s"', "%s")
    if csv:  # a header, then per point: index, label "(w_1)|...|(w_K)", c and x
        csv.write(",".join(["index", "label", *(f"{c}{i}" for c in "cx" for i in range(d))]) + "\n")
        row = "%d," + "|".join(["%s"] * k) + ",%d" * d + ",%s" * d + "\n"
    yield head + key
    for i, args in _point_blocks(code, *["(" + " ".join(["%d"] * d) + ")"] * bool(csv), label):
        if csv:
            csv.write(row * len(args) % tuple(args[:, :-k].ravel().tolist()))
        yield sep if i else start
        yield sep.join([point] * len(args)) % tuple(args[:, -k - 2 * d:].ravel())
    yield end + tail
    yield "\n" if indent else ""  # alone, so a file cut short fails _canonical_code's compare


def save_code(code, path, points_csv=None):
    """Write the code file (the indent=1 sorted-key JSON of to_dict()) and points CSV if asked."""
    code._file_header()  # refuses a code that is not plain before either path is opened
    with (open(path, "a") if os.path.exists(path) else nullcontext(),  # first, not truncated
          open(points_csv, "w") if points_csv else nullcontext() as csv, open(path, "w") as fh):
        fh.writelines(_canonical_json(code, indent=1, csv=csv))


def load_code(path):
    """The code a code file defines; a file loads only if its JSON is the code's canonical JSON."""
    with open(path, encoding="utf-8") as fh:
        if code := _canonical_code(fh):
            return code
        fh.seek(0)
        try:  # not UTF-8, not JSON, nested too deep or an int of over 4300 digits
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise InvalidArgument(f"code file is not UTF-8 JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InvalidArgument("not a latticedex code file")
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(compact(doc).encode()).hexdigest()  # text freed before the build
    field, primes = _stored_primes(doc)
    try:  # IndexCode checks the coords
        coords = [pt["coords"] for pt in doc["points"]]
    except (KeyError, TypeError):
        raise InvalidArgument(f"points must be objects with {field.n} integer coords") from None
    try:  # in a file, a code IndexCode refuses is bad input, not a bug or too big a design
        code = IndexCode(field, primes, coords)
    except (Infeasible, InvariantViolation, Unsupported) as e:
        raise InvalidArgument(str(e)) from None
    if digest != code.content_hash():
        header = code._file_header()  # name the first key that differs, else points
        key = next((k for k in [*header, *doc] if k != "points"
                    and compact(doc.get(k)) != compact(header.get(k))), "points")
        raise InvalidArgument(f"stored {key} disagrees with the code the file defines")
    return code


def _int_rows(text):
    """The numbers of every "coords" list in text, as one int64 array."""
    found = _COORDS.findall(text)
    return np.array(",".join(found).split(",") if found else [], dtype=np.int64)


def _canonical_code(fh):
    """The code whose save_code text the text file fh holds, or None on any failure (load_code
    then decodes fh with json and says what is wrong).  fh is read twice, in blocks of _READ
    characters: pass 1 keeps the header (all but the points list, which ends at the last " ],"
    line) and parses the coordinates; pass 2 compares fh with the code's text."""
    head, rest, coords = None, "", []
    try:
        for block in iter(functools.partial(fh.read, _READ), ""):
            rest += block  # rest: from the start, or from the last point seen, which may go on
            if head is None:
                at = rest.find(_POINTS_KEY, max(0, len(rest) - len(block) - len(_POINTS_KEY)))
                if at >= 0:
                    head, rest = rest[:at + len(_POINTS_KEY)], rest[at + len(_POINTS_KEY):]
            elif (cut := rest.rfind('"coords"', max(1, len(rest) - len(block) - 7))) > 0:
                coords.append(_int_rows(rest[:cut]))
                rest = rest[cut:]
        end = rest.rfind("\n ],\n")
        if head is None or end < 0:
            return None
        header = head + "0" + rest[end + 3:]
        coords = np.concatenate([*coords, _int_rows(rest[:end])])
        doc = json.loads(header)
        if not isinstance(doc, dict) or json.dumps(doc, indent=1, sort_keys=True) + "\n" != header:
            return None
        field, primes = _stored_primes(doc)
        code = IndexCode(field, primes, coords.reshape(-1, field.n))
        del block, head, rest, coords, header, doc  # before pass 2
    except (ValueError, OverflowError, RecursionError, LatticedexError):
        return None
    fh.seek(0)  # compared in place; after a short read, the last chunk ("\n") reads "", as "\0"
    same = all(chunk.startswith(fh.read(min(_READ, len(chunk) - i)) or "\0", i)
               for chunk in _canonical_json(code, indent=1) for i in range(0, len(chunk), _READ))
    return code if same and not fh.read(1) else None


def _stored_primes(doc):
    """The field of a code file's dict and each prime as an ideal from its HNF alone."""
    field = field_from_dict(doc.get("field"))
    n = field.n
    try:  # a refused hnf (a ValueError) takes this message
        return field, [Ideal(field, _checked_array(d["hnf"], (n, n), True, "hnf").tolist())
                       for d in doc["primes"]]
    except (KeyError, TypeError, ValueError):
        raise InvalidArgument(f"primes must be objects with an {n}x{n} integer hnf") from None
