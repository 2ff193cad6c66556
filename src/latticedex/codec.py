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
finite-field operations are ring operations followed by reduction.

A plain code's file is the JSON of to_dict() with sorted keys: save_code
writes it with indent=1, and content_hash is the SHA-256 of its compact form.
Both stream the text from one emitter; code_from_dict checks a loaded file
against what the math requires, reading each prime from its HNF alone.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, InvalidArgument, InvariantViolation, Unsupported
from .numberfield import (
    AlgebraicInt,
    Ideal,
    field_from_dict,
    ideal_to_dict,
    prime_ideals_above,
    whole_ring,
)
from .numberfield.field import _is_integer
from .numberfield.linalg import (check_int64, column_max, det_int, mixed_radix, product_bounds,
                                 reduce_mod_hnf_batch, short_vectors, sublattice_gram)

DEFAULT_ENUMERATION_CAP = 10**6
_POINT_BLOCK = 1024  # points per chunk of the canonical JSON
_FILE_KEYS = ("field", "primes", "modulus_hnf", "idempotents", "alphabet_sizes", "gamma",
              "mean_energy", "points")  # read by code_from_dict besides "format"


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


def _slot_residues(ideal, coords, m):
    """(residues, index) of rows of slot-major coordinates modulo the ideal.

    residues holds the canonical residue of every slot, index the position
    in (O_K/ideal)^m with slot 0 the most significant mixed-radix digit.
    """
    n = ideal.field.n
    res = reduce_mod_hnf_batch(coords.reshape(-1, n), ideal.hnf)
    index = mixed_radix(ideal.residue_indices(res).reshape(-1, m), (ideal.norm,) * m)
    return res.reshape(-1, m * n), index


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
    count, dim = modulus.norm ** m, gram2.shape[0]
    log_covol = 0.5 * (math.log(det_int(gram2.tolist())) - dim * math.log(2.0))
    log_ball = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
    bound2 = 2.0 * math.exp(2.0 * (math.log(count) + log_covol - log_ball) / dim)
    while True:
        X, norms2 = short_vectors(gram2, bound2, include_zero=True)
        _, ridx = _slot_residues(modulus, X, m)
        keys = tuple(X[:, i] for i in range(X.shape[1] - 1, -1, -1)) + (norms2,)
        order = np.lexsort(keys)
        uniq, first = np.unique(ridx[order], return_index=True)
        if uniq.shape[0] == count:
            return X[order[first]]
        bound2 *= 2.0 ** (2.0 / dim)


class IndexCode:
    """Immutable index code on m copies of O_K; build with build_index_code.

    The constructor takes the field, the primes and one point per coset of
    I^m, and is the one place that checks the primes (_code_primes): built,
    loaded or made directly, a code holds tagged, distinct prime ideals.

    size is the number of points M, num_messages the number of messages K and
    dimension the real dimension m*n.  coords_matrix holds the slot-major
    power-basis coordinates of u, embedded the canonical embedding of the
    point G~ u, norms2 the exact doubled energies 2*|Psi(G~ u)|^2 and labels
    the messages, (M, K, m*n) canonical residues of u modulo each p_k.  The
    points biject with the cosets of I^m (checked), so idempotents holds e_k
    as the residue mod I of slot 0 of the point labelled 1 on p_k and 0 on
    every other prime.
    """

    def __init__(self, field, primes, coords, gmatrix=None):
        self.field = field
        self.gmatrix, self.basis, self.gram2 = _generator_lattice(field, gmatrix)
        self.primes = _code_primes(field, primes)
        self.m = m = len(self.gmatrix)
        self.modulus = functools.reduce(operator.mul, self.primes)
        self.alphabet_sizes = tuple(p.norm ** m for p in self.primes)
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

        # order points by row-major message index (w_1 slowest)
        labels, res_idx = zip(*(_slot_residues(p, coords, m) for p in self.primes))
        res_idx = np.stack(res_idx, axis=1)
        msg_index = mixed_radix(res_idx, self.alphabet_sizes)
        if not np.array_equal(np.bincount(msg_index, minlength=self.size), np.ones(self.size)):
            raise InvariantViolation("two points lie in the same coset of I")
        order = np.argsort(msg_index)
        self.coords_matrix = coords[order]
        self.residue_indices = res_idx[order]
        self.labels = np.stack(labels, axis=1)[order]
        X = self.coords_matrix
        self.norms2 = np.einsum("ij,jk,ik->i", X, self.gram2, X)
        n = field.n
        points = (X @ self.basis.T).reshape(-1, n).astype(np.float64)
        self.embedded = (points @ field.embed_matrix.T).reshape(self.size, m * n)
        # e_k is 1 mod p_k and 0 mod the other primes: slot 0 of the point whose
        # message is 1 on p_k and 0 on the others, as its residue mod I
        one, zero = field.one.coords * m, (0,) * self.dimension
        units = [Message(tuple(one if j == k else zero for j in range(len(self.primes))))
                 for k in range(len(self.primes))]
        self.idempotents = tuple(
            self.modulus.reduce(field.element(self.coords_matrix[self.message_index(w)][:n]))
            for w in units)

        total = int(self.norms2.sum())
        if total <= 0:
            raise InvariantViolation("constellation has no energy")
        self.mean_energy = Fraction(total, 2 * self.size)
        self.gamma = 1.0 / math.sqrt(total / (2.0 * self.size))
        self._hash = None

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

    def _point(self, i):
        labels = tuple(map(tuple, self.labels[i].tolist()))
        return CodePoint(i, Message(labels), tuple(self.coords_matrix[i].tolist()))

    @functools.cached_property
    def points(self):
        """Every CodePoint in message-index order, built on first use."""
        return tuple(self._point(i) for i in range(self.size))

    def _residue_index(self, k, res):
        """Index of w_{k+1} in (O_K/p_k)^m after checking it is canonical."""
        p, n = self.primes[k], self.field.n
        try:
            size = len(res)
        except TypeError:  # an int, None or another non-sequence
            size = None
        if size != self.dimension:
            raise InvalidArgument(f"w_{k+1} must be a sequence of {self.dimension} integers")
        if any(not (_is_integer(v) and 0 <= v < p.hnf[i % n][i % n])
               for i, v in enumerate(res)):
            raise InvalidArgument(f"w_{k+1} = {res} is not a canonical residue")
        return int(_slot_residues(p, np.array(res, dtype=np.int64), self.m)[1][0])

    def message_index(self, msg):
        return int(self.side_index(range(1, len(self.primes) + 1), msg)[0])

    def representative(self, msg):
        """The CodePoint encoding this message."""
        return self._point(self.message_index(msg))

    def message_from_index(self, idx):
        return self._point(idx).message

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
        s = tuple(s)
        if not all(_is_integer(k) for k in s):
            raise InvalidArgument(f"side-information set {list(s)} must hold integer "
                                  "message indices")
        s = tuple(sorted(set(int(k) for k in s)))
        if s and (s[0] < 1 or s[-1] > len(self.primes)):
            raise InvalidArgument(f"side-information set {s} not within 1..{len(self.primes)}")
        return s

    def side_ideal(self, s):
        """The ideal prod_{k in S} p_k (whole ring for empty S)."""
        s = self.check_side_info(s)
        ideal = whole_ring(self.field)
        for k in s:
            ideal = ideal * self.primes[k - 1]
        return ideal

    def side_basis(self, s):
        """kron(I_m, HNF(J)), J = prod_{k in S} p_k, in Python ints: integer
        columns, in the coordinates of u, spanning the u with every slot in J."""
        H = np.array(self.side_ideal(s).hnf, dtype=object)
        return np.kron(np.eye(self.m, dtype=object), H)

    def side_sublattice_gram(self, s):
        """Doubled Gram of the u-sublattice with every slot in prod_{k in S} p_k,
        exact (an object array of Python ints)."""
        return sublattice_gram(self.side_basis(s), self.gram2)

    def side_index(self, s, msg=None):
        """Index of w_S among the messages on S (w_1 most significant): of
        every point, or one row for the Message msg, whose components in S
        are checked."""
        ks = [k - 1 for k in self.check_side_info(s)]
        if msg is None:
            digits = self.residue_indices[:, ks]
        elif not isinstance(msg, Message) or len(msg.residues) != len(self.primes):
            raise InvalidArgument(f"need a Message with {len(self.primes)} components")
        else:
            digits = np.array([[self._residue_index(k, msg.residues[k]) for k in ks]],
                              dtype=np.int64)
        return mixed_radix(digits, [self.alphabet_sizes[k] for k in ks])

    def subcode_indices(self, s, fixed=None):
        """Points whose messages in S equal those of the Message fixed (default 0)."""
        want = 0 if fixed is None else self.side_index(s, fixed)[0]
        return np.flatnonzero(self.side_index(s) == want)

    @functools.cached_property
    def _coset_points(self):
        """Point index of each coset of I^m by its index in (O_K/I)^m: an inverse permutation."""
        return np.argsort(_slot_residues(self.modulus, self.coords_matrix, self.m)[1])

    def point_index(self, u):
        """Point index of every row of an (N, m*n) int64 coordinate array, or -1
        where the point stored for the row's coset of I^m is not the row."""
        idx = self._coset_points[_slot_residues(self.modulus, u, self.m)[1]]
        return np.where((self.coords_matrix[idx] == u).all(axis=1), idx, -1)

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
            _point_dict(*row) for row in zip(
                self.coords_matrix.tolist(), self.embedded.tolist(), self.labels.tolist())]}

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
    gmatrix, _, gram2 = _generator_lattice(field, gmatrix)
    primes = _code_primes(field, primes)
    modulus = functools.reduce(operator.mul, primes)
    count = modulus.norm ** len(gmatrix)
    if count > enumeration_cap:
        raise Infeasible(f"constellation size {count} exceeds enumeration cap {enumeration_cap}")
    coords = _min_energy_representatives(modulus, gram2, len(gmatrix))
    return IndexCode(field, primes, coords, gmatrix)


def encode(code, msg):
    """Transmit vector gamma * Psi(representative of the message)."""
    pt = code.representative(msg)
    return code.gamma * code.embedded[pt.index]


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


def _point_dict(coords, embedded, label):
    """One point of a code file."""
    return {"coords": coords, "embedded": embedded, "label": label}


def _canonical_json(code, indent=None):
    """The canonical JSON of a plain code's file, in chunks.

    The text equals json.dumps(code.to_dict(), sort_keys=True) with
    separators (",", ":") (indent=None, what content_hash hashes) or with
    indent=1 (the file layout), but no file-sized dict or string is built.
    The header goes through json; the points are spliced in where "points"
    sorts, a block of rows at a time, each point from one %-template
    made by json from a point of placeholders: %d prints an int and %r a
    finite float as json does.
    """
    seps = (",", ": ") if indent else (",", ":")
    dumps = functools.partial(json.dumps, sort_keys=True, indent=indent, separators=seps)
    key = dumps("points") + seps[1]
    head, tail = dumps({**code._file_header(), "points": 0}).split(key + "0")
    k, d = code.labels.shape[1:]
    point = dumps(_point_dict(["%d"] * d, ["%r"] * d, [["%d"] * d] * k))
    point = point.replace('"%d"', "%d").replace('"%r"', "%r")
    if indent:
        point = point.replace("\n", "\n  ")
        start, sep, end = "[\n  ", ",\n  ", "\n ]"
    else:
        start, sep, end = "[", ",", "]"
    yield head + key
    labels = code.labels.reshape(code.size, k * d)
    for i in range(0, code.size, _POINT_BLOCK):
        rows = zip(code.coords_matrix[i:i + _POINT_BLOCK].tolist(),
                   code.embedded[i:i + _POINT_BLOCK].tolist(),
                   labels[i:i + _POINT_BLOCK].tolist())
        yield (sep if i else start) + sep.join([point % (*c, *e, *w) for c, e, w in rows])
    yield end + tail


def save_code(code, path):
    """Write the code file: the indent=1, sorted-key JSON of to_dict()."""
    with open(path, "w") as fh:
        fh.writelines(_canonical_json(code, indent=1))
        fh.write("\n")


def load_code(path):
    with open(path) as fh:
        doc = json.load(fh)
    return code_from_dict(doc)


def _leaves(rows, shape, kind):
    """rows as an array of the given shape, or None unless rows is nested lists
    of exactly that shape whose values all have type kind, int (within int64)
    or float.  Types are compared, not values: True == 1 and 0 == 0.0."""
    values = [rows]
    for size in shape:
        if set(map(type, values)) != {list} or set(map(len, values)) != {size}:
            return None
        values = list(itertools.chain.from_iterable(values))
    if set(map(type, values)) != {kind}:
        return None
    try:
        return np.array(values, dtype=np.int64 if kind is int else np.float64).reshape(shape)
    except OverflowError:
        return None


def code_from_dict(doc):
    """The code stored in a code file's dict, checked against what the math
    requires; anything malformed or inconsistent raises InvalidArgument.

    Types and shapes are checked here.  Each stored prime becomes an
    untagged ideal from its HNF alone; IndexCode checks the primes (prime,
    distinct, tagged) and the points (one per coset of I, coordinates safe
    for int64 work), and the stored values are compared with what it
    recomputes."""
    if not isinstance(doc, dict) or doc.get("format") != "latticedex-code-v1":
        raise InvalidArgument("not a latticedex code file")
    missing = [key for key in _FILE_KEYS if key not in doc]
    if missing:
        raise InvalidArgument(f"code file lacks {', '.join(missing)}")
    points = doc["points"] if isinstance(doc["points"], list) else None
    try:
        rows, embedded, labels = ([pt[key] for pt in points]
                                  for key in ("coords", "embedded", "label"))
    except (KeyError, TypeError):
        raise InvalidArgument("points must be a list of objects with "
                              "coords, embedded and label") from None
    if type(doc["gamma"]) is not float:
        raise InvalidArgument("gamma must be a number")
    field = field_from_dict(doc["field"])
    n = field.n
    stored = doc["primes"] if isinstance(doc["primes"], list) else [None]
    hnfs = [d.get("hnf") if isinstance(d, dict) else None for d in stored]
    if any(_leaves(h, (n, n), int) is None for h in hnfs):
        raise InvalidArgument(f"primes must be a list of objects with an {n}x{n} integer hnf")
    coords = _leaves(rows, (len(rows), n), int)
    if coords is None:
        raise InvalidArgument(f"point coordinates must be {n} integers within int64")
    try:  # in a file, a code IndexCode refuses is bad input, not a bug or too big a design
        code = IndexCode(field, [Ideal(field, h) for h in hnfs], coords)
    except (Infeasible, InvariantViolation, Unsupported) as e:
        raise InvalidArgument(str(e)) from None
    header = code._file_header()
    for key in ("primes", "modulus_hnf", "idempotents", "alphabet_sizes", "mean_energy"):
        if json.dumps(doc[key], sort_keys=True) != json.dumps(header[key], sort_keys=True):
            raise InvalidArgument(f"stored {key} disagrees with the primes and points")
    if not np.array_equal(_leaves(labels, code.labels.shape, int), code.labels):
        raise InvalidArgument("stored labels disagree with recomputed residues")
    if not abs(code.gamma - doc["gamma"]) <= 1e-12 * code.gamma:
        raise InvalidArgument("stored gamma disagrees with recomputed normalization")
    values = _leaves(embedded, code.embedded.shape, float)
    scale = max(1.0, float(np.abs(code.embedded).max()))
    if values is None or not np.abs(values - code.embedded).max() <= 1e-9 * scale:
        raise InvalidArgument("stored embedding disagrees with recomputed points")
    return code
