"""Monte-Carlo symbol error rates with side-information-restricted ML detection.

Channel model: y = sqrt(snr) * h.x + z with unit-average-energy codewords,
noise variance 1/n per real dimension, and (optionally) Rayleigh fades of
unit second moment per real coordinate, or per place of K (fade_per_complex).
Trials run in fixed chunks of 4096 with a counter-based generator keyed by
(seed, point index, chunk index), so results are bit-identical across runs
and across worker counts: chunks are always consumed in index order and the
stop rule is applied in that order.  With more than one worker (at most
_CPU_WORKERS per core), every code runs on one process pool kept across calls.
Workers forked during a call inherit its context; older ones load it once from
a file in the temp directory (TMPDIR applies), which the call then removes, and
unpickle it only if it is the file the call made.  An idle kept worker holds
the last call's context until the next call or the interpreter's exit.

Detection is exact ML over the points that agree with the side information,
a coset x_g + Psi(G~ I_S^m) of the constellation, on every code (any m and
generator G~).  These cosets, the groups, all hold the same number of points,
so each is a row of one table (_groups): run_sim's is the message grid with
S's axes first (IndexCode.side_groups), ml_detect's the one row it decides.
Its weights W are the detector's only float copy of the points; a candidate
scores a trial's features times its column of W (_features).  Groups of at
least _SEARCH_MIN points are decided by a batched sphere search (_search)
around each trial's Babai point, in a reduced basis of that side sublattice
with the trial's fade folded in and IndexCode.point_index telling which
lattice points the code stores: the one Fincke-Pohst search
(linalg.fp_search), also behind short_vectors.  The trials it cannot settle,
and all trials of smaller groups, go to brute force (_brute), the oracle of
the tests: one matrix product per tile of trials; a one-point group needs no
score.  The search holds at most _SEARCH_ROWS rows per level for a tile of
_SEARCH_TILE trials, and brute force scores in row tiles of at most
_TILE_BYTES of float64 scores, so a chunk's memory is bounded independently of
the constellation size.  The two paths sum the same products in different
orders, so they could part only on candidates whose scores agree to rounding;
the tests check them trial by trial against an untiled oracle.  A trial whose y
lies far enough inside half its group's minimum distance of the sent point is its
own ML decision, proven by _open, and never reaches the detector.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidArgument, Unsupported
from .numberfield.field import _is_integer
from .numberfield.linalg import check_int64, column_max, fp_search, product_bounds

CHUNK = 4096
_TILE_BYTES = 1 << 20  # the one score tile fits a 2 MiB per-core L2 cache
_SEARCH_MIN = 1024  # group size from which _search decides; 1.5-2.5x _brute's time at 1331
_SEARCH_TILE = 2048  # trials per search tile
_SEARCH_ROWS = 1 << 15  # rows a search tile may hold at one level
_TASK_CHUNKS = 4  # chunks per task of run_sim's sweep loop
_CPU_WORKERS = 4  # workers per core resolve_workers allows: a pool starts all of them at once
_RAYLEIGH_SCALE = 1.0 / math.sqrt(2.0)  # E[h^2] = 1
_Z95 = 1.959963984540054
_U = np.finfo(np.float64).eps / 2  # unit roundoff


@dataclass(frozen=True)
class SimPoint:
    snr_db: float
    errors: int
    trials: int
    ser: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SimResult:
    label: str
    channel: str
    side_info: tuple
    seed: int
    code_hash: str
    config_digest: str
    points: tuple


@dataclass
class SimConfig:
    code: object
    channel: str
    snr_db: tuple
    side_info: tuple = ()
    min_errors: int = 10_000
    max_trials: int = 100_000_000
    seed: int = 0
    workers: int | None = None
    fade_per_complex: bool = False
    label: str = "run"

    def __post_init__(self):
        if not self.code.is_plain:
            raise Unsupported("simulation needs an m = 1 code with the identity generator")
        vars(self).update(check_sweep(self))
        self.side_info = self.code.check_side_info(self.side_info)
        # numpy's normal and Rayleigh draws stay below 64 and 8 in magnitude
        snr, pmax = self.snr_db[-1], self.code.gamma * math.sqrt(int(self.code.norms2.max()) / 2)
        if (room := _score_room(self.code.dimension, 10.0 ** (snr / 20.0), 8.0, 64.0, pmax)) < 1:
            raise InvalidArgument(f"snr {snr!r} dB is past {snr + 20.0 * math.log10(room):.2f} "
                                  "dB, where detector scores could overflow")

    def digest(self):
        """12 hex digits of SHA-256 of the settings but workers, the code's hash and CHUNK."""
        doc = {**vars(self), "code": self.code.content_hash(), "chunk": CHUNK}
        del doc["workers"]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]


def _score_room(dim, a, hmax, zmax, pmax):
    """How far B may still grow, at least 1 while no detector score can overflow: if |h_j| <=
    hmax, |y_j| <= a*hmax*pmax + zmax, |P| <= pmax and search basis entries |b_i| <= pmax, each
    factor detection multiplies (a, h_j, y_j, P_j, a*h_j*P_j, a*h*b, ...) is at most B = max(a, 1)
    max(hmax, 1) max(pmax, 1) + a*hmax*pmax + zmax, and 2B for _open's a*hmin*d (d <= 2 pmax).
    A score sums 2 dim + 1 products of at most 2 B^2, a squared radius dim^2 of at most B^2 / 4
    and an _open term at most 8 B^2: all are finite while (4 dim^2 + 2) B^2 <= 2^1023, dim > 1."""
    grow = max(a, 1.0) * max(hmax, 1.0) * max(pmax, 1.0) + a * hmax * pmax + zmax
    return math.sqrt(2.0 ** 1023 / (4 * dim * dim + 2)) / grow


def check_sweep(settings):
    """The sweep settings that need no code (channel, snr_db, min_errors, max_trials, seed and
    workers of settings), checked: a dict, the grid a tuple of floats and counts Python ints."""
    if settings.channel not in ("awgn", "rayleigh"):
        raise InvalidArgument(f"unknown channel {settings.channel!r}")
    grid = settings.snr_db
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in grid):
        raise InvalidArgument(f"snr values must be numbers, got {list(grid)!r}")
    grid = tuple(map(float, grid))
    if not grid:
        raise InvalidArgument("snr grid is empty")
    try:  # a linear power past the largest float raises OverflowError
        finite = all(math.isfinite(v) and math.isfinite(10.0 ** (v / 10.0)) for v in grid)
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidArgument("snr values and their linear powers 10^(snr/10) must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidArgument("snr grid must be strictly increasing")
    out = {"snr_db": grid}
    for name, least in (("min_errors", 1), ("max_trials", 1), ("workers", 1), ("seed", 0)):
        v = getattr(settings, name)
        if not (name == "workers" and v is None or _is_integer(v) and v >= least):  # None: auto
            raise InvalidArgument(f"{name} must be an integer of at least {least}, got {v!r}")
        out[name] = v if v is None else int(v)
    return out


def resolve_workers(requested):
    """Worker count after the LATTICEDEX_THREADS cap (None = auto-detect);
    more than _CPU_WORKERS per core is refused."""
    cap = os.environ.get("LATTICEDEX_THREADS")
    if cap and not (cap.strip().isdecimal() and int(cap) >= 1):
        raise InvalidArgument("LATTICEDEX_THREADS must be a positive integer")
    n = requested if requested is not None else (os.cpu_count() or 1)
    if cap:
        n = min(n, int(cap))
    if n > _CPU_WORKERS * (os.cpu_count() or 1):
        raise Infeasible(f"{n} workers exceed {_CPU_WORKERS} per core")
    return max(n, 1)


def confidence_interval(errors, trials):
    """95% interval: normal approximation, Wilson when errors < 30."""
    p = errors / trials
    if errors >= 30:
        half = _Z95 * math.sqrt(p * (1.0 - p) / trials)
        return (max(p - half, 0.0), min(p + half, 1.0))
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # center-half is analytically 0 (resp. 1) at the endpoints; kill float dust
    return (0.0 if errors == 0 else max(center - half, 0.0),
            1.0 if errors == trials else min(center + half, 1.0))


# ============================================================
# Chunk engine
# ============================================================


def _groups(code, s, cand):
    """What detection reads of the code on S for the groups in the rows of cand (each row a
    group's point indices, ascending): cand; the weights W, row g [P*P; P; |P|^2] of group
    g's unit-energy points P; rank, each point's column there; lattice, _search_lattice's."""
    n = code.dimension
    W = np.empty((cand.shape[0], 2 * n + 1, cand.shape[1]))  # filled in place
    W[:, n:2 * n] = (code.gamma * code.embedded[cand]).transpose(0, 2, 1)  # unit average energy
    np.multiply(W[:, n:2 * n], W[:, n:2 * n], out=W[:, :n])
    W[:, :n].sum(axis=1, out=W[:, 2 * n])
    rank = np.zeros(code.size, dtype=np.min_scalar_type(cand.shape[1] - 1))
    rank[cand] = np.arange(cand.shape[1])
    return {"cand": cand, "W": W, "rank": rank, "lattice": _search_lattice(code, s, cand)}


def _search_lattice(code, s, cand):
    """What _search reads of the side sublattice, or None when its groups (the rows
    of cand) are below _SEARCH_MIN points and brute force decides every group of S.

    basis holds the LLL-reduced basis H U of code.side_lattice(s), the u with every slot in
    I_S, as integer columns in the coordinates of u, and ebasis the unit-energy embedding of
    the points G~ u they give.  Two points of the constellation differ by at most span in each
    coordinate, so bound caps |v_i| for every point of a group written as its first point plus
    basis @ v; that bound and the largest |coordinate| prove once that _search's int64 points fit.
    """
    if cand.shape[1] < _SEARCH_MIN:
        return None
    side = code.side_lattice(s)
    basis = side.basis @ np.array(side.lll[0], dtype=object)
    points = (code.basis.astype(object) @ basis).astype(np.float64)  # G~ basis, exact ints
    basis = basis.astype(np.int64)
    span = np.ptp(code.coords_matrix, axis=0).astype(np.float64)
    bound = np.floor(np.abs(np.linalg.inv(basis)) @ span * (1.0 + 1e-9)) + 1.0
    check_int64([c + b for c, b in zip(column_max(code.coords_matrix),
                                       product_bounds(basis, bound.tolist()))],
                "a point of the sphere search")
    return {
        "basis": basis,
        "ebasis": code.gamma * (np.kron(np.eye(code.m), code.field.embed_matrix) @ points),
        "bound": bound,
        "lookup": code.point_index,
    }


def _build_ctx(config):
    """Read-only arrays shared by every chunk of a sweep: cand, the message grid with S's axes
    first (IndexCode.side_groups); pid, each point's group; _groups; ball, d from lambda_S."""
    code, field, s = config.code, config.code.field, config.side_info
    cand = code.side_groups(s)
    # small ints: _brute's stable argsort of a chunk's groups is a radix sort
    pid = np.empty(code.size, dtype=np.min_scalar_type(cand.shape[0] - 1))
    pid[cand] = np.arange(cand.shape[0])[:, None]
    n, gamma = field.n, code.gamma
    delta = ((42 * n + 2) * math.sqrt(n) * _U * gamma * np.abs(field.embed_matrix).max()
             * sum(column_max(code.coords_matrix)))  # bounds every |u|_1 with no |u| copy
    lam = code.side_lattice(s).minimum if cand.shape[1] > 1 else math.inf
    d = gamma * math.sqrt(lam / 2) * (1.0 - 8.0 * _U) - 2.0 * delta
    return {
        "channel": config.channel,
        "seed": config.seed,
        "fade_columns": field.places if config.fade_per_complex else np.arange(field.n),
        "n": field.n,
        "noise_sigma": math.sqrt(1.0 / field.n),
        "amps": [math.sqrt(10.0 ** (v / 10.0)) for v in config.snr_db],
        "pid": pid,
        "ball": (gamma * math.sqrt(int(code.norms2.max()) / 2) * (1.0 + 4.0 * _U) + delta, d),
        **_groups(code, s, cand),
    }


def _draw_fades(ctx, rng):
    """(CHUNK, n) Rayleigh fades, coordinate j taking draw fade_columns[j]; no copy if 1:1."""
    cols = ctx["fade_columns"]
    draws = rng.rayleigh(scale=_RAYLEIGH_SCALE, size=(CHUNK, int(cols[-1]) + 1))
    return draws if draws.shape[1] == cols.shape[0] else draws[:, cols]


def _draw_chunk(ctx, point_idx, chunk_idx, open_only=False):
    """(sent point indices, received y, fades h or None) of a chunk, or of its open trials; pure."""
    ss = np.random.SeedSequence(ctx["seed"], spawn_key=(point_idx, chunk_idx))
    rng = np.random.Generator(np.random.Philox(ss))
    a, n = ctx["amps"][point_idx], ctx["n"]

    raw = rng.integers(0, ctx["pid"].shape[0], size=CHUNK)  # one pid per point
    z = rng.standard_normal((CHUNK, n)) * ctx["noise_sigma"]
    h = _draw_fades(ctx, rng) if ctx["channel"] == "rayleigh" else None
    if open_only:
        keep = np.flatnonzero(_open(ctx, a, z, h))
        raw, z, h = raw[keep], z[keep], None if h is None else h[keep]

    tx = ctx["W"][ctx["pid"][raw], n:2 * n, ctx["rank"][raw]]  # the sent points, unit energy
    y = a * (h * tx if h is not None else tx) + z
    return raw, y, h


@np.errstate(invalid="ignore")  # 0*inf, a zero fade on a one-point group: kept open
def _open(ctx, a, z, h):
    """The trials of a chunk that can err: all but those proven to be decided as sent.

    Two stored points of a group are d apart or more: gamma*sqrt(lambda/2), lambda the exact
    side_lattice(s).minimum, less 8 ulps and twice delta, the farthest a stored point lies
    from its exact place (embedding entries within 40n ulps of the largest, n + 2 more from
    the product with u and gamma); d = inf on one point, and pmax bounds every |P|.  With P
    sent, Q another point, r = y - a*h.P and D = a*h.(P - Q), Q's score exceeds P's by
    |r + D|^2 - |r|^2 >= |D| (|D| - 2|r|) >= x (x - 2*rho) once x = a*hmin*d exceeds 2*rho, hmin
    the smallest fade (1 on AWGN), rho >= |r| (|z| plus y's rounding).  A = a*hmax*pmax bounds
    every |a*h.Q| and |y| - rho, so a score X @ W (_features) sums terms of at most A (3A + 2*rho)
    in all, rounded 2n + 4 times at most in _brute's product and _search's einsum alike: that
    many ulps of it bound its error eps.  Where x (x - 2*rho) > 2*eps, 8 ulps more for this
    test's own rounding, P's computed score is the strict least on every path.
    """
    (pmax, d), n = ctx["ball"], ctx["n"]
    zz = sum(c * c for c in z.T)  # by columns: numpy reduces short rows slowly
    lo, hi = (1.0, 1.0) if h is None else (functools.reduce(np.minimum, h.T),
                                           functools.reduce(np.maximum, h.T))
    A = (a * pmax) * hi
    rho = np.sqrt(zz) * (1.0 + (n + 3) * _U) + 4.0 * _U * A
    x = (a * d) * lo
    return ~(x * (x - 2.0 * rho) > (4 * n + 16) * _U * A * (3.0 * A + 2.0 * rho))


def _features(a, y, h):
    """(X, rows): each trial's features X, and the rows of W that give a candidate P its
    score, X @ W[g][rows] = |y - a*h*P|^2 - |y|^2: X = [-2a*y, a*a] against [P; |P|^2]
    (AWGN) or X = [a*a*h*h, -2a*y*h] against [P*P; P] (Rayleigh)."""
    if h is None:
        return np.hstack([(-2.0 * a) * y, np.full((y.shape[0], 1), a * a)]), slice(y.shape[1], None)
    return np.hstack([(a * a) * (h * h), (-2.0 * a) * (y * h)]), slice(0, 2 * y.shape[1])


def _brute(ctx, a, y, h, pids):
    """ML decision (point index) for every row of y by scoring it against
    every candidate of its side-information group; the oracle of _search.

    Each tile is one product X @ W[g][rows] (_features).  Trials are put in
    group order once and scored in tiles of at most _TILE_BYTES of float64
    scores in one reused buffer, so memory does not grow with the constellation
    size.  Ties go to the first candidate; a one-point group needs no score.
    """
    cand, W = ctx["cand"], ctx["W"]
    groups, size = cand.shape
    if size == 1 or not pids.shape[0]:
        return cand[pids, 0]
    X, rows = _features(a, y, h)
    order = slice(None) if groups == 1 else np.argsort(pids, kind="stable")
    X, pids = X[order], pids[order]  # views when there is one group
    bounds = np.flatnonzero(np.r_[True, pids[1:] != pids[:-1], True]).tolist()
    tile = max(1, _TILE_BYTES // (8 * size))
    buf = np.empty((min(tile, X.shape[0]), size))
    det = np.empty(X.shape[0], dtype=np.int64)
    for g, start, stop in zip(pids[bounds[:-1]], bounds, bounds[1:]):
        for lo in range(start, stop, tile):
            hi = min(lo + tile, stop)
            score = buf[:hi - lo]
            np.matmul(X[lo:hi], W[g, rows], out=score)
            det[lo:hi] = cand[g][np.argmin(score, axis=1)]
    det[order] = det.copy()  # back to trial order
    return det


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # a degenerate fade: see below
def _search(ctx, a, y, h, pids):
    """ML decision (point index) for every row of y, or -1 where the sphere
    search cannot settle it; one tile of at most _SEARCH_TILE trials.

    The group of a trial is the coset x_g + Psi(G~ I_S^m), x_g its first point.
    Each trial's fade is folded into the basis (a*h*Psi(basis) = Q R), and
    its radius is the distance from y to its Babai (nearest-plane) point.
    linalg.fp_search, which also enumerates short vectors, finds every
    lattice point of the coset inside that radius; a point is a candidate
    when the code stores it (IndexCode.point_index), and its score is the
    trial's features times its column of W[g] (_features).  The nearest
    stored point is within the radius whenever any stored point is, so the
    decision is exact ML.  A trial is left unsettled (-1) when no stored
    point lies inside its radius (y beyond the shaping region) or fp_search
    drops it: its fade makes the basis degenerate (a non-finite center or
    room), or it has the most rows at a level over _SEARCH_ROWS.
    """
    lat, W, rank = ctx["lattice"], ctx["W"], ctx["rank"]
    t, n = y.shape
    first = W[pids, n:2 * n, 0]  # x_g at unit energy
    basis = a * lat["ebasis"][None] if h is None else a * h[:, :, None] * lat["ebasis"]
    Q, R = np.linalg.qr(basis)
    w = ((y - a * (first if h is None else h * first))[:, None, :] @ Q)[:, 0]
    R = np.broadcast_to(R, (t, n, n))
    radius2 = np.zeros(t)
    babai = w.copy()
    for i in range(n - 1, -1, -1):  # nearest plane: round each level's center
        c = babai[:, i] / R[:, i, i]
        v = np.rint(c)
        radius2 += (R[:, i, i] * (c - v)) ** 2
        babai[:, :i] -= R[:, :i, i] * v[:, None]
    tr, V, _ = fp_search(R, w, radius2, lat["bound"], _SEARCH_ROWS)
    lookup = lat["lookup"]
    idx = lookup(lookup.coords[ctx["cand"][pids[tr], 0]] + V @ lat["basis"].T)
    tr, idx = tr[idx >= 0], idx[idx >= 0]
    det = np.full(t, -1, dtype=np.int64)
    if tr.shape[0]:
        X, rows = _features(a, y, h)
        score = np.einsum("ij,ij->i", X[tr], W[pids[tr], rows, rank[idx]])
        starts = np.flatnonzero(np.r_[True, tr[1:] != tr[:-1]])  # rows stay in trial order
        low = np.repeat(np.minimum.reduceat(score, starts), np.diff(np.r_[starts, tr.shape[0]]))
        det[tr[starts]] = np.minimum.reduceat(np.where(score == low, idx, rank.shape[0]), starts)
    return det


def _detect(ctx, a, y, h, pids):
    """ML decision (point index) for every row of y, given its side-information group.

    Groups of at least _SEARCH_MIN points are searched (_search) in tiles of
    _SEARCH_TILE trials; the trials the search leaves unsettled, and every
    trial of smaller groups, are scored by _brute.  Memory does not grow with
    the constellation size on either path, and ties go to the lowest index.
    """
    lat = ctx["lattice"]
    if lat is None:
        return _brute(ctx, a, y, h, pids)
    det = np.empty(y.shape[0], dtype=np.int64)
    for lo in range(0, y.shape[0], _SEARCH_TILE):
        rows = slice(lo, lo + _SEARCH_TILE)
        det[rows] = _search(ctx, a, y[rows], None if h is None else h[rows], pids[rows])
    rest = np.flatnonzero(det < 0)
    if rest.shape[0]:
        det[rest] = _brute(ctx, a, y[rest], None if h is None else h[rest], pids[rest])
    return det


def _run_chunk(ctx, point_idx, chunk_idx):
    """Errors of one fixed-size chunk, pure in its arguments: _detect's on the trials that can
    err (_open), as every other one is decided as sent on _search's path and _brute's alike."""
    raw, y, h = _draw_chunk(ctx, point_idx, chunk_idx, open_only=True)
    det = _detect(ctx, ctx["amps"][point_idx], y, h, ctx["pid"][raw])
    return int(np.count_nonzero(det != raw))


def _run_chunks(ctx, point_idx, c0, c1, need):
    """Error counts of chunks c0..c1-1 of a point, up to the one where they reach need."""
    counts = []
    for chunk_idx in range(c0, c1):
        counts.append(_run_chunk(ctx, point_idx, chunk_idx))
        if sum(counts) >= need:
            break
    return counts


_CALL = (None, None)  # (key, context): a pool worker's last call, in the caller the running one
_KEPT = (None, None, None)  # (pid, workers, executor): the pool kept across calls
_KEPT_LOCK = threading.Lock()
_KEYS = itertools.count()  # one key per pooled call, never reused in the process


def _pool_chunks(key, path, ident, *task):
    """_run_chunks in a pool worker on call key's context, inherited through fork or loaded
    from path once.  Only the call's own file is unpickled: this user's, with ident as its
    (st_dev, st_ino).  A surplus task that outlives its call may find the path gone or
    remade by anyone with the temp directory's access; it fails before reading."""
    global _CALL
    if _CALL[0] != key:
        _CALL = None, None  # drop the last context before loading the next
        # O_NOFOLLOW: no symlink is followed; O_NONBLOCK: a FIFO at the path does not block
        with open(os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK), "rb") as fh:
            st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino, st.st_uid) != (*ident, os.geteuid()):
                raise FileNotFoundError(f"the context file of call {key} is gone from {path}")
            _CALL = key, pickle.load(fh)
    return _run_chunks(_CALL[1], *task)


def _sweep(config, submit, ahead):
    """(errors, chunks) of every SNR point; see run_sim.  submit(point, c0, c1,
    need) returns a function that gives the task's error counts."""
    last = -(-config.max_trials // CHUNK)  # a point's chunk count at max_trials
    errors, chunks = [0] * len(config.snr_db), [0] * len(config.snr_db)

    def stopped(pi):
        return errors[pi] >= config.min_errors or chunks[pi] * CHUNK >= config.max_trials

    def tasks():  # point-major, drawn lazily: a stopped point sends no more
        for pi in range(len(config.snr_db)):
            for c0 in range(0, last, _TASK_CHUNKS):
                if stopped(pi):
                    break
                yield pi, c0, min(c0 + _TASK_CHUNKS, last)

    todo, pending = tasks(), []  # pending: (point, result), in submission order
    while True:
        for pi, c0, c1 in itertools.islice(todo, ahead - len(pending)):
            pending.append((pi, submit(pi, c0, c1, config.min_errors - errors[pi])))
        if not pending:
            return errors, chunks
        pi, result = pending.pop(0)
        if stopped(pi):  # a surplus task
            continue
        for e in result():
            errors[pi] += e
            chunks[pi] += 1
            if stopped(pi):
                break


def _kept_sweep(config, ctx, call, workers):
    """_sweep on the pool kept across calls, made anew for another worker count, in a forked
    child, or once more when a worker has died; workers forked meanwhile start with _CALL."""
    global _KEPT, _CALL
    _CALL = call[0], ctx
    try:
        for retry in (False, True):
            if retry or _KEPT[:2] != (os.getpid(), workers):
                if _KEPT[0] == os.getpid():  # not a pool inherited through fork
                    _KEPT[2].shutdown(cancel_futures=True)
                _KEPT = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers))
            pool = _KEPT[2]
            try:
                return _sweep(config, lambda *task: pool.submit(
                    _pool_chunks, *call, *task).result, 2 * workers)
            except BrokenProcessPool:
                if retry:
                    pool.shutdown()  # no worker outlives the error
                    raise
    finally:
        _CALL = None, None


def run_sim(config):
    """Sweep the SNR grid; deterministic for a given (config, seed).

    Tasks of up to _TASK_CHUNKS chunks of one point, at most two per worker
    in flight, are read in order, and accumulation stops at the first chunk
    where min_errors or max_trials is reached, so the result depends neither
    on the worker count nor on the task size.
    """
    workers = resolve_workers(config.workers)
    ctx = _build_ctx(config)
    if workers == 1:  # each task runs when it is read, after the one before
        errors, chunks = _sweep(config, lambda *task: lambda: _run_chunks(ctx, *task), 1)
    else:  # the context file is made 0600 and exclusive, and removed on leaving the block
        with _KEPT_LOCK, tempfile.NamedTemporaryFile(prefix="latticedex-") as fh:
            pickle.dump(ctx, fh, pickle.HIGHEST_PROTOCOL)
            fh.flush()
            st = os.fstat(fh.fileno())
            call = (next(_KEYS), fh.name, (st.st_dev, st.st_ino))
            errors, chunks = _kept_sweep(config, ctx, call, workers)
    points = [SimPoint(snr, e, c * CHUNK, e / (c * CHUNK), *confidence_interval(e, c * CHUNK))
              for snr, e, c in zip(config.snr_db, errors, chunks)]
    return SimResult(config.label, config.channel, config.side_info, config.seed,
                     config.code.content_hash(), config.digest(), tuple(points))


# ============================================================
# Single-shot detection
# ============================================================


def ml_detect(code, y, s, fixed=None, snr=1.0, h=None):
    """ML decision restricted to codewords consistent with the side info.

    The decision of run_sim for one trial received as y = sqrt(snr)*(h.x) + z
    over subcode_points(code, s, fixed): _detect on a one-row chunk and a table of
    that one group, so a sphere search from _SEARCH_MIN points up and brute force
    below, ties toward the lowest message index.  Returns the Message.
    """
    y = _real_vector("y", y, code.dimension)
    if h is not None:
        h = _real_vector("h", h, code.dimension)[None, :]
    if not isinstance(snr, numbers.Real) or isinstance(snr, bool):
        raise InvalidArgument(f"snr must be a real number, got {snr!r}")
    if not (math.isfinite(snr) and snr >= 0):
        raise InvalidArgument("snr must be finite and nonnegative")
    ctx, a = _groups(code, s, code.subcode_indices(s, fixed)[None]), math.sqrt(snr)
    lat, hmax = ctx["lattice"], 1.0 if h is None else np.abs(h).max()
    pmax = max(math.sqrt(ctx["W"][0, -1].max()), 0 if lat is None else np.abs(lat["ebasis"]).max())
    if not _score_room(code.dimension, a, hmax, np.abs(y).max(), pmax) >= 1:  # NaN fails too
        raise InvalidArgument("y and h must be finite and small enough for scores not to overflow")
    det = _detect(ctx, a, y[None, :], h, np.zeros(1, dtype=np.int64))
    return code.message_from_index(int(det[0]))


def _real_vector(name, v, length):
    """v as a float64 vector of the given length, refused unless it holds
    real numbers: no bools, strings, complex numbers or ragged nesting.  Each
    entry is checked on its own, as numpy reads [True, 1.0] as two floats."""
    try:
        arr = np.asarray(v)
        ok = arr.shape == (length,) and all(
            np.asarray(x).dtype.kind in "iuf" for x in np.asarray(v, dtype=object))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise InvalidArgument(f"{name} must be {length} real numbers, got {v!r}")
    return arr.astype(np.float64)


# ============================================================
# Curves: CSV, measured gain, slope
# ============================================================


def side_info_tag(s):
    return "-".join(str(k) for k in s) if s else "none"


def curve_filename(label, channel, s):
    return f"{label}_{channel}_S{side_info_tag(s)}.csv"


def write_curve_csv(path, result):
    """One curve per file; floats are written with repr for reproducibility."""
    tag = side_info_tag(result.side_info)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["snr_db", "side_info_set", "errors", "trials",
                    "ser", "ci_low", "ci_high", "seed"])
        for p in result.points:
            w.writerow([repr(p.snr_db), tag, p.errors, p.trials,
                        repr(p.ser), repr(p.ci_low), repr(p.ci_high), result.seed])


def read_curve_csv(path):
    with open(path, newline="") as fh:
        return tuple(SimPoint(float(r["snr_db"]), int(r["errors"]), int(r["trials"]),
                              float(r["ser"]), float(r["ci_low"]), float(r["ci_high"]))
                     for r in csv.DictReader(fh))


def _curve_points(curve):
    return curve.points if isinstance(curve, SimResult) else tuple(curve)


def _snr_at_ser(points, target):
    """SNR (dB) where the curve crosses target, log-linear in SER."""
    usable = [(p.snr_db, p.ser) for p in points if p.ser > 0.0]
    for (s0, r0), (s1, r1) in zip(usable, usable[1:]):
        lo, hi = min(r0, r1), max(r0, r1)
        if lo <= target <= hi and r0 != r1:
            t = (math.log10(target) - math.log10(r0)) / (math.log10(r1) - math.log10(r0))
            return s0 + t * (s1 - s0)
    raise InvalidArgument(f"target SER {target} not bracketed by the curve")


def si_gain_from_curves(curve_base, curve_s, target_ser):
    """Horizontal dB gap between two curves at the target SER."""
    if not 0.0 < target_ser < 1.0:
        raise InvalidArgument("target SER must be in (0, 1)")
    base = _snr_at_ser(_curve_points(curve_base), target_ser)
    cs = _snr_at_ser(_curve_points(curve_s), target_ser)
    return base - cs


def diversity_slope(curve, snr_window_db):
    """-d log10(SER) / d(SNR_dB/10) over the window; Rayleigh curves only.

    Needs at least 3 points inside the window with >= 100 errors each.
    """
    lo, hi = snr_window_db
    pts = [p for p in _curve_points(curve)
           if lo <= p.snr_db <= hi and p.errors >= 100 and p.ser > 0.0]
    if len(pts) < 3:
        raise InvalidArgument(
            "need at least 3 points with 100+ errors inside the window")
    x = np.array([p.snr_db / 10.0 for p in pts])
    z = np.array([math.log10(p.ser) for p in pts])
    slope = np.polyfit(x, z, 1)[0]
    return -float(slope)
