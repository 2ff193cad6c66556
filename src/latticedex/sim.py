"""Monte-Carlo symbol error rates with side-information-restricted ML detection.

Channel model: y = sqrt(snr) * h.x + z with unit-average-energy codewords,
noise variance 1/n per real dimension, and (optionally) Rayleigh fades of
unit second moment per real coordinate, or per place of K (fade_per_complex).
Trials run in fixed chunks of 4096 with a counter-based generator keyed by
(seed, point index, chunk index), so results are bit-identical across runs
and across worker counts: chunks are always consumed in index order and the
stop rule is applied in that order.

Detection is brute-force ML over the points that agree with the side
information.  Each chunk is scored in row tiles of at most _TILE_BYTES of
float64 scores, so the memory a chunk needs is bounded independently of the
constellation size; the tiling does not change any score or decision.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, Unsupported
from .numberfield.field import _is_integer

CHUNK = 4096
_TILE_BYTES = 1 << 20  # a score tile (two on Rayleigh) fits a 2 MiB per-core L2 cache
_RAYLEIGH_SCALE = 1.0 / math.sqrt(2.0)  # E[h^2] = 1
_Z95 = 1.959963984540054


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
        if self.channel not in ("awgn", "rayleigh"):
            raise InvalidArgument(f"unknown channel {self.channel!r}")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in self.snr_db):
            raise InvalidArgument(f"snr values must be numbers, got {list(self.snr_db)!r}")
        grid = tuple(float(v) for v in self.snr_db)
        if not grid:
            raise InvalidArgument("snr grid is empty")
        if not all(math.isfinite(v) for v in grid):
            raise InvalidArgument("snr values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgument("snr grid must be strictly increasing")
        self.snr_db = grid
        self.side_info = self.code.check_side_info(self.side_info)
        if self.min_errors < 1:
            raise InvalidArgument("min_errors must be at least 1")
        if self.max_trials < 1:
            raise InvalidArgument("max_trials must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise InvalidArgument("workers must be at least 1 (or None for auto)")
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidArgument(f"seed must be a nonnegative integer, got {self.seed!r}")
        self.seed = int(self.seed)

    def digest(self):
        blob = json.dumps(
            {
                "channel": self.channel,
                "snr_db": list(self.snr_db),
                "side_info": list(self.side_info),
                "min_errors": self.min_errors,
                "max_trials": self.max_trials,
                "seed": self.seed,
                "fade_per_complex": self.fade_per_complex,
                "label": self.label,
                "code": self.code.content_hash(),
                "chunk": CHUNK,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def resolve_workers(requested):
    """Worker count after the LATTICEDEX_THREADS cap (None = auto-detect)."""
    cap = os.environ.get("LATTICEDEX_THREADS")
    if cap and not (cap.strip().isdecimal() and int(cap) >= 1):
        raise InvalidArgument("LATTICEDEX_THREADS must be a positive integer")
    n = requested if requested is not None else (os.cpu_count() or 1)
    if cap:
        n = min(n, int(cap))
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
    lo = max(center - half, 0.0)
    hi = min(center + half, 1.0)
    # center-half is analytically 0 (resp. 1) at the endpoints; kill float dust
    if errors == 0:
        lo = 0.0
    if errors == trials:
        hi = 1.0
    return (lo, hi)


# ============================================================
# Chunk engine
# ============================================================


def _group(code, cand):
    """What _detect reads of one side-information group: the candidate point
    indices and their unit-energy points P, P*P and |P|^2."""
    P = code.gamma * code.embedded[cand]
    return {"cand": cand, "P": P, "Psq": P * P, "Pnorm": (P * P).sum(axis=1)}


def _build_ctx(config):
    """Read-only arrays shared by every chunk of a sweep."""
    code = config.code
    field = code.field
    pid = code.side_index(config.side_info)
    return {
        "channel": config.channel,
        "seed": config.seed,
        "fade_columns": field.places if config.fade_per_complex else np.arange(field.n),
        "size": code.size,
        "n": field.n,
        "noise_sigma": math.sqrt(1.0 / field.n),
        "amps": [math.sqrt(10.0 ** (v / 10.0)) for v in config.snr_db],
        "enorm": code.gamma * code.embedded,  # unit average energy
        "pid": pid,
        "groups": [_group(code, np.flatnonzero(pid == g)) for g in range(int(pid.max()) + 1)],
    }


def _draw_fades(ctx, rng):
    """(CHUNK, n) Rayleigh fades, coordinate j taking draw fade_columns[j]; no copy if 1:1."""
    cols = ctx["fade_columns"]
    draws = rng.rayleigh(scale=_RAYLEIGH_SCALE, size=(CHUNK, int(cols[-1]) + 1))
    return draws if draws.shape[1] == cols.shape[0] else draws[:, cols]


def _draw_chunk(ctx, point_idx, chunk_idx):
    """(sent point indices, received y, fades h or None) of one chunk; pure in its arguments."""
    ss = np.random.SeedSequence(ctx["seed"], spawn_key=(point_idx, chunk_idx))
    rng = np.random.Generator(np.random.Philox(ss))
    a = ctx["amps"][point_idx]

    raw = rng.integers(0, ctx["size"], size=CHUNK)
    z = rng.standard_normal((CHUNK, ctx["n"])) * ctx["noise_sigma"]
    h = _draw_fades(ctx, rng) if ctx["channel"] == "rayleigh" else None

    tx = ctx["enorm"][raw]
    y = a * (h * tx if h is not None else tx) + z
    return raw, y, h


def _detect(ctx, a, y, h, pids):
    """ML decision (point index) for every row of y, given its side-information group.

    Trials of one group are scored against the group's candidates in tiles of
    at most _TILE_BYTES of float64 scores, written into buffers reused across
    the group's tiles, so memory does not grow with the constellation size.
    Each score is a*a*|P|^2 - 2a<y, P> (AWGN) or a*a*<h*h, P*P> - 2a<y*h, P>
    (Rayleigh), and ties go to the first candidate.
    """
    det = np.empty(y.shape[0], dtype=np.int64)
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    bounds = np.flatnonzero(np.r_[True, sorted_pids[1:] != sorted_pids[:-1], True]).tolist()
    for start, stop in zip(bounds, bounds[1:]):
        g = ctx["groups"][sorted_pids[start]]
        size = g["cand"].shape[0]
        tile = min(max(1, _TILE_BYTES // (8 * size)), stop - start)
        score_buf = np.empty((tile, size))
        if h is None:
            energy = a * a * g["Pnorm"]
        else:
            fade_buf = np.empty((tile, size))
        for lo in range(start, stop, tile):
            rows = order[lo:min(lo + tile, stop)]
            score = score_buf[:rows.shape[0]]
            if h is None:
                np.matmul(y[rows], g["P"].T, out=score)
                np.multiply(2.0 * a, score, out=score)
                np.subtract(energy, score, out=score)
            else:
                hr = h[rows]
                np.matmul(y[rows] * hr, g["P"].T, out=score)
                np.multiply(2.0 * a, score, out=score)
                fade = fade_buf[:rows.shape[0]]
                np.matmul(hr * hr, g["Psq"].T, out=fade)
                np.multiply(a * a, fade, out=fade)
                np.subtract(fade, score, out=score)
            det[rows] = g["cand"][np.argmin(score, axis=1)]
    return det


def _run_chunk(ctx, point_idx, chunk_idx):
    """(errors, trials) for one fixed-size chunk; pure in its arguments."""
    raw, y, h = _draw_chunk(ctx, point_idx, chunk_idx)
    det = _detect(ctx, ctx["amps"][point_idx], y, h, ctx["pid"][raw])
    errors = int(np.count_nonzero(det != raw))
    return errors, CHUNK


_POOL_CTX = None


def _pool_init(ctx):
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_chunk(args):
    point_idx, chunk_idx = args
    return _run_chunk(_POOL_CTX, point_idx, chunk_idx)


def run_sim(config):
    """Sweep the SNR grid; deterministic for a given (config, seed).

    Chunks are scanned strictly in index order and accumulation stops at the
    first chunk where min_errors or max_trials is reached, so the result does
    not depend on how many workers computed the chunks.
    """
    ctx = _build_ctx(config)
    workers = resolve_workers(config.workers)
    points = []
    executor = None
    try:
        if workers > 1:
            executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init, initargs=(ctx,))
        for pi in range(len(config.snr_db)):
            errors = 0
            trials = 0
            chunk = 0
            done = False
            while not done:
                wave = [(pi, chunk + w) for w in range(workers)]
                if executor is not None:
                    results = list(executor.map(_pool_chunk, wave))
                else:
                    results = [_run_chunk(ctx, *args) for args in wave]
                for e, t in results:
                    errors += e
                    trials += t
                    chunk += 1
                    if errors >= config.min_errors or trials >= config.max_trials:
                        done = True
                        break
            ser = errors / trials
            lo, hi = confidence_interval(errors, trials)
            points.append(SimPoint(config.snr_db[pi], errors, trials, ser, lo, hi))
    finally:
        if executor is not None:
            executor.shutdown()
    return SimResult(
        label=config.label,
        channel=config.channel,
        side_info=config.side_info,
        seed=config.seed,
        code_hash=config.code.content_hash(),
        config_digest=config.digest(),
        points=tuple(points),
    )


# ============================================================
# Single-shot detection
# ============================================================


def ml_detect(code, y, s, fixed=None, snr=1.0, h=None):
    """ML decision restricted to codewords consistent with the side info.

    The decision of run_sim for one trial received as y = sqrt(snr)*(h.x) + z
    over subcode_points(code, s, fixed): _detect on a one-row chunk, ties
    toward the lowest message index.  Returns the Message.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (code.dimension,):
        raise InvalidArgument(f"y must have length {code.dimension}")
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (code.dimension,):
            raise InvalidArgument(f"h must have length {code.dimension}")
        h = h[None, :]
    if not (math.isfinite(snr) and snr >= 0):
        raise InvalidArgument("snr must be finite and nonnegative")
    ctx = {"groups": [_group(code, code.subcode_indices(s, fixed))]}
    det = _detect(ctx, math.sqrt(snr), y[None, :], h, np.zeros(1, dtype=np.int64))
    return code.message_from_index(int(det[0]))


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
    points = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            points.append(SimPoint(
                snr_db=float(row["snr_db"]),
                errors=int(row["errors"]),
                trials=int(row["trials"]),
                ser=float(row["ser"]),
                ci_low=float(row["ci_low"]),
                ci_high=float(row["ci_high"]),
            ))
    return tuple(points)


def _curve_points(curve):
    if isinstance(curve, SimResult):
        return curve.points
    return tuple(curve)


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
