"""The settings of a build, an analysis and a sweep, their defaults and checks, with no numpy
import: the command line reads its defaults here.  codec, analysis and sim re-export the names
they held."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidArgument, Unsupported
from .numberfield.field import _checked_array, _is_integer

DEFAULT_ENUMERATION_CAP = 10**6  # most representatives a code build enumerates
K_CAP = 20  # most messages K whose 2^K - 1 side-information sets a full scan makes
CHUNK = 4096  # trials per chunk of a sweep


@dataclass(frozen=True)  # checked once, in __post_init__; dataclasses.replace checks a variant
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
        vars(self).update(check_sweep(self), side_info=self.code.check_side_info(self.side_info))
        # numpy's normal and Rayleigh draws stay below 64 and 8 in magnitude
        snr, pmax = self.snr_db[-1], self.code.gamma * math.sqrt(int(self.code.norms2.max()) / 2)
        if (room := _score_room(self.code.dimension, 10.0 ** (snr / 20.0), 8.0, 64.0, pmax)) < 1:
            raise InvalidArgument(f"snr {snr!r} dB is past {snr + 20.0 * math.log10(room):.2f} "
                                  "dB, where detector scores could overflow")

    def digest(self):
        """12 hex digits of SHA-256 of the settings but workers, the code's hash and CHUNK."""
        import hashlib
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
    """The eight sweep settings that need no code (channel, snr_db, min_errors, max_trials, seed,
    workers, fade_per_complex and label of settings), checked: a dict, the grid a tuple of floats,
    counts Python ints, fade_per_complex a bool (numpy's too, no 0 or 1) and label a str."""
    import numpy as np
    if settings.channel not in ("awgn", "rayleigh"):
        raise InvalidArgument(f"unknown channel {settings.channel!r}")
    grid = _checked_array(settings.snr_db, (-1,), False, "snr values must be numbers")
    grid = tuple(grid.tolist())
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
    if not isinstance(settings.fade_per_complex, (bool, np.bool_)):
        raise InvalidArgument(f"fade_per_complex must be a bool, got {settings.fade_per_complex!r}")
    if not isinstance(settings.label, str):
        raise InvalidArgument(f"label must be a string, got {settings.label!r}")
    return {**out, "fade_per_complex": bool(settings.fade_per_complex), "label": settings.label}
