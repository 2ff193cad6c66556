"""Built-in code designs, reconstructed deterministically on every call.

Each preset pins a field, an ordered list of message ideals, and default
side-information sets and SNR grids for the two channels.  The grids bracket
SER 1e-4 so measured gaps at that target interpolate instead of
extrapolating.
"""

from __future__ import annotations

import math

from .codec import build_index_code
from .errors import InvalidArgument
from .numberfield import (cyclotomic_field, maximal_real_field, principal_ideal,
                          prime_ideals_above, quadratic_field)

PRESETS = ("example1", "example2", "example3", "cyclo-K4", "maxreal-K3")

# Default sweep windows per (preset, channel), bracketing SER 1e-4 for the
# base curve and every single-message reveal.  Calibrated empirically.
PRESET_SNR = {
    ("example1", "awgn"): tuple(float(v) for v in range(10, 29, 2)),
    ("example1", "rayleigh"): tuple(float(v) for v in range(12, 61, 4)),
    ("example2", "awgn"): tuple(float(v) for v in range(8, 31, 2)),
    ("example2", "rayleigh"): tuple(float(v) for v in range(12, 75, 4)),
    ("example3", "awgn"): tuple(float(v) for v in range(8, 29, 2)),
    ("example3", "rayleigh"): tuple(float(v) for v in range(12, 61, 4)),
    ("cyclo-K4", "awgn"): tuple(float(v) for v in range(10, 33, 2)),
    ("cyclo-K4", "rayleigh"): tuple(float(v) for v in range(12, 61, 4)),
    ("maxreal-K3", "awgn"): tuple(float(v) for v in range(10, 33, 2)),
    ("maxreal-K3", "rayleigh"): tuple(float(v) for v in range(12, 61, 4)),
}


def _spec_example1():
    field = quadratic_field(5)
    # ramified prime of norm 5 and a split prime of norm 11
    return field, [principal_ideal(field.element((-1, 2))),   # 2t-1, norm -5
                   principal_ideal(field.element((3, 2)))]    # 3+2t, norm 11


def _spec_example2():
    field = quadratic_field(-5)
    return field, list(prime_ideals_above(field, 7))


def _spec_example3():
    field = quadratic_field(-7)
    return field, [principal_ideal(field.element((-1, 2))),   # norm 7
                   principal_ideal(field.element((1, 2)))]    # norm 11


def _spec_cyclo_k4():
    field = cyclotomic_field(5)
    return field, list(prime_ideals_above(field, 11))


def _spec_maxreal_k3():
    field = maximal_real_field(7)
    return field, list(prime_ideals_above(field, 13))


_BUILDERS = {
    "example1": _spec_example1,
    "example2": _spec_example2,
    "example3": _spec_example3,
    "cyclo-K4": _spec_cyclo_k4,
    "maxreal-K3": _spec_maxreal_k3,
}

# Config-file form of each preset's prime list.  resolve_primes on these
# selectors reproduces preset_field_and_primes exactly (same ideals, same
# order), so configs and presets regenerate identical code files.
PRESET_PRIME_SELECTORS = {
    "example1": [{"generator": [-1, 2]}, {"generator": [3, 2]}],
    "example2": [{"above": 7, "index": 0}, {"above": 7, "index": 1}],
    "example3": [{"generator": [-1, 2]}, {"generator": [1, 2]}],
    "cyclo-K4": [{"split_completely": 11}],
    "maxreal-K3": [{"split_completely": 13}],
}


def preset_names():
    return PRESETS


def preset_field_and_primes(name):
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InvalidArgument(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}") from None
    return builder()


def preset_code(name):
    """Deterministic reconstruction of a built-in code."""
    field, primes = preset_field_and_primes(name)
    return build_index_code(field, primes)


def preset_snr_grid(name, channel):
    return PRESET_SNR[(name, channel)]


def preset_summary(name):
    """One-line description; sizes come from the prime norms, nothing is built."""
    field, primes = preset_field_and_primes(name)
    norms = [p.norm for p in primes]
    return (f"{name}: {field.describe()}, K={len(primes)}, "
            f"messages {'x'.join(str(v) for v in norms)} = {math.prod(norms)} points")
