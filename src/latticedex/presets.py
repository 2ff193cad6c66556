"""Built-in code designs, kept as config data and rebuilt on every call.

A preset is exactly the experiment config that holds its field and prime
selectors, plus an SNR grid per channel.  resolve_primes is the one way
from a selector to an ideal, for presets and config files alike.
"""

from __future__ import annotations

import copy
import math

from .errors import InvalidArgument
# quadratic_field, cyclotomic_field and maximal_real_field are not called
# here; they stay importable because bench/probe.py patches these names
from .numberfield import (classify_prime, cyclotomic_field, field_from_dict,  # noqa: F401
                          maximal_real_field, prime_ideals_above, principal_ideal,
                          quadratic_field)

# Each preset: the field and prime selectors of its config, and its default
# sweep window per channel as range(start, stop, step) in dB.  The windows
# bracket SER 1e-4 for the base curve and every single-message reveal, so
# gaps at that target interpolate; they were set empirically.
PRESETS = {
    # generators 2t-1 (the ramified prime of norm 5) and 3+2t (a split prime of norm 11)
    "example1": {"field": {"family": "quadratic", "param": 5},
                 "primes": [{"generator": [-1, 2]}, {"generator": [3, 2]}],
                 "snr": {"awgn": (10, 29, 2), "rayleigh": (12, 61, 4)}},
    "example2": {"field": {"family": "quadratic", "param": -5},
                 "primes": [{"above": 7, "index": 0}, {"above": 7, "index": 1}],
                 "snr": {"awgn": (8, 31, 2), "rayleigh": (12, 75, 4)}},
    # primes of norm 7 and 11
    "example3": {"field": {"family": "quadratic", "param": -7},
                 "primes": [{"generator": [-1, 2]}, {"generator": [1, 2]}],
                 "snr": {"awgn": (8, 29, 2), "rayleigh": (12, 61, 4)}},
    "cyclo-K4": {"field": {"family": "cyclotomic", "param": 5},
                 "primes": [{"split_completely": 11}],
                 "snr": {"awgn": (10, 33, 2), "rayleigh": (12, 61, 4)}},
    "maxreal-K3": {"field": {"family": "maximal_real", "param": 7},
                   "primes": [{"split_completely": 13}],
                   "snr": {"awgn": (10, 33, 2), "rayleigh": (12, 61, 4)}},
}


def resolve_primes(field, prime_specs):
    """Ideal list from config selectors: explicit generators, the i-th ideal
    above p, or every ideal above a completely split p."""
    out = []
    for ps in prime_specs:
        if not isinstance(ps, dict):
            raise InvalidArgument(f"prime selector must be an object, got {ps!r}")
        gen = ps.get("generator", [])
        values = [v for k, v in ps.items() if k != "generator"] + (
            gen if isinstance(gen, list) else [None])
        if not all(type(v) is int for v in values):
            raise InvalidArgument(f"prime selector {ps} must hold integers (a list for generator)")
        if "split_completely" in ps:
            p = ps["split_completely"]
            ideals = prime_ideals_above(field, p)
            if len(ideals) != field.n:
                info = classify_prime(field, p)
                raise InvalidArgument(
                    f"{p} does not split completely in {field.name}: it is "
                    f"{info.kind} with e={info.e}, f={info.f}, h={info.h}")
            out.extend(ideals)
        elif "above" in ps:
            p = ps["above"]
            ideals = prime_ideals_above(field, p)
            i = ps.get("index", 0)
            if not 0 <= i < len(ideals):
                info = classify_prime(field, p)
                raise InvalidArgument(
                    f"no ideal with index {i} above {p} in {field.name}: "
                    f"{p} is {info.kind} with h={info.h} prime ideal(s) "
                    f"(e={info.e}, f={info.f})")
            out.append(ideals[i])
        elif "generator" in ps:
            out.append(principal_ideal(field.element(ps["generator"])))
        else:
            raise InvalidArgument(
                f"prime selector needs one of split_completely/above/generator: {ps}")
    return out


def preset_names():
    return tuple(PRESETS)


def preset_config(name):
    """A fresh copy of the preset's {"field", "primes"} config data."""
    try:
        return {key: copy.deepcopy(PRESETS[name][key]) for key in ("field", "primes")}
    except KeyError:
        raise InvalidArgument(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}") from None


def field_and_primes(field, primes):
    field = field_from_dict(field)
    return field, resolve_primes(field, primes)


def preset_field_and_primes(name):
    return field_and_primes(**preset_config(name))


def preset_code(name):
    """Deterministic reconstruction of a built-in code."""
    from .codec import build_index_code  # numpy loads with the first build, not with presets
    field, primes = preset_field_and_primes(name)
    return build_index_code(field, primes)


def preset_snr_grid(name, channel):
    return tuple(float(v) for v in range(*PRESETS[name]["snr"][channel]))


def preset_summary(name):
    """One-line description; sizes come from the prime norms, nothing is built."""
    field, primes = preset_field_and_primes(name)
    norms = [p.norm for p in primes]
    return (f"{name}: {field.describe()}, K={len(primes)}, "
            f"messages {'x'.join(str(v) for v in norms)} = {math.prod(norms)} points")
