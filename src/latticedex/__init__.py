"""Lattice index codes over rings of algebraic integers.

Build multi-message constellations by CRT over prime ideals, analyze exact
side-information gains against the known bounds, and estimate symbol error
rates over AWGN and Rayleigh channels with reproducible Monte Carlo.
"""

import importlib

from .errors import (Infeasible, InvalidArgument, InvariantViolation,
                     LatticedexError, Unsupported)
from .numberfield import (AlgebraicInt, Ideal, NumberField, classify_prime,
                          cyclotomic_field, field_from_dict, ideal_from_generators,
                          maximal_real_field, prime_ideals_above, principal_ideal,
                          quadratic_field, whole_ring)
from .presets import preset_code, preset_names, preset_summary
from .settings import SimConfig

# the public names of the layers that load numpy, each imported from its module on first use
# (PEP 562): fields, ideals, presets and settings load no numpy
_NUMERIC = {name: module for module, names in (
    ("analysis", "FadingReport GainReport diversity_and_product_distance gain_bounds "
                 "ideal_lambda1_sq min_distance minkowski_upper_bound overall_side_info_gain "
                 "side_info_gain"),
    ("codec", "CodePoint IndexCode Message build_index_code decode_point encode load_code rate "
              "save_code subcode_points"),
    ("sim", "SimPoint SimResult confidence_interval curve_filename diversity_slope ml_detect "
            "read_curve_csv run_sim si_gain_from_curves write_curve_csv"),
) for name in names.split()}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "AlgebraicInt", "CodePoint", "FadingReport", "GainReport", "Ideal",
    "IndexCode", "Infeasible", "InvalidArgument", "InvariantViolation",
    "LatticedexError", "Message", "NumberField", "SimConfig",
    "SimPoint", "SimResult", "Unsupported",
    "build_index_code", "classify_prime", "confidence_interval",
    "curve_filename", "cyclotomic_field", "decode_point",
    "diversity_and_product_distance", "diversity_slope", "encode",
    "field_from_dict", "gain_bounds", "ideal_from_generators",
    "ideal_lambda1_sq", "load_code", "maximal_real_field", "min_distance",
    "minkowski_upper_bound", "ml_detect", "overall_side_info_gain", "preset_code",
    "preset_names", "preset_summary", "prime_ideals_above", "principal_ideal",
    "quadratic_field", "rate", "read_curve_csv", "run_sim", "save_code",
    "si_gain_from_curves", "side_info_gain", "subcode_points", "whole_ring",
    "write_curve_csv",
]
