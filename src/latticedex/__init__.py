"""Lattice index codes over rings of algebraic integers.

Build multi-message constellations by CRT over prime ideals, analyze exact
side-information gains against the known bounds, and estimate symbol error
rates over AWGN and Rayleigh channels with reproducible Monte Carlo.
"""

from .analysis import (FadingReport, GainReport, build_oklattice_code,
                       capacity_rhs, diversity_and_product_distance, gain_bounds,
                       ideal_lambda1_sq, min_distance, minkowski_upper_bound,
                       oklattice_side_info_gain, overall_side_info_gain,
                       side_info_gain)
from .codec import (CodePoint, IndexCode, Message, build_index_code, code_from_dict,
                    decode_point, encode, load_code, rate, save_code,
                    subcode_points)
from .errors import (Infeasible, InvalidArgument, InvariantViolation,
                     LatticedexError, Unsupported)
from .numberfield import (AlgebraicInt, Ideal, NumberField, classify_prime,
                          cyclotomic_field, field_from_dict, ideal_from_generators,
                          maximal_real_field, prime_ideals_above, principal_ideal,
                          quadratic_field, whole_ring)
from .presets import preset_code, preset_names, preset_summary
from .sim import (SimConfig, SimPoint, SimResult, confidence_interval,
                  curve_filename, diversity_slope, ml_detect, read_curve_csv,
                  run_sim, si_gain_from_curves, write_curve_csv)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicInt", "CodePoint", "FadingReport", "GainReport", "Ideal",
    "IndexCode", "Infeasible", "InvalidArgument", "InvariantViolation",
    "LatticedexError", "Message", "NumberField", "SimConfig",
    "SimPoint", "SimResult", "Unsupported",
    "build_index_code", "build_oklattice_code", "capacity_rhs",
    "classify_prime", "code_from_dict", "confidence_interval",
    "curve_filename", "cyclotomic_field", "decode_point",
    "diversity_and_product_distance", "diversity_slope", "encode",
    "field_from_dict", "gain_bounds", "ideal_from_generators",
    "ideal_lambda1_sq", "load_code", "maximal_real_field", "min_distance",
    "minkowski_upper_bound", "ml_detect", "oklattice_side_info_gain",
    "overall_side_info_gain", "preset_code",
    "preset_names", "preset_summary", "prime_ideals_above", "principal_ideal",
    "quadratic_field", "rate", "read_curve_csv", "run_sim", "save_code",
    "si_gain_from_curves", "side_info_gain", "subcode_points", "whole_ring",
    "write_curve_csv",
]
