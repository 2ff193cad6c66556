"""Number fields, algebraic integers, ideals, and exact lattice utilities."""

from .field import (
    IMAGINARY_PID_DS,
    AlgebraicInt,
    NumberField,
    cyclotomic_field,
    cyclotomic_poly,
    field_from_dict,
    maximal_real_field,
    quadratic_field,
)
from .ideals import (
    Ideal,
    PrimeClass,
    classify_prime,
    factor_minpoly_mod_p,
    ideal_from_generators,
    ideal_to_dict,
    prime_ideals_above,
    principal_ideal,
    whole_ring,
)

__all__ = [
    "IMAGINARY_PID_DS",
    "AlgebraicInt",
    "NumberField",
    "cyclotomic_field",
    "cyclotomic_poly",
    "field_from_dict",
    "maximal_real_field",
    "quadratic_field",
    "Ideal",
    "PrimeClass",
    "classify_prime",
    "factor_minpoly_mod_p",
    "ideal_from_generators",
    "ideal_to_dict",
    "prime_ideals_above",
    "principal_ideal",
    "whole_ring",
]
