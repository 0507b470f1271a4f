"""triwords: exact counting of 3n-letter words over a three-letter alphabet.

Words are split into four classes by the residues mod 3 of their letter
counts; six independent exact engines (definition sums, brute-force
enumeration, coupled/decoupled recurrences, closed forms in Q(i, sqrt3)
and rational generating functions) compute the same counts and are
cross-validated bit for bit.
"""

from .closedform import case_mod4, closed_form, root_basis
from .counting import ClassLabel, brute_force_words, classify, composition_sum, direct_sum, trinomial
from .engines import bench_engine, compute_value, decimal_digits
from .genfun import gf_coefficients, gf_for_class
from .recurrence import (
    TRANSITION_MATRIX,
    coupled_sequence,
    decoupled_d,
    decoupled_third_order,
    identity_suite,
    quartic_c,
)

__version__ = "0.1.0"

__all__ = [
    "ClassLabel",
    "TRANSITION_MATRIX",
    "bench_engine",
    "brute_force_words",
    "case_mod4",
    "classify",
    "closed_form",
    "composition_sum",
    "compute_value",
    "coupled_sequence",
    "decimal_digits",
    "decoupled_d",
    "decoupled_third_order",
    "direct_sum",
    "gf_coefficients",
    "gf_for_class",
    "identity_suite",
    "quartic_c",
    "root_basis",
    "trinomial",
]
