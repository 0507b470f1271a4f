"""triwords: exact counting of 3n-letter words over a three-letter alphabet.

Words are split into four classes by the residues mod 3 of their letter
counts; six independent exact engines (definition sums, brute-force
enumeration, coupled/decoupled recurrences, closed forms in Q(i, sqrt3)
and rational generating functions) compute the same counts and are
cross-validated bit for bit.

The exports load on first use: reading one imports its module then, so
importing the package, or running `python -m triwords`, imports only the
modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module of this package and the space-separated names exported from it.
_EXPORTS = {
    "closedform": "case_mod4 closed_form root_basis",
    "counting": "ClassLabel brute_force_words classify composition_sum direct_sum trinomial",
    "digits": "decimal_digits",
    "engines": "bench_engine compute_value",
    "genfun": "gf_coefficients gf_for_class",
    "recurrence": "TRANSITION_MATRIX coupled_sequence decoupled_d decoupled_third_order quartic_c",
    "relations": "identity_suite",
}

__all__ = sorted(" ".join(_EXPORTS.values()).split())
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    """An export, imported from its home module and bound here on first read (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
