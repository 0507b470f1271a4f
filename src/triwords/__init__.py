"""triwords: exact counting of 3n-letter words over a three-letter alphabet.

Words are split into four classes by the residues mod 3 of their letter
counts; six independent exact engines (definition sums, brute-force
enumeration, coupled/decoupled recurrences, closed forms in Q(i, sqrt3)
and rational generating functions) compute the same counts and are
cross-validated bit for bit.

The exports load on first use: reading one imports its module then, so
importing the package, or running `python -m triwords`, imports only the
modules that are used.  `engines` binds its engine functions the same way.
"""

from importlib import import_module

__version__ = "0.1.0"


def _bind_on_first_use(namespace: dict, homes: dict[str, str]):
    """A module `__getattr__` (PEP 562) for namespace that binds names from their home modules on first use.

    homes maps a module of this package to the space-separated names taken
    from it; a name is imported, and bound in namespace, when first read.
    """
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{home_of[name]}"), name)
        return value

    return __getattr__


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
__getattr__ = _bind_on_first_use(globals(), _EXPORTS)
