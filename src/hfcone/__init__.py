"""Heegaard Floer homology of rational surgeries on knots, hat flavor.

The surgered manifold's homology is computed from a finite model: a
surgery profile records, for each Alexander grading s, the rank of the
hat-flavor knot complex slice together with the two stabilization maps
out of it. A truncated mapping cone built from |p| spin-c classes of a
p/q slope then yields one finitely generated abelian group per class,
all over exact integer arithmetic.

Profiles come from built-in families, from a small text format, or are
derived from a chain-level complex (in particular from staircases built
out of Alexander polynomials of L-space knots). On top of the group
computation sit counting and comparison tools: L-structure counts,
genus lower bounds, spin-c class classification, and obstructions to a
single manifold arising from surgeries on two given knots.
"""

import importlib

# public name -> the module that defines it, in the order of __all__. A
# name is imported on first use (PEP 562), so a command loads only the
# modules it runs: hf, ell and profile never import cfk or obstruct.
_HOMES = {
    "AbelianGroup": "exactla",
    "Arrow": "cfk",
    "CONSISTENT": "obstruct",
    "CfkComplex": "cfk",
    "EliminationOverflow": "exactla",
    "ConeTooLarge": "cone",
    "Framing": "cone",
    "FramingError": "cone",
    "Generator": "cfk",
    "InvalidComplexError": "cfk",
    "LocalData": "profiles",
    "NOT_APPLICABLE": "obstruct",
    "ProfileError": "profiles",
    "ProfileParseError": "profiles",
    "SliceComplex": "cfk",
    "SpincClassification": "obstruct",
    "SpincEntry": "cone",
    "StaircaseError": "cfk",
    "SurgeryProfile": "profiles",
    "SurgeryReport": "cone",
    "TAU_EXTREMAL_BOTH": "obstruct",
    "TAU_EXTREMAL_FIRST": "obstruct",
    "TorsionError": "cfk",
    "Verdict": "obstruct",
    "VIOLATED": "obstruct",
    "Window": "cone",
    "ahat": "cfk",
    "bhat": "cfk",
    "classify_spinc": "obstruct",
    "ell_formula_lspace": "obstruct",
    "figure_eight": "profiles",
    "first_kind_brute": "obstruct",
    "first_kind_closed_form": "obstruct",
    "genus_inequality": "obstruct",
    "gz_lower_bound": "obstruct",
    "homology": "cfk",
    "k_family": "profiles",
    "k_family_obstruction": "obstruct",
    "lspace_knot": "profiles",
    "mirror": "cfk",
    "pair_obstruction": "obstruct",
    "parse": "profiles",
    "phi": "cone",
    "serialize": "profiles",
    "smith_normal_form": "exactla",
    "spinc_group": "cone",
    "spinc_runs": "cone",
    "staircase_from_alexander": "cfk",
    "surgery_report": "cone",
    "tau_extremal": "profiles",
    "to_profile": "cfk",
    "truncation_window": "cone",
    "unknot": "profiles",
    "validate": "cfk",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _HOMES.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
