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

from .cfk import (
    Arrow,
    CfkComplex,
    Generator,
    InvalidComplexError,
    SliceComplex,
    StaircaseError,
    TorsionError,
    ahat,
    bhat,
    homology,
    mirror,
    staircase_from_alexander,
    to_profile,
    validate,
)
from .cone import (
    ConeTooLarge,
    Framing,
    FramingError,
    SpincEntry,
    SurgeryReport,
    Window,
    phi,
    spinc_group,
    spinc_runs,
    surgery_report,
    truncation_window,
)
from .exactla import AbelianGroup, EliminationOverflow, smith_normal_form
from .obstruct import (
    CONSISTENT,
    NOT_APPLICABLE,
    TAU_EXTREMAL_BOTH,
    TAU_EXTREMAL_FIRST,
    VIOLATED,
    SpincClassification,
    Verdict,
    classify_spinc,
    ell_formula_lspace,
    first_kind_brute,
    first_kind_closed_form,
    genus_inequality,
    gz_lower_bound,
    k_family_obstruction,
    pair_obstruction,
)
from .profiles import (
    LocalData,
    ProfileError,
    ProfileParseError,
    SurgeryProfile,
    figure_eight,
    k_family,
    lspace_knot,
    parse,
    serialize,
    tau_extremal,
    unknot,
)

__all__ = [
    "AbelianGroup",
    "Arrow",
    "CONSISTENT",
    "CfkComplex",
    "EliminationOverflow",
    "ConeTooLarge",
    "Framing",
    "FramingError",
    "Generator",
    "InvalidComplexError",
    "LocalData",
    "NOT_APPLICABLE",
    "ProfileError",
    "ProfileParseError",
    "SliceComplex",
    "SpincClassification",
    "SpincEntry",
    "StaircaseError",
    "SurgeryProfile",
    "SurgeryReport",
    "TAU_EXTREMAL_BOTH",
    "TAU_EXTREMAL_FIRST",
    "TorsionError",
    "Verdict",
    "VIOLATED",
    "Window",
    "ahat",
    "bhat",
    "classify_spinc",
    "ell_formula_lspace",
    "figure_eight",
    "first_kind_brute",
    "first_kind_closed_form",
    "genus_inequality",
    "gz_lower_bound",
    "homology",
    "k_family",
    "k_family_obstruction",
    "lspace_knot",
    "mirror",
    "pair_obstruction",
    "parse",
    "phi",
    "serialize",
    "smith_normal_form",
    "spinc_group",
    "spinc_runs",
    "staircase_from_alexander",
    "surgery_report",
    "tau_extremal",
    "to_profile",
    "truncation_window",
    "unknot",
    "validate",
]

__version__ = "0.1.0"
