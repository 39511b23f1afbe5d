"""Numeric obstructions built on the L-structure count.

Everything here consumes plain numbers (genus, slope, the count ell of
spin-c classes with group exactly Z), so the tests can feed it either the
cone engine's output or externally computed values. All comparisons are
exact rational arithmetic; no floats anywhere.

The closed-form spin-c classification: for g >= 1 and a reduced positive
slope p/q, the class of i is "first kind" when every slot phi(s) =
floor((i + p s)/q) falls outside the open band (-g, g); by monotonicity
this happens exactly for the residues of {gq, ..., p + q - gq - 1}, and
each such class contributes Z to the surgery. Otherwise some slot lands
inside the band; when p >= (2g-1)q that slot is unique and is recorded
as the witness (s_i, phi(s_i)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cone import Framing, phi
from .exactla import Record

CONSISTENT = "consistent"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"


class Verdict(Record):
    def __init__(self, status: str, lhs: Fraction | None = None, rhs: Fraction | None = None,
                 detail: str = ""):
        self.__dict__.update(status=status, lhs=lhs, rhs=rhs, detail=detail)

    @property
    def is_violated(self) -> bool:
        return self.status == VIOLATED


class SpincClassification(Record):
    """Partition of the residues [0, p): first kind (always Z) and second
    kind with the unique interior slot witness i -> (s_i, phi(s_i))."""

    def __init__(self, first_kind: frozenset[int], second_kind: dict[int, tuple[int, int]]):
        self.__dict__.update(first_kind=first_kind, second_kind=second_kind)


def genus_inequality(g: int, framing: Framing, ell: int) -> Verdict:
    """Check 2g - 1 >= (|p| - ell)/q for a claimed genus-g description.

    Any manifold obtained by p/q surgery on a genus-g knot satisfies the
    inequality, so 'violated' rules the description out. Genus 0 is out of
    scope (lens spaces) and reports not_applicable.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell > abs(framing.p):
        raise ValueError(f"ell = {ell} exceeds the spin-c count {abs(framing.p)}")
    if g < 1:
        return Verdict(NOT_APPLICABLE, detail="genus bound requires g >= 1")
    lhs = Fraction(2 * g - 1)
    rhs = Fraction(abs(framing.p) - ell, framing.q)
    status = VIOLATED if lhs < rhs else CONSISTENT
    return Verdict(status, lhs, rhs, detail=f"2g-1 = {lhs} vs (|p|-ell)/q = {rhs}")


def gz_lower_bound(h1_order: int, ell: int) -> Fraction | None:
    """Lower bound (h1 - ell + 1)/2 for the integer surgery genus of a
    manifold with |H1| = h1_order and ell L-structures. Returns None when
    ell = h1_order (an L-space; the bound degenerates)."""
    if h1_order < 1:
        raise ValueError("h1_order must be positive")
    if ell < 0 or ell > h1_order:
        raise ValueError(f"ell = {ell} outside [0, {h1_order}]")
    if ell == h1_order:
        return None
    return Fraction(h1_order - ell + 1, 2)


def first_kind_range(g: int, p: int, q: int) -> range:
    """The first-kind classes {gq, ..., p + q - gq - 1}, ascending; g >= 1
    keeps them inside [0, p), so each is its own residue. Empty iff
    p <= (2g-1)q."""
    _check_classification_args(g, p, q)
    return range(g * q, p + q - g * q)


def first_kind_closed_form(g: int, p: int, q: int) -> frozenset[int]:
    """The classes of first_kind_range as a set."""
    return frozenset(first_kind_range(g, p, q))


def first_kind_brute(g: int, p: int, q: int) -> frozenset[int]:
    """Independent scan: i is first kind iff no slot phi(s) lies strictly
    inside (-g, g); monotonicity makes a finite s window sufficient."""
    _check_classification_args(g, p, q)
    out = set()
    for i in range(p):
        s = -((i + (g + 1) * q) // p) - 1  # start well below the band
        good = True
        while True:
            value = phi(i, p, q, s)
            if value >= g:
                break
            if value > -g:
                good = False
                break
            s += 1
        if good:
            out.add(i)
    return frozenset(out)


def classify_spinc(g: int, p: int, q: int) -> SpincClassification:
    """Full classification with second-kind witnesses; needs p >= (2g-1)q
    so that the interior slot is unique."""
    _check_classification_args(g, p, q)
    if p < (2 * g - 1) * q:
        raise ValueError(
            f"witnesses are not unique for p < (2g-1)q (p={p}, q={q}, g={g})"
        )
    first = first_kind_closed_form(g, p, q)
    second: dict[int, tuple[int, int]] = {}
    for i in range(p):
        if i in first:
            continue
        # smallest s with phi(s) > -g; for second-kind classes it lies in the band
        s = ((1 - g) * q - i - 1) // p + 1
        value = phi(i, p, q, s)
        if not -g < value < g:
            raise AssertionError(f"classification witness failed for i={i}")
        second[i] = (s, value)
    return SpincClassification(frozenset(first), second)


def _check_classification_args(g: int, p: int, q: int) -> None:
    if g < 1:
        raise ValueError("classification requires g >= 1")
    if p < 1 or q < 1:
        raise ValueError("classification requires p, q >= 1")
    if gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not reduced")


def ell_formula_lspace(g: int, p: int, q: int) -> int | None:
    """L-structure count p - (2g-1)q for negative surgeries on a genus-g
    knot with extremal tau; None when the hypothesis p > (2g-1)q fails."""
    _check_classification_args(g, p, q)
    if p <= (2 * g - 1) * q:
        return None
    return p - (2 * g - 1) * q


TAU_EXTREMAL_FIRST = "tau_extremal_first"
TAU_EXTREMAL_BOTH = "tau_extremal_both"


def pair_obstruction(g1: int, q1: int, g2: int, q2: int, p: int, mode: str) -> Verdict:
    """Can -p/q1 surgery on a genus-g1 knot and -p/q2 surgery on a
    genus-g2 knot give the same manifold?

    mode tau_extremal_first assumes extremal tau only for the first knot
    and checks 2g2 - 1 >= (q1/q2)(2g1 - 1); tau_extremal_both assumes it
    for both and checks equality. 'violated' means the framed pair is
    obstructed (not surgery equivalent).
    """
    if mode not in (TAU_EXTREMAL_FIRST, TAU_EXTREMAL_BOTH):
        raise ValueError(f"unknown mode {mode!r}")
    for label, value in (("p", p), ("q1", q1), ("q2", q2)):
        if value < 1:
            return Verdict(NOT_APPLICABLE, detail=f"{label} must be positive")
    for label, g, q in (("first", g1, q1), ("second", g2, q2)):
        if g < 1:
            return Verdict(NOT_APPLICABLE, detail=f"{label} genus must be >= 1")
        if gcd(p, q) != 1:
            return Verdict(NOT_APPLICABLE, detail=f"p/q for the {label} knot is not reduced")
        if p - (2 * g - 1) * q <= 0:
            return Verdict(
                NOT_APPLICABLE, detail=f"requires p - (2g-1)q > 0 for the {label} knot"
            )
    lhs = Fraction(2 * g2 - 1)
    rhs = Fraction(q1, q2) * (2 * g1 - 1)
    if mode == TAU_EXTREMAL_FIRST:
        status = VIOLATED if lhs < rhs else CONSISTENT
        op = "<" if lhs < rhs else ">="
    else:
        status = VIOLATED if lhs != rhs else CONSISTENT
        op = "!=" if lhs != rhs else "=="
    return Verdict(status, lhs, rhs, detail=f"2g2-1 = {lhs} {op} {rhs} = (q1/q2)(2g1-1)")


def k_family_obstruction(m: int, n: int, q1: int, q2: int, p: int) -> Verdict:
    """Obstruction for -p/q1 surgery on K_{2m,2k+1} to match -p/q2 surgery
    on a genus-n candidate: using ell = p - m*q1, the genus bound forces
    q2/q1 >= m/(2n-1); smaller ratios are violated."""
    if m < 1 or n < 1:
        return Verdict(NOT_APPLICABLE, detail="m and n must be >= 1")
    for label, value in (("p", p), ("q1", q1), ("q2", q2)):
        if value < 1:
            return Verdict(NOT_APPLICABLE, detail=f"{label} must be positive")
    if p - (2 * m - 1) * q1 <= 0:
        return Verdict(NOT_APPLICABLE, detail="requires p - (2m-1)q1 > 0")
    if p - (2 * n - 1) * q2 <= 0:
        return Verdict(NOT_APPLICABLE, detail="requires p - (2n-1)q2 > 0")
    if gcd(p, q1) != 1 or gcd(p, q2) != 1:
        return Verdict(NOT_APPLICABLE, detail="slopes must be reduced")
    lhs = Fraction(q2, q1)
    rhs = Fraction(m, 2 * n - 1)
    status = VIOLATED if lhs < rhs else CONSISTENT
    return Verdict(status, lhs, rhs, detail=f"q2/q1 = {lhs} vs m/(2n-1) = {rhs}")
