"""Genus bounds, spin-c classification, and surgery-pair obstructions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfcone.cone import Framing, surgery_report
from hfcone.obstruct import (
    CONSISTENT,
    NOT_APPLICABLE,
    TAU_EXTREMAL_BOTH,
    TAU_EXTREMAL_FIRST,
    VIOLATED,
    classify_spinc,
    ell_formula_lspace,
    first_kind_brute,
    first_kind_closed_form,
    genus_inequality,
    gz_lower_bound,
    k_family_obstruction,
    pair_obstruction,
)
from hfcone.profiles import lspace_knot


def test_genus_inequality_sharp_case():
    v = genus_inequality(1, Framing(-5, 1), 4)
    assert v.status == CONSISTENT
    assert (v.lhs, v.rhs) == (1, 1)


def test_genus_inequality_fractional_framing():
    assert genus_inequality(1, Framing(-9, 2), 7).status == CONSISTENT


def test_genus_inequality_violated():
    v = genus_inequality(1, Framing(13, 1), 4)
    assert v.status == VIOLATED
    assert v.rhs == 9


def test_genus_inequality_guards():
    assert genus_inequality(0, Framing(5, 1), 3).status == NOT_APPLICABLE
    with pytest.raises(ValueError):
        genus_inequality(1, Framing(5, 1), 6)
    with pytest.raises(ValueError):
        genus_inequality(1, Framing(5, 1), -1)


def test_gz_lower_bound_values():
    assert gz_lower_bound(11, 4) == 4
    assert gz_lower_bound(5, 5) is None
    for n in (1, 2, 7):
        assert gz_lower_bound(4 * n + 1, 3 * n + 1) == Fraction(n + 1, 2)
    with pytest.raises(ValueError):
        gz_lower_bound(4, 5)
    with pytest.raises(ValueError):
        gz_lower_bound(0, 0)


def test_first_kind_closed_form_examples():
    assert first_kind_closed_form(1, 5, 2) == frozenset({2, 3, 4})
    assert first_kind_closed_form(2, 3, 1) == frozenset()
    # cardinality always equals p - (2g-1)q when positive; for g=3, p=7,
    # q=1 that is 2, with the residues {3, 4} (cross-checked by the scan)
    assert first_kind_closed_form(3, 7, 1) == frozenset({3, 4})
    assert first_kind_closed_form(3, 7, 1) == first_kind_brute(3, 7, 1)


def test_first_kind_brute_examples():
    assert first_kind_brute(1, 5, 2) == first_kind_closed_form(1, 5, 2)
    assert first_kind_brute(1, 2, 1) == frozenset({1})


def test_first_kind_cardinality():
    for g, p, q in ((1, 5, 2), (2, 9, 1), (3, 25, 3), (4, 50, 7)):
        got = first_kind_closed_form(g, p, q)
        assert len(got) == max(0, p - (2 * g - 1) * q)


def test_first_kind_agreement_small_grid():
    for g in range(1, 4):
        for q in range(1, 6):
            for p in range(1, 40):
                if gcd(p, q) != 1:
                    continue
                assert first_kind_closed_form(g, p, q) == first_kind_brute(g, p, q)


@given(st.integers(1, 5), st.integers(1, 120), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_first_kind_agreement_random(g, p, q):
    assume(gcd(p, q) == 1)
    assert first_kind_closed_form(g, p, q) == first_kind_brute(g, p, q)


def test_classification_args_checked():
    with pytest.raises(ValueError):
        first_kind_closed_form(0, 5, 2)
    with pytest.raises(ValueError):
        first_kind_closed_form(1, 4, 2)
    with pytest.raises(ValueError):
        first_kind_closed_form(1, 5, 0)


def test_classify_spinc_partition_and_witnesses():
    cls = classify_spinc(2, 9, 1)
    assert cls.first_kind | set(cls.second_kind) == set(range(9))
    assert cls.first_kind.isdisjoint(cls.second_kind)
    for i, (s_i, band_value) in cls.second_kind.items():
        assert -2 < band_value < 2
        assert (i + 9 * s_i) // 1 == band_value
    with pytest.raises(ValueError):
        classify_spinc(3, 4, 1)  # witnesses not unique below (2g-1)q


def test_ell_formula_values():
    assert ell_formula_lspace(1, 7, 2) == 5
    assert ell_formula_lspace(3, 11, 2) == 1
    assert ell_formula_lspace(2, 7, 1) == 4
    assert ell_formula_lspace(2, 3, 1) is None


def test_ell_formula_matches_engine():
    for g, p, q in ((1, 7, 2), (2, 7, 1), (3, 11, 2), (2, 13, 3)):
        expected = ell_formula_lspace(g, p, q)
        report = surgery_report(lspace_knot(g), Framing(-p, q))
        assert report.ell == expected


def test_pair_obstruction_equal_data_consistent():
    v = pair_obstruction(1, 2, 1, 2, 7, TAU_EXTREMAL_BOTH)
    assert v.status == CONSISTENT


def test_pair_obstruction_equal_genus_different_q():
    # with both taus extremal, equality forces q1 = q2
    v = pair_obstruction(1, 2, 1, 3, 11, TAU_EXTREMAL_BOTH)
    assert v.status == VIOLATED


def test_pair_obstruction_one_sided():
    v = pair_obstruction(2, 3, 1, 1, 10, TAU_EXTREMAL_FIRST)
    assert v.status == VIOLATED
    assert (v.lhs, v.rhs) == (1, 9)
    ok = pair_obstruction(1, 1, 2, 1, 4, TAU_EXTREMAL_FIRST)
    assert ok.status == CONSISTENT


def test_pair_obstruction_not_applicable_cases():
    assert pair_obstruction(1, 1, 1, 1, 0, TAU_EXTREMAL_FIRST).status == NOT_APPLICABLE
    assert pair_obstruction(0, 1, 1, 1, 5, TAU_EXTREMAL_FIRST).status == NOT_APPLICABLE
    assert pair_obstruction(2, 1, 1, 1, 3, TAU_EXTREMAL_FIRST).status == NOT_APPLICABLE
    assert pair_obstruction(1, 2, 1, 2, 6, TAU_EXTREMAL_FIRST).status == NOT_APPLICABLE
    with pytest.raises(ValueError):
        pair_obstruction(1, 1, 1, 1, 5, "nonsense-mode")


def test_k_family_obstruction_examples():
    sharp = k_family_obstruction(2, 1, 1, 2, 7)
    assert sharp.status == CONSISTENT
    assert (sharp.lhs, sharp.rhs) == (2, 2)

    violated = k_family_obstruction(2, 1, 1, 1, 7)
    assert violated.status == VIOLATED
    assert (violated.lhs, violated.rhs) == (1, 2)

    third = k_family_obstruction(3, 2, 2, 1, 23)
    assert third.status == VIOLATED
    assert third.lhs == Fraction(1, 2)
    assert third.rhs == 1


def test_k_family_obstruction_guards():
    assert k_family_obstruction(0, 1, 1, 1, 7).status == NOT_APPLICABLE
    assert k_family_obstruction(2, 1, 1, 1, 3).status == NOT_APPLICABLE
    assert k_family_obstruction(1, 2, 1, 1, 3).status == NOT_APPLICABLE
    assert k_family_obstruction(1, 1, 2, 1, 6).status == NOT_APPLICABLE
    verdict = k_family_obstruction(1, 1, 0, 1, 5)
    assert (verdict.status, verdict.detail) == (NOT_APPLICABLE, "q1 must be positive")
