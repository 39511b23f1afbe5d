"""Truncated mapping cone: windows, per-class groups, aggregate reports."""

import random
import time
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, event, example, given, reject, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import helpers
from hfcone import cone
from hfcone.cfk import mirror, staircase_from_alexander, to_profile
from hfcone.cone import (
    ConeTooLarge,
    Framing,
    FramingError,
    SpincEntry,
    Window,
    phi,
    spinc_group,
    spinc_runs,
    surgery_report,
    truncation_window,
)
from hfcone.exactla import AbelianGroup, EliminationOverflow, smith_normal_form
from hfcone.obstruct import classify_spinc, first_kind_closed_form, first_kind_range, genus_inequality
from hfcone.profiles import (
    LEFT_EDGE,
    LocalData,
    SurgeryProfile,
    figure_eight,
    k_family,
    lspace_knot,
    tau_extremal,
    unknot,
)

Z = AbelianGroup(1, ())


# --- framings and phi ---------------------------------------------------


def test_phi_examples():
    for s in range(-4, 5):
        assert phi(0, 1, 1, s) == s
    assert phi(2, 5, 2, -1) == -2
    assert phi(0, -5, 1, 1) == -5
    with pytest.raises(ValueError, match="q must be positive"):
        phi(0, 1, 0, 0)


def test_framing_parse_and_normalize():
    assert Framing.parse("7") == Framing(7, 1)
    assert Framing.parse("-5/3") == Framing(-5, 3)
    assert Framing.parse(" 3/2 ") == Framing(3, 2)
    assert Framing(3, -2) == Framing(-3, 2)  # sign moves to p
    assert str(Framing(-9, 2)) == "-9/2"


def test_framing_rejections():
    with pytest.raises(FramingError):
        Framing.parse("1/0")
    with pytest.raises(FramingError):
        Framing.parse("0/3")
    with pytest.raises(FramingError):
        Framing.parse("4/2")
    with pytest.raises(FramingError):
        Framing.parse("three halves")


# --- truncation windows -------------------------------------------------


def test_window_unknot_half():
    w = truncation_window(unknot(), Framing(1, 2), 0)
    assert w == Window(a_lo=-1, a_hi=2, b_lo=0, b_hi=2)


def test_window_negative_framing_genus_one():
    w = truncation_window(lspace_knot(1), Framing(-1, 1), 0)
    assert w == Window(a_lo=-1, a_hi=1, b_lo=-1, b_hi=2)


def test_window_negative_framing_genus_three():
    w = truncation_window(lspace_knot(3), Framing(-1, 1), 0)
    assert w == Window(a_lo=-3, a_hi=3, b_lo=-3, b_hi=4)


def test_window_slot_counts():
    # positive p keeps one extra A-slot, negative p one extra B-slot
    for framing in (Framing(3, 2), Framing(7, 1)):
        w = truncation_window(figure_eight(), framing, 1)
        assert (w.a_hi - w.a_lo) == (w.b_hi - w.b_lo) + 1
    for framing in (Framing(-3, 2), Framing(-7, 1)):
        w = truncation_window(figure_eight(), framing, 1)
        assert (w.a_hi - w.a_lo) == (w.b_hi - w.b_lo) - 1


@st.composite
def crossing_cases_st(draw):
    # huge |p| and q: the window and stretch ends are floor divisions, and
    # only phi itself is trusted to check them
    g = draw(st.integers(0, 6))
    if g == 0:
        profile = unknot()
    elif draw(st.booleans()):
        profile = lspace_knot(g)
    else:
        profile = k_family(g, draw(st.integers(1, 3)))
    p = draw(st.integers(1, 10**12))
    q = draw(st.integers(1, 10**12))
    assume(gcd(p, q) == 1)
    framing = Framing(draw(st.sampled_from([1, -1])) * p, q)
    return profile, framing, draw(st.integers(0, p - 1)), draw(st.integers(0, 3))


@given(crossing_cases_st())
@example((lspace_knot(3), Framing(-1), 0, 0))
@example((k_family(2, 1), Framing(7, 10**12), 5, 1))
@settings(max_examples=300, deadline=None)
def test_window_and_stretch_ends_are_phi_crossings(case):
    profile, framing, i, pad = case
    p, q = framing.p, framing.q
    g_bound = max(profile.genus, 1)
    sign = 1 if p > 0 else -1

    def before(s):  # on the side of the band that phi starts from
        return sign * phi(i, p, q, s) <= -g_bound

    def past(s):
        return sign * phi(i, p, q, s) >= g_bound

    w = truncation_window(profile, framing, i, pad)
    a_lo, a_hi = w.a_lo + pad, w.a_hi - pad
    assert before(a_lo) and not before(a_lo + 1)
    assert past(a_hi) and not past(a_hi - 1)
    # p > 0 drops the first slot's v row, p < 0 keeps the last slot's h row
    assert (w.b_lo, w.b_hi) == ((w.a_lo + 1, w.a_hi) if p > 0 else (w.a_lo, w.a_hi + 1))

    def piece(s):
        return sum(cut <= phi(i, p, q, s) for cut in profile.cuts)

    s = w.a_lo
    for j, data, k in cone._stretches(profile, framing, i, w.a_lo, w.a_hi):
        assert k >= 1 and data == profile.pieces[j]
        assert piece(s) == piece(s + k - 1) == j
        s += k
        assert s > w.a_hi or piece(s) != j
    assert s == w.a_hi + 1


@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_second_kind_witness_is_the_slot_after_a_lo(g, q, extra):
    # past (2g - 1) q every window has two or three slots: the first kind
    # two, and the second kind's band slot, the witness, right after a_lo
    p = (2 * g - 1) * q + extra
    assume(gcd(p, q) == 1)
    profile = lspace_knot(g)
    classes = classify_spinc(g, p, q)
    for i in range(p):
        w = truncation_window(profile, Framing(p, q), i)
        if i in classes.first_kind:
            assert w.a_hi - w.a_lo == 1
        else:
            assert classes.second_kind[i] == (w.a_lo + 1, phi(i, p, q, w.a_lo + 1))
            assert w.a_hi - w.a_lo == 2


# --- single spin-c groups ----------------------------------------------


def test_unknot_surgeries_are_lens_spaces():
    for framing in (Framing(1), Framing(1, 2), Framing(5, 3), Framing(-7, 4), Framing(13, 5)):
        report = surgery_report(unknot(), framing)
        assert all(e.group == Z for e in report.spinc)
        assert report.ell == abs(framing.p)
        assert report.total_rank == abs(framing.p)


def test_genus_three_staircase_minus_one():
    assert spinc_group(lspace_knot(3), Framing(-1), 0) == AbelianGroup(11, ())


def test_figure_eight_minus_five():
    assert spinc_group(figure_eight(), Framing(-5), 0) == AbelianGroup(3, ())


def test_trefoil_framing_sign_regression():
    # pins the slot-direction convention: +1 surgery on the genus-1
    # staircase is an L-space, -1 surgery has rank 3
    assert spinc_group(lspace_knot(1), Framing(1), 0) == Z
    assert spinc_group(lspace_knot(1), Framing(-1), 0) == AbelianGroup(3, ())


def test_spinc_class_range_checked():
    with pytest.raises(ValueError):
        spinc_group(unknot(), Framing(5, 2), 5)
    with pytest.raises(ValueError):
        spinc_group(unknot(), Framing(5, 2), -1)


# --- stretches ----------------------------------------------------------

# a unit alone on the first row of the slot-0 stretch at framing -1/q
PIN = LocalData(1, (0,), (1,))


@pytest.mark.parametrize(
    "data, gain",
    [
        (LocalData(3, (0, 0, 0), (0, 0, 0)), 4),  # zero
        (LocalData(2, (1, 0), (0, 1)), 1),  # full rank
        (LocalData(3, (2, 1, 0), (3, 2, 5)), 2),  # full rank, no unit entry needed
        (LocalData(3, (1, 0, 0), (1, 0, 0)), 2),  # rank 1, direction (1, 1)
        (LocalData(2, (2, 3), (0, 0)), 1),  # rank 1, direction (1, 0), content 1
        (LocalData(1, (-1,), (1,)), 0),  # rank 1, direction (-1, 1)
        (LocalData(1, (2,), (3,)), None),  # direction (2, 3)
        (LocalData(1, (1,), (2,)), None),  # direction (1, 2)
        (LocalData(1, (2,), (2,)), None),  # content 2
        (LocalData(2, (1, 1), (1, -1)), None),  # minors of gcd 2
        (LocalData(3, (1, 0, 0), (0, 1, 0)), 2),  # full rank with a zero column, as in kfam
    ],
)
def test_stretch_collapse_rule(data, gain):
    assert cone._shape(data.v, data.h)[4] == gain
    profile = SurgeryProfile("stretch", 2, {-1: PIN, 0: data, 1: PIN})
    groups = []
    for q in range(3, 7):  # the slot-0 stretch has q copies
        framing = Framing(-1, q)
        groups.append(spinc_group(profile, framing, 0))
        assert groups[-1] == helpers.dense_spinc_group(profile, framing, 0), q
    if gain is not None:
        assert [g.free_rank - groups[0].free_rank for g in groups] == [0, gain, 2 * gain, 3 * gain]
        assert len({g.torsion for g in groups}) == 1


def _minors_gain(v, h):
    """The collapse gain from the 2x2 minors of [v; h], and for rank 1
    from its direction and content: the oracle of _shape's (u, g, c) rule."""
    cols = [(x, y) for x, y in zip(v, h) if x or y]
    if not cols:
        return len(v) + 1
    minors = gcd(*(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in combinations(cols, 2)))
    if minors == 1:
        return len(v) - 1
    if minors:
        return None
    # rank 1: a direction in {0, +-1}^2 and multiples of gcd 1
    x, y = cols[0]
    unit = max(abs(x), abs(y)) == gcd(x, y) and gcd(gcd(*v), gcd(*h)) == 1
    return len(v) - 1 if unit else None


@st.composite
def slot_columns_st(draw):
    # columns from a small pool, so that zero and repeated columns are common
    pool = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=4))
    cols = draw(st.lists(st.sampled_from(pool + [(0, 0)]), min_size=1, max_size=8))
    return tuple(x for x, _ in cols), tuple(y for _, y in cols)


@given(slot_columns_st())
@settings(max_examples=500, deadline=None)
def test_shape_is_the_canonical_two_column_form(vh):
    v, h = vh
    u, g, c, gx, gain = cone._shape(v, h)
    assert g == gcd(*h) and gx == gcd(*v) == gcd(u, c)
    assert g * c == gcd(*(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in combinations(zip(v, h), 2)))
    assert 0 <= u < c or c == 0 and (g or u == 0)
    # every column lies in the span of (u, g) and (c, 0), which with the
    # index g c above makes the two spans equal
    for x, y in zip(v, h):
        k = y // g if g else 0
        assert k * g == y
        assert (x - k * u) % c == 0 if c else x == k * u
    assert gain == _minors_gain(v, h)


def test_non_unit_direction_keeps_every_copy():
    profile = SurgeryProfile("stretch", 2, {-1: PIN, 0: LocalData(1, (2,), (3,)), 1: PIN})
    for q in range(1, 9):
        assert spinc_group(profile, Framing(-1, q), 0) == AbelianGroup(1, (3**q,))


def test_column_budget_counts_emitted_columns(monkeypatch):
    # fig8 at -1/q: stretches of 1, q and 1 slots of ranks 1, 3 and 1,
    # the middle one collapsed to two copies
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 8)
    assert spinc_group(figure_eight(), Framing(-1, 10**9), 0) == AbelianGroup(2 * 10**9 + 1)
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 7)
    with pytest.raises(ConeTooLarge, match=r"framing -1/1000000000, class i=0"):
        spinc_group(figure_eight(), Framing(-1, 10**9), 0)
    # stretches of 1, 20, 20 and 21 slots of rank 1: the (2, 3) data
    # emitted copy by copy, PIN collapsed on either side, and on the right
    # merged with the end slot, whose data LEFT_EDGE equals PIN
    profile = SurgeryProfile("stretch", 2, {-1: PIN, 0: LocalData(1, (2,), (3,)), 1: PIN})
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 25)
    assert spinc_group(profile, Framing(-1, 20), 0) == AbelianGroup(1, (3**20,))
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 24)
    with pytest.raises(ConeTooLarge):
        spinc_group(profile, Framing(-1, 20), 0)


def test_band_closed_forms_keep_the_column_budget(monkeypatch):
    # fig8 at -5, class 0: a window of three slots of widths 1 + 3 + 1,
    # answered from its middle slot without a scan
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 5)
    assert spinc_group(figure_eight(), Framing(-5), 0) == AbelianGroup(3)
    monkeypatch.setattr(cone, "COLUMN_BUDGET", 4)
    with pytest.raises(ConeTooLarge, match=r"framing -5/1, class i=0"):
        spinc_group(figure_eight(), Framing(-5), 0)


def test_each_plan_is_reduced_once_per_profile(monkeypatch):
    reduced = []
    reduce = cone._reduce
    monkeypatch.setattr(cone, "_reduce", lambda *args: reduced.append(args[1]) or reduce(*args))
    profile = lspace_knot(3)
    framings = [Framing(p, q) for q in range(1, 6) for p in range(-40, 41) if p and gcd(p, q) == 1]
    groups = [[group for _, group in spinc_runs(profile, f)] for f in framings]
    # one plan a sign, the band slot's stretch of two copies between the
    # end slots; the windows of two and three slots, edge-edge and
    # edge-band-edge, are answered without a plan
    assert len(reduced) == len(profile.plans) == 2
    # a fresh profile object per framing shares nothing with the others,
    # and a bounded cache gives the same groups
    assert [[group for _, group in spinc_runs(lspace_knot(3), f)] for f in framings] == groups
    monkeypatch.setattr(cone, "PLAN_CACHE", 2)
    small = lspace_knot(3)
    assert [[group for _, group in spinc_runs(small, f)] for f in framings] == groups
    assert len(small.plans) <= 2
    # a cache of one plan evicts at each change of sign and reduces again
    monkeypatch.setattr(cone, "PLAN_CACHE", 1)
    tiny, before = lspace_knot(3), len(reduced)
    assert [[group for _, group in spinc_runs(tiny, f)] for f in framings] == groups
    assert len(tiny.plans) <= 1
    assert len(reduced) - before > 2


# --- full reports -------------------------------------------------------


def test_figure_eight_family_smallest():
    report = surgery_report(figure_eight(), Framing(-5))
    assert report.ell == 4
    assert report.total_rank == 7
    assert sorted(e.group.free_rank for e in report.spinc) == [1, 1, 1, 1, 3]
    assert all(e.group.torsion == () for e in report.spinc)


def test_figure_eight_fractional():
    report = surgery_report(figure_eight(), Framing(-9, 2))
    assert report.ell == 7
    assert report.total_rank == 13
    first = first_kind_closed_form(1, 9, 2)
    for e in report.spinc:
        expected = 1 if e.i in first else 3
        assert e.group == AbelianGroup(expected, ())


def test_genus_two_staircase_report():
    report = surgery_report(lspace_knot(2), Framing(-7))
    assert report.ell == 4
    assert sorted(e.group.free_rank for e in report.spinc) == [1, 1, 1, 1, 3, 3, 3]
    assert report.total_rank == 13


def test_k_family_minus_three():
    report = surgery_report(k_family(1, 1), Framing(-3))
    assert report.ell == 2
    assert sorted(e.group.free_rank for e in report.spinc) == [1, 1, 3]
    assert report.total_rank == 5


def test_report_entries_ascending():
    report = surgery_report(figure_eight(), Framing(-5))
    assert [e.i for e in report.spinc] == list(range(5))


def test_tau_extremal_second_kind_never_l():
    report = surgery_report(tau_extremal(2, {0: 3, 1: 3}), Framing(-9))
    first = first_kind_closed_form(2, 9, 1)
    for e in report.spinc:
        if e.i in first:
            assert e.group == Z
        else:
            assert e.group.free_rank >= 3


# --- property tests -----------------------------------------------------


@st.composite
def profiles_st(draw):
    g = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
    if g == 0:
        v = draw(st.sampled_from([1, -1]))
        h = draw(st.sampled_from([1, -1]))
        return SurgeryProfile("hx:g=0", 0, {0: LocalData(1, (v,), (h,))})
    overrides = {}
    for s_abs in range(g):
        r = draw(st.sampled_from([1, 1, 3, 5]))
        for s in {s_abs, -s_abs}:
            v = tuple(draw(st.integers(-2, 2)) for _ in range(r))
            h = tuple(draw(st.integers(-2, 2)) for _ in range(r))
            overrides[s] = LocalData(r, v, h)
    # the entry beside each end unit is free: h at s = g, v at s = -g
    overrides[g] = LocalData(1, (draw(st.sampled_from([1, -1])),), (draw(st.integers(-3, 3)),))
    overrides[-g] = LocalData(1, (draw(st.integers(-3, 3)),), (draw(st.sampled_from([1, -1])),))
    return SurgeryProfile(f"hx:g={g}", g, overrides)


@st.composite
def framings_st(draw, pmax=30, qmax=8):
    p = draw(st.integers(1, pmax))
    q = draw(st.integers(1, qmax))
    assume(gcd(p, q) == 1)
    return Framing(draw(st.sampled_from([1, -1])) * p, q)


@given(profiles_st(), framings_st(), st.integers(0, 10**9), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_unit_cancellation_matches_dense_smith_form(profile, framing, i_raw, pad):
    i = i_raw % abs(framing.p)
    dense = helpers.dense_spinc_group(profile, framing, i, pad)
    event("torsion" if dense.torsion else "torsion-free")
    event(f"p {'positive' if framing.p > 0 else 'negative'}")
    assert spinc_group(profile, framing, i, pad) == dense


@st.composite
def torsion_profiles_st(draw):
    """Profiles whose slots inside the window carry non-unit entries more
    often than units, so that most cones keep torsion or a chain without
    a unit to cancel."""
    g = draw(st.integers(1, 3))
    entries = st.sampled_from([0, 2, -2, 3, -3, 4, 1, -1])
    ranks = [draw(st.sampled_from([1, 1, 2, 3])) for _ in range(g)]
    overrides = {}
    for s in range(1 - g, g):
        r = ranks[abs(s)]
        v = tuple(draw(entries) for _ in range(r))
        h = tuple(draw(entries) for _ in range(r))
        overrides[s] = LocalData(r, v, h)
    # the entry beside each end unit is free: h at s = g, v at s = -g
    overrides[g] = LocalData(1, (draw(st.sampled_from([1, -1])),), (draw(st.integers(-3, 3)),))
    overrides[-g] = LocalData(1, (draw(st.integers(-3, 3)),), (draw(st.sampled_from([1, -1])),))
    return SurgeryProfile(f"torsion:g={g}", g, overrides)


@given(torsion_profiles_st(), framings_st(pmax=6, qmax=12), st.integers(0, 10**9))
@example(
    # _quotient falls through to _general with a free generator and a
    # marked summand: Z + (Z/3)^4 + Z/36
    SurgeryProfile("torsion:g=3", 3, {
        s: LocalData(1, (v,), (h,))
        for s, v, h in ((-2, 0, -3), (-1, 3, 0), (0, 2, -1), (1, -1, -3), (2, 3, 1))
    }),
    Framing(-5, 9),
    3,
)
@settings(max_examples=300, deadline=None)
def test_scan_matches_dense_oracle_with_torsion(profile, framing, i_raw):
    # the scan's closed forms and its tracked Smith form, on both signs of
    # p, against the dense Smith form of the whole cone
    i = i_raw % abs(framing.p)
    try:
        dense = helpers.dense_spinc_group(profile, framing, i)
    except EliminationOverflow:
        event("a divisor past 2^63")
        with pytest.raises(EliminationOverflow):
            spinc_group(profile, framing, i)
        return
    event("torsion" if dense.torsion else "torsion-free")
    event(f"p {'positive' if framing.p > 0 else 'negative'}")
    assert spinc_group(profile, framing, i) == dense


# entries of band_cases_st: small ones, and now and then one near +-2^62,
# so that a divisor can pass 2^63
BAND_ENTRIES = [*range(-6, 7), 2**62 - 1, 2**62 + 1, -(2**62 + 3)]


@st.composite
def band_cases_st(draw):
    """(profile, framing, i) with |p| >= (2G - 1) q, G = max(genus, 1), so
    that class i has at most one slot in the band -G < phi < G."""
    g = draw(st.integers(0, 3))
    entries = st.sampled_from(BAND_ENTRIES)
    if g == 0:
        v, h = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        profile = SurgeryProfile("band:g=0", 0, {0: LocalData(1, (v,), (h,))})
    else:
        ranks = [draw(st.sampled_from([1, 1, 2, 3])) for _ in range(g)]
        overrides = {
            s: LocalData(ranks[abs(s)], tuple(draw(entries) for _ in range(ranks[abs(s)])),
                         tuple(draw(entries) for _ in range(ranks[abs(s)])))
            for s in range(1 - g, g)
        }
        # the entry beside each end unit is free: h at s = g, v at s = -g
        overrides[g] = LocalData(1, (draw(st.sampled_from([1, -1])),), (draw(entries),))
        overrides[-g] = LocalData(1, (draw(entries),), (draw(st.sampled_from([1, -1])),))
        profile = SurgeryProfile(f"band:g={g}", g, overrides)
    q = draw(st.integers(1, 8))
    least = (2 * max(g, 1) - 1) * q
    p = draw(st.integers(least, least + 30))
    assume(gcd(p, q) == 1)
    return profile, Framing(draw(st.sampled_from([1, -1])) * p, q), draw(st.integers(0, p - 1))


@given(band_cases_st())
@settings(max_examples=300, deadline=None)
def test_band_closed_forms_match_the_scan(case):
    # a window of two or three slots is answered from its slots alone; pad 1
    # sends the same class through the stretches and the scan
    profile, framing, i = case
    window = truncation_window(profile, framing, i)
    slots = window.a_hi - window.a_lo + 1
    assert slots <= 3
    event(f"{slots} slots, p {'positive' if framing.p > 0 else 'negative'}")
    outcomes = []
    for pad in (0, 1):
        try:
            outcomes.append(spinc_group(profile, framing, i, pad))
        except EliminationOverflow as e:
            outcomes.append((type(e), str(e)))
    assert outcomes[0] == outcomes[1]
    try:
        dense = helpers.dense_spinc_group(profile, framing, i)
    except EliminationOverflow:
        event("a divisor past 2^63")
        assert outcomes[0][0] is EliminationOverflow
    else:
        assert outcomes[0] == dense
    # the classes with no slot in the band are the paper's first kind
    g, p, q = profile.genus, framing.p, framing.q
    if p > 0 and g >= 1:
        two = [k for k in range(p) if (w := truncation_window(profile, framing, k)).a_hi - w.a_lo == 1]
        assert two == list(first_kind_range(g, p, q))


def _assert_runs_match_dense(profile, framing, report):
    runs = spinc_runs(profile, framing)
    assert len(runs) <= 2 * max(profile.genus, 1)
    assert [i for run, _ in runs for i in run] == list(range(abs(framing.p)))
    assert all(len(run) for run, _ in runs)
    assert report.runs == tuple(runs)
    for run, group in runs:
        for i in run:
            dense = helpers.dense_spinc_group(profile, framing, i)
            assert group == dense, i
            assert report.spinc[i] == SpincEntry(i, dense, dense.is_z), i


@given(profiles_st(), framings_st(qmax=12))
@settings(max_examples=150, deadline=None)
def test_spinc_runs_match_dense_per_class(profile, framing):
    event(f"p {'positive' if framing.p > 0 else 'negative'}")
    _assert_runs_match_dense(profile, framing, surgery_report(profile, framing))


def test_report_is_counted_from_its_runs():
    # spinc is built on first read, so counting a report costs O(runs); the
    # cheap check comes first, before the class count that would exhaust
    # memory were every class listed
    assert "spinc" not in vars(surgery_report(figure_eight(), Framing(-10**6)))
    t0 = time.perf_counter()
    report = surgery_report(figure_eight(), Framing(-10**12))
    assert (report.ell, report.total_rank) == (10**12 - 1, 10**12 + 2)
    assert time.perf_counter() - t0 < 0.1


def test_spinc_runs_with_edge_overrides():
    # a nonzero h at s = g and sign-flipped edge data beyond the genus
    profile = SurgeryProfile(
        "edges",
        2,
        {
            -4: LocalData(1, (0,), (-1,)),
            -2: LocalData(1, (3,), (1,)),
            -1: LocalData(3, (1, 2, 0), (0, 1, 1)),
            0: LocalData(1, (2,), (1,)),
            1: LocalData(3, (1, 0, 2), (2, 0, 1)),
            2: LocalData(1, (-1,), (2,)),
            3: LocalData(1, (-1,), (0,)),
        },
    )
    for framing in (Framing(37, 3), Framing(-37, 3), Framing(29, 1), Framing(-31, 11)):
        _assert_runs_match_dense(profile, framing, surgery_report(profile, framing))
    assert len(spinc_runs(profile, Framing(10**30 + 1, 7))) <= 6


def test_unit_chains_with_non_unit_entries_do_not_overflow():
    # v = 1 with h = 2 or 3 does not collapse, so a stretch is a chain of
    # columns; cancelled from the wrong end, its entries doubled per column
    # and passed 2^63 at -1/32 (exit 70 where the dense oracle answers)
    chains = [
        {-1: LocalData(1, (0,), (0,)), 0: LocalData(1, (1,), (2,)), 1: LocalData(1, (1,), (2,))},
        {-1: LocalData(1, (2,), (1,)), 0: LocalData(1, (1,), (3,)), 1: LocalData(1, (1,), (2,))},
    ]
    for overrides in chains:
        profile = SurgeryProfile("chain", 2, overrides)
        for framing in (Framing(-1, 32), Framing(-3, 100)):
            for i in range(abs(framing.p)):
                dense = helpers.dense_spinc_group(profile, framing, i)
                assert spinc_group(profile, framing, i) == dense, (framing, i)


def test_non_unit_remainder_goes_to_smith_form():
    # v_0 = h_0 = [2]: the -1 surgery class keeps a 2 that no unit clears
    profile = SurgeryProfile("two", 1, {0: LocalData(1, (2,), (2,))})
    framing = Framing(-1)
    group = spinc_group(profile, framing, 0)
    assert group == AbelianGroup(1, (2,))
    d = helpers.dense_cone_matrix(profile, framing, 0, truncation_window(profile, framing, 0))
    s = sympy_snf(Matrix(d))
    nrows, ncols = len(d), len(d[0])
    diag = [abs(s[k, k]) for k in range(min(nrows, ncols))]
    rank = sum(1 for x in diag if x)
    assert group.free_rank == (ncols - rank) + (nrows - rank)
    assert group.torsion == tuple(sorted(x for x in diag if x > 1))


@given(profiles_st(), framings_st(), st.integers(0, 10**9), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_window_enlargement_never_changes_the_group(profile, framing, i_raw, pad):
    i = i_raw % abs(framing.p)
    assert spinc_group(profile, framing, i, pad=pad) == spinc_group(profile, framing, i)


@given(profiles_st(), framings_st(), st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_free_rank_is_odd(profile, framing, i_raw):
    i = i_raw % abs(framing.p)
    group = spinc_group(profile, framing, i)
    assert group.free_rank % 2 == 1
    assert group.free_rank >= 1


@given(profiles_st(), framings_st(), st.integers(0, 10**9), st.data())
@settings(max_examples=100, deadline=None)
def test_single_row_sign_flip_is_invisible(profile, framing, i_raw, data):
    i = i_raw % abs(framing.p)
    g = profile.genus
    s = data.draw(st.integers(-g, g))
    which = data.draw(st.sampled_from(["v", "h"]))
    base = profile.local(s)
    v, h = base.v, base.h
    if which == "v":
        v = tuple(-x for x in v)
    else:
        h = tuple(-x for x in h)
    overrides = dict(profile.overrides)
    overrides[s] = LocalData(base.rank, v, h)
    flipped = SurgeryProfile(profile.name + "-flip", g, overrides)
    assert spinc_group(flipped, framing, i) == spinc_group(profile, framing, i)


BUILTINS_POSITIVE_GENUS = [
    lspace_knot(1),
    lspace_knot(2),
    lspace_knot(3),
    figure_eight(),
    k_family(1, 1),
    k_family(2, 1),
    k_family(2, 2),
    tau_extremal(2, {1: 3}),
]


@given(
    profiles_st() | st.sampled_from([unknot(), *BUILTINS_POSITIVE_GENUS]),
    framings_st(pmax=12, qmax=60),
    st.integers(0, 10**9),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_collapsed_stretches_match_per_slot_oracle(profile, framing, i_raw, pad):
    i = i_raw % abs(framing.p)
    try:
        dense = helpers.dense_spinc_group(profile, framing, i, pad)
    except EliminationOverflow:
        reject()  # the oracle's own 2^63 check
    event("torsion" if dense.torsion else "torsion-free")
    event(f"p {'positive' if framing.p > 0 else 'negative'}")
    event("stretch of 3 or more" if framing.q >= 3 * abs(framing.p) else "short stretches")
    assert spinc_group(profile, framing, i, pad) == dense


# data for runs of equal slots: zero and collapsible data, and also
# (2, 3) and (1, 2), which keep every copy, and (2, 3) leaves torsion
RUN_DATA = [
    LocalData(1, (0,), (0,)),
    LocalData(1, (1,), (1,)),
    LocalData(1, (0,), (1,)),
    LocalData(1, (1,), (0,)),
    LocalData(3, (0, 0, 0), (0, 0, 0)),
    LocalData(3, (1, 0, 0), (0, 1, 0)),
    LocalData(3, (1, 0, 0), (1, 0, 0)),
]
CHAIN_DATA = [LocalData(1, (2,), (3,)), LocalData(1, (1,), (2,))]


@st.composite
def long_segment_profiles_st(draw):
    """Profiles whose slots 0..g-1 form a few runs of equal data, mirrored
    onto 0..1-g with data of the same rank, and units of either sign at
    +-g."""
    g = draw(st.integers(2, 6))
    ends = sorted(draw(st.sets(st.integers(1, g - 1), max_size=2)))
    overrides = {}
    for lo, hi in zip([0, *ends], [*ends, g]):
        data = draw(st.sampled_from(RUN_DATA + CHAIN_DATA * 4))
        # the mirrored run takes the same data or other data of its rank
        mirror = draw(st.sampled_from([data] * 4 + [d for d in RUN_DATA if d.rank == data.rank]))
        for s in range(lo, hi):
            overrides[s] = data
            if s:
                overrides[-s] = mirror
    overrides[g] = LocalData(1, (draw(st.sampled_from([1, -1])),), (0,))
    overrides[-g] = LocalData(1, (0,), (draw(st.sampled_from([1, -1])),))
    return SurgeryProfile(f"runs:g={g}", g, overrides)


# the genus-3 (2, 3) chain at 1/10 is Z, though eliminating its units
# first drives entries past 2^63
CHAIN_G3 = SurgeryProfile(
    "runs:g=3",
    3,
    {
        **{s: LocalData(1, (2,), (3,)) for s in range(-2, 3)},
        3: LocalData(1, (1,), (0,)),
        -3: LocalData(1, (0,), (1,)),
    },
)


@given(long_segment_profiles_st(), framings_st(pmax=8, qmax=10))
@example(CHAIN_G3, Framing(1, 10))
@settings(max_examples=300, deadline=None)
def test_long_equal_segments_match_per_slot_oracle(profile, framing):
    # merged stretches, cuts only where the data change, and the plan cache,
    # checked class by class against the dense cone of every slot
    longest = max((hi - lo for lo, hi, _ in profile.segments), default=0)
    event(f"a segment of {'3 or more' if longest >= 3 else 'at most 2'} slots")
    event(f"p {'positive' if framing.p > 0 else 'negative'}")
    try:
        dense = [helpers.dense_spinc_group(profile, framing, i) for i in range(abs(framing.p))]
    except EliminationOverflow:
        reject()  # a divisor past 2^63, which the engine refuses as well
    event("torsion" if any(group.torsion for group in dense) else "torsion-free")
    runs = spinc_runs(profile, framing)
    assert [group for run, group in runs for i in run] == dense
    assert [spinc_group(profile, framing, i) for i in range(abs(framing.p))] == dense
    # the same groups with the plan cache cold, queried in reverse order
    cold = SurgeryProfile(profile.name, profile.genus, profile.overrides)
    backwards = [spinc_group(cold, framing, i) for i in reversed(range(abs(framing.p)))]
    assert backwards[::-1] == dense


def _chain_classes(a, b, qs):
    """(profile, framing, i, dense cone, sympy's nonzero invariant
    factors) of each class of the genus-2 chain with local 0 = local 1 =
    (a, b) and local -1 zero, at p in +-1..3 and q in qs."""
    zero = LocalData(1, (0,), (0,))
    data = LocalData(1, (a,), (b,))
    profile = SurgeryProfile("chain", 2, {-1: zero, 0: data, 1: data})
    for p in (1, 2, 3, -1, -2, -3):
        for q in qs:
            if gcd(p, q) != 1:
                continue
            framing = Framing(p, q)
            for i in range(abs(p)):
                d = helpers.dense_cone_matrix(
                    profile, framing, i, truncation_window(profile, framing, i)
                )
                factors = [abs(x) for x in invariant_factors(Matrix(d)) if x]
                yield profile, framing, i, d, factors


def test_non_unit_chains_match_sympy():
    # chains of (a, b) data do not collapse and hold no unit to cancel;
    # sympy's exact Smith form checks every class: its group wherever the
    # largest invariant factor lies within 2^63 (v 2 h 1 at 1/32 has one
    # at 2^64, v 3 h 2 at -1/20 is Z), an overflow elsewhere
    chains = [(a, b, (1, 7, 16, 32, 40)) for a, b in ((2, 1), (1, 2), (-2, 1), (1, -2))]
    chains += [(2, 3, range(1, 41)), (3, 2, range(1, 41))]
    classes, overflows = Counter(), Counter()
    for a, b, qs in chains:
        for profile, framing, i, d, factors in _chain_classes(a, b, qs):
            classes[a, b] += 1
            if factors[-1] > 2**63:
                with pytest.raises(EliminationOverflow, match=f"^framing {framing}, class i={i}: "):
                    spinc_group(profile, framing, i)
                overflows[a, b] += 1
                continue
            free = len(d) + len(d[0]) - 2 * len(factors)
            torsion = tuple(x for x in factors if x > 1)
            assert spinc_group(profile, framing, i) == AbelianGroup(free, torsion), (a, b, framing, i)
    # 30 of the 644 classes of the (2, 3) and (3, 2) chains have a factor
    # past 2^63; cancelling units first, then eliminating the rest densely,
    # passes 2^63 on 26 more
    assert classes[2, 3] + classes[3, 2] == 644
    assert overflows[2, 3] + overflows[3, 2] == 30


def test_non_unit_chains_with_small_groups():
    # genus 5: (2, 3) at 0..4 and -4, zero at -3 and -2, LEFT_EDGE at -1;
    # cancelling units first and then eliminating the rest densely passes
    # 2^63 on either cone
    chain = LocalData(1, (2,), (3,))
    zero = LocalData(1, (0,), (0,))
    overrides = {s: chain for s in (-4, 0, 1, 2, 3, 4)}
    profile = SurgeryProfile("g5", 5, {**overrides, -3: zero, -2: zero, -1: LEFT_EDGE})
    assert spinc_group(profile, Framing(1, 8), 0) == AbelianGroup(33, (6561,))
    assert spinc_group(CHAIN_G3, Framing(1, 10), 0) == Z


def test_scan_mark_stops_at_state_bits():
    # the chain of v 3 h 2 slots is Z at every -1/q, but the scan's mark
    # grows by log2(3) bits a slot: within STATE_BITS at -1/861, past it
    # at -1/862, where the scan raises after the row that crossed
    chain = SurgeryProfile("chain", 2, {s: LocalData(1, (3,), (2,)) for s in (-1, 0, 1)})
    assert spinc_group(chain, Framing(-1, 861), 0) == Z
    with pytest.raises(EliminationOverflow) as e:
        spinc_group(chain, Framing(-1, 862), 0)
    assert str(e.value) == (
        "framing -1/862, class i=0: integer magnitude exceeded 2^4096 during elimination"
    )


def test_marks_are_canonical():
    # b and any unit multiple of it mark Z/5 alike: both become gcd(b, 5)
    assert cone._marked(0, [(5, 4)], []) == [(5, 1)]
    assert cone._marked(0, [(5, 1)], []) == [(5, 1)]
    # with a = 6 on the free generator, b matters mod gcd(6, 4) = 2
    banked = []
    assert cone._marked(6, [(4, 2), (4, 3)], banked) == [(4, 1)]
    assert banked == [4]


def test_spinc_group_rejects_negative_pad():
    with pytest.raises(ValueError, match="pad must be nonnegative"):
        spinc_group(figure_eight(), Framing(-5), 0, pad=-1)


def test_many_equal_summands_are_linear():
    # every v and h entry 2: 9,000 summands Z/2 at -1/1000, which a
    # pairwise gcd/lcm conversion to invariant factors takes seconds over
    profile = SurgeryProfile("all2", 5, {s: LocalData(3, (2, 2, 2), (2, 2, 2)) for s in range(-4, 5)})
    t0 = time.perf_counter()
    group = spinc_group(profile, Framing(-1, 1000), 0)
    assert time.perf_counter() - t0 < 1.0
    assert group == AbelianGroup(18001, (2,) * 9000)


@given(st.sampled_from(BUILTINS_POSITIVE_GENUS), framings_st(pmax=25, qmax=5))
@settings(max_examples=50, deadline=None)
def test_genus_bound_holds_for_engine_output(profile, framing):
    report = surgery_report(profile, framing)
    verdict = genus_inequality(profile.genus, framing, report.ell)
    assert not verdict.is_violated


@given(st.sampled_from(BUILTINS_POSITIVE_GENUS), framings_st(pmax=25, qmax=5))
@settings(max_examples=50, deadline=None)
def test_first_kind_classes_are_l_structures(profile, framing):
    g = profile.genus
    first = first_kind_closed_form(g, abs(framing.p), framing.q)
    for i in sorted(first):
        assert spinc_group(profile, framing, i) == Z


@given(st.randoms(use_true_random=False), framings_st(pmax=15, qmax=4))
@settings(max_examples=30, deadline=None)
def test_mirror_duality_for_staircases(rng, framing):
    coeffs = helpers.random_lspace_alexander(rng, gmax=4)
    c = staircase_from_alexander(coeffs)
    straight = surgery_report(to_profile(c), framing)
    reflected = surgery_report(to_profile(mirror(c)), Framing(-framing.p, framing.q))
    assert straight.total_rank == reflected.total_rank
    assert straight.ell == reflected.ell
    assert sorted(e.group.free_rank for e in straight.spinc) == sorted(
        e.group.free_rank for e in reflected.spinc
    )


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_profile_generator_agrees_with_validator(rng):
    # the plain-random generator used by the timed suites must only ever
    # produce profiles the validator accepts
    profile = helpers.random_profile(rng)
    assert isinstance(profile, SurgeryProfile)
    framing = helpers.random_framing(rng)
    i = rng.randrange(abs(framing.p))
    group = spinc_group(profile, framing, i)
    assert group.free_rank % 2 == 1
