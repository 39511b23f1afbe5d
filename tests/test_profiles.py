"""Profile builders, validation rules, and the file format."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcone import profiles
from hfcone.cfk import staircase_from_alexander, to_profile
from hfcone.profiles import (
    LEFT_EDGE,
    RIGHT_EDGE,
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
from test_cone import profiles_st

ALL_BUILTINS = [
    unknot(),
    lspace_knot(1),
    lspace_knot(3),
    figure_eight(),
    k_family(1, 1),
    k_family(2, 1),
    k_family(3, 2),
    tau_extremal(1),
    tau_extremal(2, {1: 3}),
]


def test_unknot_effective_data():
    u = unknot()
    assert u.genus == 0
    assert u.local(0) == LocalData(1, (1,), (1,))
    assert u.local(1) == LocalData(1, (1,), (0,))
    assert u.local(-4) == LocalData(1, (0,), (1,))


def test_lspace_knot_pattern():
    p = lspace_knot(3)
    assert p.local(2) == LocalData(1, (0,), (0,))
    assert p.local(-3) == LocalData(1, (0,), (1,))
    assert p.local(3) == LocalData(1, (1,), (0,))
    assert lspace_knot(1).local(1) == LocalData(1, (1,), (0,))


def test_figure_eight_pattern():
    p = figure_eight()
    assert p.genus == 1
    assert p.local(0) == LocalData(3, (1, 0, 0), (1, 0, 0))
    assert p.local(1) == LocalData(1, (1,), (0,))
    assert p.local(-1) == LocalData(1, (0,), (1,))


def test_k_family_pattern():
    p = k_family(2, 1)
    assert p.genus == 2
    assert p.local(0) == LocalData(3, (1, 0, 0), (0, 1, 0))
    assert p.local(1) == LocalData(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    assert k_family(1, 1).local(0) == LocalData(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_tau_extremal_default_equals_lspace_pattern():
    # same data up to the name, which does not take part in equality
    assert tau_extremal(1) == lspace_knot(1)


def test_tau_extremal_interior_ranks():
    p = tau_extremal(2, {1: 3})
    assert p.local(1) == LocalData(3, (0, 0, 0), (0, 0, 0))
    assert p.local(-1) == LocalData(3, (0, 0, 0), (0, 0, 0))
    assert p.local(0) == LocalData(1, (0,), (0,))
    with pytest.raises(ValueError):
        tau_extremal(2, {2: 3})  # not interior
    with pytest.raises(ValueError):
        tau_extremal(3, {1: 3, -1: 5})  # conflicting |s| ranks
    with pytest.raises(ValueError):
        tau_extremal(0)


def test_all_builtins_validate():
    for p in ALL_BUILTINS:
        assert isinstance(p, SurgeryProfile)


def test_serialize_parse_round_trip():
    derived = [to_profile(staircase_from_alexander(c)) for c in ([1, -1, 1], [1, -1, 0, 1, 0, -1, 1])]
    larger = [lspace_knot(40), k_family(6, 2), tau_extremal(30, {0: 3, 7: 5, 29: 3})]
    for p in ALL_BUILTINS + derived + larger:
        assert parse(serialize(p)) == p


def test_builtins_are_a_few_segments_at_any_genus():
    g = 10**9
    assert lspace_knot(g).segments == ((1 - g, g, LocalData(1, (0,), (0,))),)
    assert len(tau_extremal(g).segments) == 1
    # the default ones, rank 3 at -5, the ones between, rank 3 at 5, the rest
    assert len(tau_extremal(g, {5: 3}).segments) == 5
    assert len(lspace_knot(g).overrides) == 2 * g - 1
    assert lspace_knot(g).local(g - 1) == LocalData(1, (0,), (0,))
    assert lspace_knot(g).local(-g) == LocalData(1, (0,), (1,))
    # k_family alternates its ranks, so every interior slot is a segment
    assert len(k_family(4, 1).segments) == 7


def test_equal_adjacent_slots_merge():
    zero, two = LocalData(1, (0,), (0,)), LocalData(1, (2,), (3,))
    lines = {s: zero for s in range(-3, 4)} | {1: two, 2: two}
    text = "profile m genus 4\n" + "".join(
        f"local {s} rank 1 v {d.v[0]} h {d.h[0]}\n" for s, d in reversed(lines.items())
    )
    p = parse(text)
    assert p.segments == ((-3, 1, zero), (1, 3, two), (3, 4, zero))
    assert p == SurgeryProfile.from_segments("n", 4, [(-3, 1, zero), (1, 3, two), (3, 4, zero)])
    assert dict(p.overrides) == lines
    assert serialize(p) == "profile m genus 4\n" + "".join(
        f"local {s} rank 1 v {d.v[0]} h {d.h[0]}\n" for s, d in sorted(lines.items())
    )


def test_overrides_view_matches_the_slot_table():
    # the slots inside the window, and those outside that break the edge
    # pattern, as a per-slot table held them
    flipped = SurgeryProfile("f", 1, {0: LocalData(1, (0,), (0,)), 3: LocalData(1, (-1,), (0,)),
                                      -2: LocalData(1, (0,), (1,)), 1: LocalData(1, (1,), (0,))})
    assert dict(flipped.overrides) == {0: LocalData(1, (0,), (0,)), 3: LocalData(1, (-1,), (0,))}
    assert 1 not in flipped.overrides and 3 in flipped.overrides
    for p in ALL_BUILTINS + [flipped]:
        g = p.genus
        inside = range(1 - g, g) if g else range(1)
        table = {
            s: p.local(s)
            for s in range(-g - 5, g + 6)
            if s in inside or p.local(s) != (LEFT_EDGE if s < 0 else RIGHT_EDGE)
        }
        assert dict(p.overrides) == table, p.name
        assert len(p.overrides) == len(table) == len(list(p.overrides))


def test_parse_accepts_comments_and_blank_lines():
    text = """
# a comment
profile demo genus 1

local -1 rank 1 v 0 h 1
local 0 rank 3 v 1,0,0 h 1,0,0   # no inline comments, this is a test of spacing
local 1 rank 1 v 1 h 0
"""
    # inline trailing comments are not part of the grammar
    with pytest.raises(ProfileParseError):
        parse(text)
    clean = text.replace("   # no inline comments, this is a test of spacing", "")
    assert parse(clean) == figure_eight()


def test_parse_reports_line_numbers():
    bad = "profile demo genus x\n"
    with pytest.raises(ProfileParseError) as err:
        parse(bad)
    assert err.value.line_no == 1

    bad = "profile demo genus 1\nlocal 0 rank 1 v 1\n"
    with pytest.raises(ProfileParseError) as err:
        parse(bad)
    assert err.value.line_no == 2


def test_parse_rejects_duplicate_slots():
    text = (
        "profile demo genus 1\n"
        "local 0 rank 1 v 1 h 1\n"
        "local 0 rank 1 v 1 h 1\n"
    )
    with pytest.raises(ProfileParseError):
        parse(text)


def test_parse_rejects_empty_input():
    with pytest.raises(ProfileParseError):
        parse("# only a comment\n")


def test_equal_adjacent_local_lines_share_one_slot_data():
    # a line with the same text after the slot as the line before reuses its data
    parsed = parse(
        "profile p genus 2\n"
        "local -1 rank 3 v 1,0,0 h 0,1,0\n"
        "local 1 rank 3 v 1,0,0 h 0,1,0\n"
        "local 0 rank 1 v 1 h 1\n"
    )
    assert len(parsed.pieces) == 5
    assert parsed.pieces[1] is parsed.pieces[3]
    assert parsed.pieces[1] == LocalData(3, (1, 0, 0), (0, 1, 0))


def _parsed(text: str):
    """parse(text), or the type and text of the error it raises."""
    try:
        return parse(text)
    except ProfileError as e:
        return type(e), str(e)


def _parsed_by_tokens(text: str):
    """_parsed(text) with every `local` line read token by token."""
    with mock.patch.object(profiles, "_LOCAL", re.compile(r"(?!)")):
        return _parsed(text)


# an integer longer than int() reads (4,300 digits by default), and int()'s
# wording of that, which differs between Python versions
_LONG = "1" * 5000
try:
    int(_LONG)
except ValueError as e:
    _LONG_ERROR = str(e)

# `local` lines after 'profile x genus 1', and the error each one gives
_LOCAL_LINE_ERRORS = [
    ("local 1_0 rank 1 v 1 h 1", "line 2: slot: expected integer, got '1_0'"),
    ("local \u0661 rank 1 v 1 h 1", "line 2: slot: expected integer, got '\u0661'"),
    ("local 0 rank 1 v +-1 h 1", "line 2: v row: expected integer, got '+-1'"),
    ("local 0 rank 2 v 1,,2 h 1,2", "line 2: v row: expected integer, got ''"),
    ("local 0 rank 1 v 1, h 1", "line 2: v row: expected integer, got ''"),
    ("local 0 rank 1 v 1 h 1;", "line 2: h row: expected integer, got '1;'"),
    ("local 0 rank 1 v 1 h", "line 2: expected 'local <s> rank <r> v <c,...> h <c,...>'"),
    ("local 0 rank 1 v 1 h 1 1", "line 2: expected 'local <s> rank <r> v <c,...> h <c,...>'"),
    ("local 0 rnk 1 v 1 h 1", "line 2: expected 'local <s> rank <r> v <c,...> h <c,...>'"),
    (f"local 0 rank 1 v {2**63 + 1} h 1", "line 2: s=0: v/h entries must lie within +-2^63"),
    ("local 0 rank 2 v 1 h 1", "line 2: s=0: v/h widths (1, 1) != rank 2"),
    pytest.param(f"local {_LONG} rank 1 v 1 h 1", f"line 2: slot: {_LONG_ERROR}", id="long slot"),
    pytest.param(f"local 0 rank {_LONG} v 1 h 1", f"line 2: rank: {_LONG_ERROR}", id="long rank"),
    pytest.param(f"local 0 rank 1 v {_LONG} h 1", f"line 2: v row: {_LONG_ERROR}", id="long v"),
    pytest.param(f"local 0 rank 2 v 1,2 h 1,{_LONG}", f"line 2: h row: {_LONG_ERROR}", id="long h"),
    ("local 0 rank 1 v 1 h 1\nlocal 0 rank 1 v 1 h 1", "line 3: duplicate local line for s=0"),
    # the slot is checked for a duplicate before the rank is read
    ("local 0 rank 1 v 1 h 1\nlocal 0 rank x v 1 h 1", "line 3: duplicate local line for s=0"),
    pytest.param(
        f"local 0 rank 1 v 1 h 1\nlocal 0 rank 1 v {_LONG} h 1",
        "line 3: duplicate local line for s=0",
        id="duplicate, long v",
    ),
]


@pytest.mark.parametrize("lines, message", _LOCAL_LINE_ERRORS)
def test_local_line_errors(lines, message):
    text = f"profile x genus 1\n{lines}\n"
    assert _parsed(text) == _parsed_by_tokens(text) == (ProfileParseError, message)


def test_local_line_with_tabs_and_runs_of_spaces():
    text = "profile x genus 1\nlocal\t0  rank 3\tv 1,+0,-0   h 007,0,-2 \n"
    expected = SurgeryProfile("x", 1, {0: LocalData(3, (1, 0, 0), (7, 0, -2))})
    assert _parsed(text) == _parsed_by_tokens(text) == expected


def test_local_line_before_the_header_is_refused():
    text = "\tlocal 0 rank 1 v 1 h 1\nprofile x genus 1\n"
    assert _parsed(text) == _parsed_by_tokens(text) == (
        ProfileParseError, "line 1: expected 'profile <name> genus <g>'"
    )


_INT = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["+1", "-0", "007"]))
# tokens and row entries the grammar refuses, and a few it takes
_JUNK = st.sampled_from(
    ["1_0", "\u0661", "+-1", "", "x", "1,", ",1", "1,,2", "lokal", "r", "0", str(2**63 + 1), _LONG]
)
_SEP = st.sampled_from([" "] * 6 + ["  ", "\t", " \t ", "\u3000"])


@st.composite
def _local_lines(draw):
    """A `local` line for slot 0 of rank 1..3, in half the draws with one
    token or row entry replaced, dropped or added."""
    rank = draw(st.integers(1, 3))
    rows = [[draw(_INT) for _ in range(rank)] for _ in "vh"]
    slot = draw(st.sampled_from(["0", "+0", "-0", "00"]))
    toks = ["local", slot, "rank", str(rank), "v", rows[0], "h", rows[1]]
    if draw(st.booleans()):
        k = draw(st.integers(0, 7))
        how = draw(st.sampled_from(["replace", "drop", "add", "entry"]))
        if how == "entry" and k in (5, 7):
            toks[k][draw(st.integers(0, rank - 1))] = draw(_JUNK)
        elif how == "drop":
            del toks[k]
        elif how == "add":
            toks.insert(k, draw(_JUNK))
        else:
            toks[k] = draw(_JUNK)
    toks = [",".join(t) if isinstance(t, list) else t for t in toks]
    return draw(st.sampled_from(["", " ", "\t"])) + "".join(t + draw(_SEP) for t in toks)


@settings(max_examples=400, deadline=None)
@given(st.lists(_local_lines(), min_size=1, max_size=3), st.sampled_from(["\n", "\r\n", "\x0c"]))
def test_local_lines_read_as_by_the_tokens(lines, end):
    # at genus 1 any LocalData at s = 0 validates, so equal profiles mean
    # equal LocalData
    text = "profile x genus 1" + end + end.join(lines) + end
    assert _parsed(text) == _parsed_by_tokens(text)


# runs of the characters str.isspace() takes that str.splitlines() does
# not break at, and the line breaks it does take
_SPACES = st.text(st.sampled_from(" \t\x1f\xa0\u2000\u3000"), min_size=1, max_size=3)
_BREAKS = st.sampled_from(["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_SKIPPED = st.sampled_from(["", " ", "\t\xa0", "#", "# note", "\u3000#x y"])


@st.composite
def _laid_out(draw):
    """A valid profile and its file text laid out anew: the `local` lines
    shuffled, blank and comment lines put in, each space a run of
    whitespace, each line ended by some line break."""
    p = draw(st.one_of(st.sampled_from(ALL_BUILTINS), profiles_st()))
    header, *local = serialize(p).splitlines()
    lines = [header, *draw(st.permutations(local))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SKIPPED))
    text = ""
    for line in lines:
        edge = draw(st.sampled_from(["", " ", "\t"]))
        first, *rest = line.split(" ")
        spaced = first + "".join(draw(_SPACES) + tok for tok in rest)
        text += edge + spaced + draw(st.sampled_from(["", "\xa0"])) + draw(_BREAKS)
    return p, text


@settings(max_examples=300, deadline=None)
@given(_laid_out())
def test_file_layout_does_not_matter(laid_out):
    p, text = laid_out
    parsed = parse(text)
    assert parsed == p
    assert serialize(parsed) == serialize(p)
    assert _parsed_by_tokens(text) == parsed


def test_rank_symmetry_enforced():
    overrides = {
        -1: LocalData(3, (0, 0, 0), (0, 0, 0)),
        0: LocalData(1, (0,), (0,)),
        1: LocalData(1, (0,), (0,)),
    }
    with pytest.raises(ProfileError) as err:
        SurgeryProfile("asym", 2, overrides | {2: LocalData(1, (1,), (0,)), -2: LocalData(1, (0,), (1,))})
    assert any("symmetry" in v for v in err.value.violations)


def test_rank_symmetry_is_checked_slot_by_slot_on_segments():
    one, three = LocalData(1, (0,), (0,)), LocalData(3, (0, 0, 0), (0, 0, 0))
    for g, lo in ((5, -4), (30, -25)):
        overrides = {s: three if lo <= s < 0 else one for s in range(1 - g, g)}
        with pytest.raises(ProfileError) as err:
            SurgeryProfile("asym", g, overrides)
        expected = [f"rank symmetry violated: rank({s})=1, rank(-{s})=3" for s in range(1, -lo + 1)]
        if len(expected) > 20:
            expected[20:] = [f"… and {len(expected) - 20} more"]
        assert err.value.violations == expected


def test_missing_interior_override_rejected():
    with pytest.raises(ProfileError) as err:
        SurgeryProfile("gap", 2, {0: LocalData(1, (0,), (0,))})
    assert any("missing override" in v for v in err.value.violations)


def test_override_beyond_genus_must_match_edge():
    base = {0: LocalData(3, (1, 0, 0), (1, 0, 0))}
    with pytest.raises(ProfileError) as err:
        SurgeryProfile("bad-edge", 1, base | {2: LocalData(1, (0,), (1,))})
    assert any("beyond genus" in v for v in err.value.violations)
    # repeating the edge pattern, with either sign, is allowed
    SurgeryProfile("ok-edge", 1, base | {2: LocalData(1, (1,), (0,))})
    SurgeryProfile("ok-edge", 1, base | {2: LocalData(1, (-1,), (0,))})


def test_window_end_unit_conditions():
    with pytest.raises(ProfileError):
        SurgeryProfile("bad-top", 1, {0: LocalData(1, (0,), (0,)), 1: LocalData(1, (0,), (0,))})
    with pytest.raises(ProfileError):
        SurgeryProfile("bad-top-rank", 1, {0: LocalData(1, (0,), (0,)), 1: LocalData(2, (1, 0), (0, 0))})
    with pytest.raises(ProfileError):
        SurgeryProfile(
            "bad-bottom", 1,
            {0: LocalData(1, (0,), (0,)), -1: LocalData(1, (1,), (0,))},
        )


@pytest.mark.parametrize("genus, s", [(1, 1), (1, -1), (0, 0)])
def test_non_local_data_at_window_end_is_reported(genus, s):
    with pytest.raises(ProfileError) as err:
        SurgeryProfile("x", genus, {s: "junk"})
    assert f"s={s}: override is not LocalData" in err.value.violations


def test_junk_at_one_end_still_checks_the_other():
    with pytest.raises(ProfileError) as err:
        SurgeryProfile("x", 1, {0: LocalData(1, (0,), (0,)), 1: "junk", -1: LocalData(1, (1,), (0,))})
    assert err.value.violations == [
        "s=1: override is not LocalData",
        "s=-1: rank must be 1 with h = [+-1] (got LocalData(rank=1, v=(1,), h=(0,)))",
    ]


def test_genus_zero_needs_two_units():
    with pytest.raises(ProfileError):
        SurgeryProfile("half-unit", 0, {0: LocalData(1, (1,), (0,))})
    with pytest.raises(ProfileError):
        SurgeryProfile("wide", 0, {0: LocalData(3, (1, 0, 0), (1, 0, 0))})
    SurgeryProfile("neg-units", 0, {0: LocalData(1, (-1,), (-1,))})


_ONE = LocalData(1, (1,), (1,))


@pytest.mark.parametrize("name, genus, overrides, violations", [
    ("x", -1, {}, ["genus -1 < 0"]),
    ("a b", 1, {0: _ONE}, ["name 'a b' must be nonempty without whitespace"]),
    ("x", 0, {}, ["genus 0 requires an override at s=0"]),
    ("x", 1, {0: _ONE, -3: _ONE}, ["s=-3: override beyond genus contradicts the edge pattern"]),
])
def test_profile_message_wording(name, genus, overrides, violations):
    with pytest.raises(ProfileError) as err:
        SurgeryProfile(name, genus, overrides)
    assert err.value.violations == violations


def test_local_data_shape_checks():
    with pytest.raises(ProfileError):
        LocalData(0, (), ())
    with pytest.raises(ProfileError):
        LocalData(2, (1,), (0, 0))


def test_builder_argument_checks():
    with pytest.raises(ValueError):
        lspace_knot(0)
    with pytest.raises(ValueError):
        k_family(0, 1)
    with pytest.raises(ValueError):
        k_family(1, 0)


def test_effective_lookup_total_for_all_builtins():
    for p in ALL_BUILTINS:
        for s in range(-p.genus - 3, p.genus + 4):
            data = p.local(s)
            assert len(data.v) == data.rank
            assert len(data.h) == data.rank
