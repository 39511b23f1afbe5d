"""Surgery profiles: the homology-level input data for the mapping cone.

A profile describes a knot-like object of genus g by, for every integer s,
the free rank r_s of H(A_s) together with two induced maps to H(B) = Z,
stored as 1 x r_s integer rows v_s and h_s. Outside [-g, g] this data is
forced (v_s is a unit for s > g, h_s is a unit for s < -g), the edge
pattern RIGHT_EDGE above the window and LEFT_EDGE below it.

The data is stored by segments, not by slot. It is piecewise constant in
s, and a profile keeps its maximal pieces: ``pieces[k]`` holds on
``cuts[k-1] <= s < cuts[k]``, the first piece reaching down to -infinity
with LEFT_EDGE and the last up to +infinity with RIGHT_EDGE. Adjacent
pieces always differ, so profiles with the same effective data have the
same pieces and compare equal, and lspace:g=10^9 is three pieces. The
finite pieces are the profile's ``segments``, (lo, hi, data) with
lo <= s < hi. ``overrides`` is a read-only mapping view of the same data
slot by slot: every slot inside the window, and the slots outside it
whose data is not the edge pattern. Its length is computed from the
segments. Profiles are built from such a mapping, or from sorted
(lo, hi, data) runs with ``from_segments``; equal adjacent slots merge.

Profiles are validated eagerly on construction, piece by piece. The
rules beyond the obvious shape checks:

* every slot with |s| < g has data (at g = 0, the slot s = 0);
* r_s = r_{-s} (conjugation symmetry of the underlying homology);
* at s = +g the rank is 1 and v_g = [+-1] (v is an isomorphism there);
  symmetrically at s = -g the rank is 1 and h_{-g} = [+-1];
* for g = 0 the single slot s = 0 needs both v and h equal to [+-1];
* data outside [-g, g] is allowed only if it repeats the edge pattern,
  up to sign.

The unit conditions at +-g are what make the finite truncation of the
cone exact, so they are enforced rather than trusted.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from math import inf

from .exactla import _LIMIT, Record


class InputError(ValueError):
    """Input data the package refuses: a profile, a framing, a complex, or
    a cone or complex past its budget. cli.main exits 65 on it (a framing
    it reads is a usage error before that)."""


class ProfileError(InputError):
    """A profile violates its structural invariants. Only the first 20
    violations are kept, then a count of the rest; an int among the
    violations stands for that many more that are not spelled out."""

    def __init__(self, violations: Iterable[str | int]):
        self.violations = []
        hidden = 0
        for v in violations:
            if isinstance(v, str) and len(self.violations) < 20:
                self.violations.append(v)
            else:
                hidden += 1 if isinstance(v, str) else v
        if hidden:
            self.violations.append(f"… and {hidden} more")
        super().__init__("; ".join(self.violations))


class ProfileParseError(ProfileError):
    """Syntax error in the profile file format."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__([f"line {line_no}: {message}"])


class LocalData(Record):
    """Rank of H(A_s) and the 1 x rank rows of the induced maps v_s, h_s."""

    def __init__(self, rank: int, v: tuple[int, ...], h: tuple[int, ...]):
        if rank < 1:
            raise ProfileError([f"rank {rank} < 1"])
        if len(v) != rank or len(h) != rank:
            raise ProfileError([f"v/h widths ({len(v)}, {len(h)}) != rank {rank}"])
        if max(map(abs, v + h)) > _LIMIT:
            raise ProfileError(["v/h entries must lie within +-2^63"])
        fields = self.__dict__  # set one by one: update(rank=...) builds a dict first
        fields["rank"], fields["v"], fields["h"] = rank, v, h


RIGHT_EDGE = LocalData(1, (1,), (0,))  # s > g: v is a unit, h vanishes
LEFT_EDGE = LocalData(1, (0,), (1,))  # s < -g: h is a unit, v vanishes
# the edge pattern up to sign, the only data allowed past the genus
_RIGHT_OK = (RIGHT_EDGE, LocalData(1, (-1,), (0,)))
_LEFT_OK = (LEFT_EDGE, LocalData(1, (0,), (-1,)))


def _is_unit_row(row: tuple[int, ...]) -> bool:
    return row in ((1,), (-1,))


def _inside(g: int) -> tuple[int, int]:
    """The slots lo <= s < hi every profile gives data for: |s| < g, or
    s = 0 at genus 0."""
    return (1 - g, g) if g else (0, 1)


class SurgeryProfile(Record):
    """Data by pieces, pieces[k] on cuts[k-1] <= s < cuts[k] (module
    docstring), and plans, the cone's reductions of this profile keyed by
    plan (cone.spinc_group); equality and hash read genus, cuts and pieces."""

    _fields = "name", "genus", "cuts", "pieces"
    _compared = "genus", "cuts", "pieces"

    def __init__(self, name: str, genus: int, overrides: Mapping[int, LocalData]):
        self._build(name, genus, ((s, s + 1, d) for s, d in sorted(overrides.items())))

    @classmethod
    def from_segments(
        cls, name: str, genus: int, runs: Iterable[tuple[int, int, LocalData]]
    ) -> "SurgeryProfile":
        """The profile with data on sorted, disjoint, nonempty runs
        (lo, hi, data), lo <= s < hi; every other slot is read as by the
        constructor, where an absent slot takes the edge pattern."""
        profile = cls.__new__(cls)
        profile._build(name, genus, runs)
        return profile

    def _build(self, name: str, genus: int, runs) -> None:
        if genus < 0:
            raise ProfileError([f"genus {genus} < 0"])
        cuts, pieces = _partition(genus, runs)
        self.__dict__.update(name=name, genus=genus, cuts=cuts, pieces=pieces, plans={})
        violations = _check(self)
        first = next(violations, None)
        if first is not None:
            raise ProfileError(chain((first,), violations))

    def local(self, s: int) -> LocalData:
        """Effective data at slot s."""
        return self.pieces[bisect_right(self.cuts, s)]

    @property
    def segments(self) -> tuple[tuple[int, int, LocalData], ...]:
        """The finite pieces as (lo, hi, data); below them is LEFT_EDGE,
        above them RIGHT_EDGE."""
        return tuple(zip(self.cuts, self.cuts[1:], self.pieces[1:-1]))

    @property
    def overrides(self) -> Mapping[int, LocalData]:
        return _Overrides(self)


# the data of a slot inside the window that no run covers, which _check
# reports as missing
_MISSING = object()


def _partition(g: int, runs) -> tuple[tuple, tuple]:
    """The maximal pieces of the data given on runs, as (cuts, pieces).
    A slot no run covers takes the edge pattern of its side, or _MISSING
    inside the window."""
    lo_in, hi_in = _inside(g)
    cuts, pieces = [], [LEFT_EDGE]
    last, end = LEFT_EDGE, -inf
    for lo, hi, data in runs:
        if end < lo:
            _gap(cuts, pieces, end, lo, lo_in, hi_in)
            last = pieces[-1]
        if not (data is last or data == last):  # _put inline, a call less per run
            cuts.append(lo)
            pieces.append(data)
            last = data
        end = hi
    _gap(cuts, pieces, end, inf, lo_in, hi_in)
    return tuple(cuts), tuple(pieces)


def _put(cuts: list, pieces: list, lo: int, data) -> None:
    """Start a piece with data at lo, or extend the last one if equal."""
    last = pieces[-1]
    if not (data is last or data == last):  # not !=: Record has no __ne__ of its own
        cuts.append(lo)
        pieces.append(data)


def _gap(cuts: list, pieces: list, lo, hi, lo_in: int, hi_in: int) -> None:
    """The uncovered slots lo <= s < hi, split at the window's ends."""
    if lo < lo_in:
        _put(cuts, pieces, lo, LEFT_EDGE)
    if lo < hi_in and lo_in < hi:
        _put(cuts, pieces, max(lo, lo_in), _MISSING)
    if hi_in < hi:
        _put(cuts, pieces, max(lo, hi_in), RIGHT_EDGE)


def _spans(p: SurgeryProfile):
    """(lo, hi, data) of every piece, the two outer ones infinite."""
    return zip((-inf, *p.cuts), (*p.cuts, inf), p.pieces)


def _override_runs(p: SurgeryProfile) -> Iterator[tuple[int, int, LocalData]]:
    """(lo, hi, data) of the overrides, ascending: the slots inside the
    window, and those outside it whose data is not the edge pattern."""
    lo_in, hi_in = _inside(p.genus)
    for lo, hi, data in _spans(p):
        for a, b, edge in ((lo, lo_in, LEFT_EDGE), (lo_in, hi_in, None), (hi_in, hi, RIGHT_EDGE)):
            a, b = max(lo, a), min(hi, b)
            if a < b and (edge is None or data != edge):
                yield a, b, data


class _Overrides(Mapping):
    """A profile's data slot by slot, on the slots of _override_runs."""

    def __init__(self, profile: SurgeryProfile):
        self._profile = profile

    def __getitem__(self, s: int) -> LocalData:
        data = self._profile.local(s)
        lo_in, hi_in = _inside(self._profile.genus)
        if s < lo_in and data == LEFT_EDGE or s >= hi_in and data == RIGHT_EDGE:
            raise KeyError(s)
        return data

    def __iter__(self) -> Iterator[int]:
        for lo, hi, _ in _override_runs(self._profile):
            yield from range(lo, hi)

    def __len__(self) -> int:
        return sum(hi - lo for lo, hi, _ in _override_runs(self._profile))


def _capped(lo: int, hi: int, message: str) -> Iterator[str | int]:
    """message for the slots lo <= s < hi: the first 20 spelled out, the
    rest as one count, which ProfileError adds to its '… and N more'."""
    for s in range(lo, min(hi, lo + 20)):
        yield message.format(s=s)
    if hi - lo > 20:
        yield hi - lo - 20


def _check(p: SurgeryProfile) -> Iterator[str | int]:
    """The violations, in the order: name, missing slots, data that is not
    LocalData or breaks the edge pattern, rank symmetry, window ends. Each
    rule walks the pieces, so a long piece costs what a short one does."""
    g, cuts, pieces = p.genus, p.cuts, p.pieces
    if p.name.split() != [p.name]:  # empty, or with whitespace
        yield f"name {quoted(p.name)} must be nonempty without whitespace"
    # the _MISSING pieces are the gaps inside the window, one per gap
    missing, wrong = [], []
    beyond = "s={s}: override beyond genus contradicts the edge pattern"
    for lo, hi, data in _spans(p):
        if data is _MISSING:
            missing.append((lo, hi))
        elif not isinstance(data, LocalData):
            wrong.append((lo, hi, "s={s}: override is not LocalData"))
        else:
            if lo < -g and data not in _LEFT_OK:
                wrong.append((lo, min(hi, -g), beyond))
            if hi > g + 1 and data not in _RIGHT_OK:
                wrong.append((max(lo, g + 1), hi, beyond))
    for lo, hi in missing:
        if g:
            yield from _capped(lo, hi, "missing override at s={s} (every |s| < genus is required)")
        else:
            yield "genus 0 requires an override at s=0"
    for lo, hi, message in wrong:
        yield from _capped(lo, hi, message)
    # conjugation symmetry of ranks, on 0 < s <= g: the ranks at s and -s
    # can only change where s or 1 - s is a cut
    marks = {1, g + 1}
    for c in cuts:
        if 1 < c <= g:
            marks.add(c)
        elif 1 - g <= c <= 0:
            marks.add(1 - c)
    marks = sorted(marks)
    for lo, hi in zip(marks, marks[1:]):
        pos, neg = pieces[bisect_right(cuts, lo)], pieces[bisect_right(cuts, -lo)]
        if isinstance(pos, LocalData) and isinstance(neg, LocalData) and pos.rank != neg.rank:
            yield from _capped(
                lo, hi, f"rank symmetry violated: rank({{s}})={pos.rank}, rank(-{{s}})={neg.rank}"
            )
    # unit conditions at the ends of the window (data that is not
    # LocalData was reported above)
    if g >= 1:
        right = pieces[bisect_right(cuts, g)]
        if isinstance(right, LocalData) and (right.rank != 1 or not _is_unit_row(right.v)):
            yield f"s={g}: rank must be 1 with v = [+-1] (got {quoted(right)})"
        left = pieces[bisect_right(cuts, -g)]
        if isinstance(left, LocalData) and (left.rank != 1 or not _is_unit_row(left.h)):
            yield f"s={-g}: rank must be 1 with h = [+-1] (got {quoted(left)})"
    elif isinstance(centre := pieces[bisect_right(cuts, 0)], LocalData):
        if centre.rank != 1 or not _is_unit_row(centre.v) or not _is_unit_row(centre.h):
            yield f"s=0: genus 0 needs rank 1 with v = [+-1] and h = [+-1]"


# ---------------------------------------------------------------------------
# built-in profiles


def unknot() -> SurgeryProfile:
    """Trivial knot: genus 0, both maps units at s = 0."""
    return SurgeryProfile("unknot", 0, {0: LocalData(1, (1,), (1,))})


def lspace_knot(g: int) -> SurgeryProfile:
    """Staircase pattern of genus g: rank 1 everywhere, v = [1] iff s >= g,
    h = [1] iff s <= -g. The profile of any positive L-space knot; one
    segment, whatever g is."""
    if g < 1:
        raise ValueError("lspace_knot requires g >= 1")
    return SurgeryProfile.from_segments(f"lspace:g={g}", g, [(1 - g, g, LocalData(1, (0,), (0,)))])


def figure_eight() -> SurgeryProfile:
    """Figure-eight knot: genus 1, central slot Z + Z^2 with both induced
    maps the projection to the first coordinate."""
    return SurgeryProfile("fig8", 1, {0: LocalData(3, (1, 0, 0), (1, 0, 0))})


def k_family(m: int, k: int) -> SurgeryProfile:
    """Twisted alternating family K_{2m,2k+1}: genus m; interior slots have
    rank 3 (m - s even) or 2k + 3 (m - s odd), with v and h the projections
    to the first and second coordinates. The ranks alternate, so every
    slot is its own segment."""
    if m < 1 or k < 1:
        raise ValueError("k_family requires m >= 1 and k >= 1")
    even, odd = (LocalData(r, (1,) + (0,) * (r - 1), (0, 1) + (0,) * (r - 2)) for r in (3, 2 * k + 3))
    runs = [(s, s + 1, odd if (m - s) % 2 else even) for s in range(1 - m, m)]
    return SurgeryProfile.from_segments(f"kfam:m={m},k={k}", m, runs)


def tau_extremal(g: int, interior_ranks: Mapping[int, int] | None = None) -> SurgeryProfile:
    """Profile with both induced maps vanishing on the whole open window,
    the pattern forced when the tau invariant equals the genus. Interior
    ranks default to 1; a supplied rank applies to both s and -s. One
    segment per supplied rank and per stretch of default ones."""
    if g < 1:
        raise ValueError("tau_extremal requires g >= 1")
    ranks: dict[int, int] = {}
    if interior_ranks:
        for s, r in interior_ranks.items():
            if abs(s) >= g:
                raise ValueError(f"interior rank given at s={s}, outside (-g, g)")
            other = ranks.get(abs(s))
            if other is not None and other != r:
                raise ValueError(f"conflicting ranks for |s|={abs(s)}: {other} and {r}")
            ranks[abs(s)] = r
    one = LocalData(1, (0,), (0,))
    runs, start = [], 1 - g
    for s in sorted({t for a in ranks for t in (a, -a)}):
        r = ranks[abs(s)]
        runs += [(start, s, one)] if start < s else []
        runs.append((s, s + 1, LocalData(r, (0,) * r, (0,) * r)))
        start = s + 1
    runs += [(start, g, one)] if start < g else []
    return SurgeryProfile.from_segments(f"tau:g={g}", g, runs)


# ---------------------------------------------------------------------------
# file format
#
#   profile <name> genus <g>
#   local <s> rank <r> v <c1,...,cr> h <c1,...,cr>
#
# one `local` line per override, `#` starts a comment line.


def serialize_runs(p: SurgeryProfile) -> Iterator[tuple[range, str, str]]:
    """The lines of serialize(p) as (slots, before, after) runs, a slot s
    standing for before + str(s) + after: the header as the run of the
    genus alone, then one run per override run, its tail formatted once."""
    yield range(p.genus, p.genus + 1), f"profile {p.name} genus ", "\n"
    for lo, hi, d in _override_runs(p):
        yield range(lo, hi), "local ", (
            f" rank {d.rank} v {','.join(map(str, d.v))} h {','.join(map(str, d.h))}\n"
        )


def serialize(p: SurgeryProfile) -> str:
    """The profile file text: the header, then one `local` line per override."""
    return "".join(f"{b}{s}{a}" for slots, b, a in serialize_runs(p) for s in slots)


def quoted(value) -> str:
    """repr(value) as an error message quotes input: whole up to 100
    characters, else its first 100 and the length of the whole, so that
    a line quoting a huge token stays short."""
    text = repr(value)
    return text if len(text) <= 100 else f"{text[:100]}… ({len(text)} characters)"


_ASCII_INT = re.compile(r"[+-]?[0-9]+")


def ascii_int(text: str) -> int:
    """The integer spelled [+-]?[0-9]+; int() alone would also take '1_0',
    surrounding spaces and non-ASCII digits. Raises ValueError."""
    if not _ASCII_INT.fullmatch(text):
        raise ValueError(f"expected integer, got {quoted(text)}")
    return int(text)


def _parse_int(tok: str, line_no: int, what: str) -> int:
    try:
        return ascii_int(tok)
    except ValueError as e:
        raise ProfileParseError(line_no, f"{what}: {e}") from None


def _parse_row(tok: str, line_no: int, what: str) -> tuple[int, ...]:
    return tuple(_parse_int(t, line_no, what) for t in tok.split(","))


_INT = _ASCII_INT.pattern
# a `local` line in the shape _local_tokens checks, matched where it stands:
# on a str pattern \s is what str.isspace() takes, where str.split() splits,
# and each \s run lies between characters it cannot take, so a match stays
# linear. Group 2, the text after the slot, decides the slot's data. A row
# is one run of [-+0-9,], as a repeated group would keep state for each
# entry; int() refuses the entries ascii_int refuses ('', '1-2', '+-1'), as
# it refuses an integer past its digit limit: _local_tokens reads such a line
_LOCAL = re.compile(rf"\s*local\s+({_INT})\s+(rank\s+({_INT})\s+v\s+([-+0-9,]+)\s+h\s+([-+0-9,]+))\s*")


def _new_slot(s: int, overrides: dict, line_no: int) -> int:
    if s in overrides:
        raise ProfileParseError(line_no, f"duplicate local line for s={s}")
    return s


def _local_tokens(toks: list[str], line_no: int, overrides: dict) -> tuple:
    """(s, rank, v, h) of a `local` line read token by token, the checks
    in the order they report; for the lines parse() cannot read by _LOCAL."""
    if len(toks) != 8 or toks[::2] != ["local", "rank", "v", "h"]:
        raise ProfileParseError(line_no, "expected 'local <s> rank <r> v <c,...> h <c,...>'")
    s = _new_slot(_parse_int(toks[1], line_no, "slot"), overrides, line_no)
    rank = _parse_int(toks[3], line_no, "rank")
    return s, rank, _parse_row(toks[5], line_no, "v row"), _parse_row(toks[7], line_no, "h row")


def parse(text: str) -> SurgeryProfile:
    """Parse the profile file format; validates all invariants. Lines may
    come in any order; equal adjacent slots merge into one segment.

    Tokens are parted by whitespace (str.isspace); blank lines and those
    whose first token starts with '#' are skipped. The first other line is
    ``profile NAME genus G``, each later one ``local S rank R v ROW h ROW``:
    G, S, R are [+-]?[0-9]+ and a ROW is such integers joined by commas. A
    `local` line is matched where it stands (_LOCAL), any other split."""
    header: tuple[str, int] | None = None
    overrides: dict[int, LocalData] = {}
    tail, last = None, None  # _LOCAL's group 2 of the line before, and its data
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = header and _LOCAL.fullmatch(raw)
        if m:
            s, key, rank, v, h = m.groups()
            try:
                s = _new_slot(int(s), overrides, line_no)
                if key == tail:  # the same data as the line before: share it
                    overrides[s] = last
                    continue
                rank = int(rank)
                if rank == 1:  # a row of one entry, as most are: int() refuses a comma
                    v, h = (int(v),), (int(h),)
                else:
                    v, h = tuple(map(int, v.split(","))), tuple(map(int, h.split(",")))
            except ValueError:  # a bad row entry, or past int()'s digit limit
                m = None
        if not m:
            toks = raw.split()
            if not toks or toks[0].startswith("#"):
                continue
            if header is None:
                if len(toks) != 4 or toks[0] != "profile" or toks[2] != "genus":
                    raise ProfileParseError(line_no, "expected 'profile <name> genus <g>'")
                header = (toks[1], _parse_int(toks[3], line_no, "genus"))
                continue
            s, rank, v, h = _local_tokens(toks, line_no, overrides)
        try:
            overrides[s] = last = LocalData(rank, v, h)
        except ProfileError as e:
            raise ProfileParseError(line_no, f"s={s}: {e}") from None
        tail = key if m else None
    if header is None:
        raise ProfileParseError(0, "empty profile text")
    return SurgeryProfile(header[0], header[1], overrides)
