"""Surgery profiles: the homology-level input data for the mapping cone.

A profile describes a knot-like object of genus g by, for every integer s,
the free rank r_s of H(A_s) together with two induced maps to H(B) = Z,
stored as 1 x r_s integer rows v_s and h_s. Outside [-g, g] this data is
forced (v_s is a unit for s > g, h_s is a unit for s < -g), so a profile
only stores per-s overrides inside the window; lookups for any other s
fall back to the edge pattern.

Profiles are validated eagerly on construction. The rules beyond the
obvious shape checks:

* r_s = r_{-s} (conjugation symmetry of the underlying homology);
* at s = +g the rank is 1 and v_g = [+-1] (v is an isomorphism there);
  symmetrically at s = -g the rank is 1 and h_{-g} = [+-1];
* for g = 0 the single slot s = 0 needs both v and h equal to [+-1];
* overrides outside [-g, g] are allowed only if they repeat the edge
  pattern exactly.

The unit conditions at +-g are what make the finite truncation of the
cone exact, so they are enforced rather than trusted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .exactla import _LIMIT


class ProfileError(ValueError):
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


@dataclass(frozen=True)
class LocalData:
    """Rank of H(A_s) and the 1 x rank rows of the induced maps v_s, h_s."""

    rank: int
    v: tuple[int, ...]
    h: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ProfileError([f"rank {self.rank} < 1"])
        if len(self.v) != self.rank or len(self.h) != self.rank:
            raise ProfileError(
                [f"v/h widths ({len(self.v)}, {len(self.h)}) != rank {self.rank}"]
            )
        if any(abs(x) > _LIMIT for x in self.v + self.h):
            raise ProfileError(["v/h entries must lie within +-2^63"])


RIGHT_EDGE = LocalData(1, (1,), (0,))  # s > g: v is a unit, h vanishes
LEFT_EDGE = LocalData(1, (0,), (1,))  # s < -g: h is a unit, v vanishes


def _is_unit_row(row: tuple[int, ...]) -> bool:
    return row in ((1,), (-1,))


@dataclass(frozen=True)
class SurgeryProfile:
    name: str = field(compare=False)
    genus: int
    overrides: Mapping[int, LocalData]

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", dict(self.overrides))
        error = ProfileError(_check(self))
        if error.violations:
            raise error
        # canonical form: overrides that just restate the forced edge data
        # are dropped, so profiles with the same effective data compare equal
        canonical = {
            s: d
            for s, d in self.overrides.items()
            if not (s >= self.genus and d == RIGHT_EDGE)
            and not (s <= -self.genus and d == LEFT_EDGE)
        }
        object.__setattr__(self, "overrides", canonical)

    def local(self, s: int) -> LocalData:
        """Effective data at slot s: the override if present, else the edge."""
        data = self.overrides.get(s)
        if data is not None:
            return data
        if s >= self.genus:
            return RIGHT_EDGE
        if s <= -self.genus:
            return LEFT_EDGE
        raise AssertionError(f"validated profile lacks data at s={s}")


def _check(p: SurgeryProfile) -> Iterator[str | int]:
    if p.genus < 0:
        yield f"genus {p.genus} < 0"
        return
    if not p.name or any(c.isspace() for c in p.name):
        yield f"name {p.name!r} must be nonempty without whitespace"
    g = p.genus
    # the missing slots are the gaps between the overrides inside the
    # window; past the first 20 of a gap, all ProfileError shows, count them
    inside = sorted(s for s in p.overrides if -g < s < g)
    if len(inside) < 2 * g - 1:
        for lo, hi in zip([-g, *inside], [*inside, g]):
            for s in range(lo + 1, hi)[:20]:
                yield f"missing override at s={s} (every |s| < genus is required)"
            if hi - lo > 21:
                yield hi - lo - 21
    if g == 0 and 0 not in p.overrides:
        yield "genus 0 requires an override at s=0"
    for s, data in sorted(p.overrides.items()):
        if not isinstance(data, LocalData):
            yield f"s={s}: override is not LocalData"
            continue
        if s > g and data != RIGHT_EDGE and data != LocalData(1, (-1,), (0,)):
            yield f"s={s}: override beyond genus contradicts the edge pattern"
        if s < -g and data != LEFT_EDGE and data != LocalData(1, (0,), (-1,)):
            yield f"s={s}: override beyond genus contradicts the edge pattern"
    # conjugation symmetry of ranks, on effective data across the window;
    # a slot with no override on either side has rank 1 or none on both
    for s in sorted({abs(s) for s in p.overrides if abs(s) <= g}):
        r_pos = _effective_rank(p, s)
        r_neg = _effective_rank(p, -s)
        if r_pos is not None and r_neg is not None and r_pos != r_neg:
            yield f"rank symmetry violated: rank({s})={r_pos}, rank({-s})={r_neg}"
    # unit conditions at the ends of the window (data that is not
    # LocalData was reported above)
    if g >= 1:
        right = p.overrides.get(g, RIGHT_EDGE)
        if isinstance(right, LocalData) and (right.rank != 1 or not _is_unit_row(right.v)):
            yield f"s={g}: rank must be 1 with v = [+-1] (got {right})"
        left = p.overrides.get(-g, LEFT_EDGE)
        if isinstance(left, LocalData) and (left.rank != 1 or not _is_unit_row(left.h)):
            yield f"s={-g}: rank must be 1 with h = [+-1] (got {left})"
    elif isinstance(centre := p.overrides.get(0), LocalData):
        if centre.rank != 1 or not _is_unit_row(centre.v) or not _is_unit_row(centre.h):
            yield f"s=0: genus 0 needs rank 1 with v = [+-1] and h = [+-1]"


def _effective_rank(p: SurgeryProfile, s: int) -> int | None:
    data = p.overrides.get(s)
    if data is not None:
        return data.rank if isinstance(data, LocalData) else None
    if abs(s) >= p.genus:
        return 1
    return None  # missing override, reported separately


# ---------------------------------------------------------------------------
# built-in profiles


def unknot() -> SurgeryProfile:
    """Trivial knot: genus 0, both maps units at s = 0."""
    return SurgeryProfile("unknot", 0, {0: LocalData(1, (1,), (1,))})


def lspace_knot(g: int) -> SurgeryProfile:
    """Staircase pattern of genus g: rank 1 everywhere, v = [1] iff s >= g,
    h = [1] iff s <= -g. The profile of any positive L-space knot."""
    if g < 1:
        raise ValueError("lspace_knot requires g >= 1")
    overrides = {}
    for s in range(-g, g + 1):
        v = (1,) if s >= g else (0,)
        h = (1,) if s <= -g else (0,)
        overrides[s] = LocalData(1, v, h)
    return SurgeryProfile(f"lspace:g={g}", g, overrides)


def figure_eight() -> SurgeryProfile:
    """Figure-eight knot: genus 1, central slot Z + Z^2 with both induced
    maps the projection to the first coordinate."""
    return SurgeryProfile("fig8", 1, {0: LocalData(3, (1, 0, 0), (1, 0, 0))})


def k_family(m: int, k: int) -> SurgeryProfile:
    """Twisted alternating family K_{2m,2k+1}: genus m; interior slots have
    rank 3 (m - s even) or 2k + 3 (m - s odd), with v and h the projections
    to the first and second coordinates."""
    if m < 1 or k < 1:
        raise ValueError("k_family requires m >= 1 and k >= 1")
    overrides = {}
    for s in range(-m + 1, m):
        r = 3 if (m - s) % 2 == 0 else 2 * k + 3
        v = (1,) + (0,) * (r - 1)
        h = (0, 1) + (0,) * (r - 2)
        overrides[s] = LocalData(r, v, h)
    return SurgeryProfile(f"kfam:m={m},k={k}", m, overrides)


def tau_extremal(g: int, interior_ranks: Mapping[int, int] | None = None) -> SurgeryProfile:
    """Profile with both induced maps vanishing on the whole open window,
    the pattern forced when the tau invariant equals the genus. Interior
    ranks default to 1; a supplied rank applies to both s and -s."""
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
    overrides = {}
    for s in range(-g + 1, g):
        r = ranks.get(abs(s), 1)
        overrides[s] = LocalData(r, (0,) * r, (0,) * r)
    return SurgeryProfile(f"tau:g={g}", g, overrides)


# ---------------------------------------------------------------------------
# file format
#
#   profile <name> genus <g>
#   local <s> rank <r> v <c1,...,cr> h <c1,...,cr>
#
# one `local` line per override, `#` starts a comment line.


def serialize(p: SurgeryProfile) -> str:
    lines = [f"profile {p.name} genus {p.genus}"]
    for s in sorted(p.overrides):
        d = p.overrides[s]
        v = ",".join(str(x) for x in d.v)
        h = ",".join(str(x) for x in d.h)
        lines.append(f"local {s} rank {d.rank} v {v} h {h}")
    return "\n".join(lines) + "\n"


def ascii_int(text: str) -> int:
    """The integer spelled [+-]?[0-9]+; int() alone would also take '1_0',
    surrounding spaces and non-ASCII digits. Raises ValueError."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"expected integer, got {text!r}")
    return int(text)


def _parse_int(tok: str, line_no: int, what: str) -> int:
    try:
        return ascii_int(tok)
    except ValueError as e:
        raise ProfileParseError(line_no, f"{what}: {e}") from None


def _parse_row(tok: str, line_no: int, what: str) -> tuple[int, ...]:
    return tuple(_parse_int(t, line_no, what) for t in tok.split(","))


def parse(text: str) -> SurgeryProfile:
    """Parse the profile file format; validates all invariants."""
    header: tuple[str, int] | None = None
    overrides: dict[int, LocalData] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 4 or toks[0] != "profile" or toks[2] != "genus":
                raise ProfileParseError(line_no, "expected 'profile <name> genus <g>'")
            header = (toks[1], _parse_int(toks[3], line_no, "genus"))
            continue
        if (
            len(toks) != 8
            or toks[0] != "local"
            or toks[2] != "rank"
            or toks[4] != "v"
            or toks[6] != "h"
        ):
            raise ProfileParseError(
                line_no, "expected 'local <s> rank <r> v <c,...> h <c,...>'"
            )
        s = _parse_int(toks[1], line_no, "slot")
        if s in overrides:
            raise ProfileParseError(line_no, f"duplicate local line for s={s}")
        rank = _parse_int(toks[3], line_no, "rank")
        v = _parse_row(toks[5], line_no, "v row")
        h = _parse_row(toks[7], line_no, "h row")
        try:
            overrides[s] = LocalData(rank, v, h)
        except ProfileError as e:
            raise ProfileParseError(line_no, f"s={s}: {e}") from None
    if header is None:
        raise ProfileParseError(0, "empty profile text")
    return SurgeryProfile(header[0], header[1], overrides)
