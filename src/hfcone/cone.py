"""The truncated surgery mapping cone.

For a framing p/q (q >= 1, sign carried by p) and a residue class
i in [0, |p|), the cone couples copies of the profile slots

    phi(s) = floor((i + p s) / q)

indexed by s: the A-slot at position s maps to the B-slot at position s
by v_{phi(s)} and to the B-slot at position s + 1 by h_{phi(s)}. The
homology of the cone is ker(D) + coker(D) for the cone matrix D, which
splits because integer kernels are free; torsion can only enter through
the cokernel and is reported as-is.

D is never built dense. The cone is a based complex: each A-generator
is a column with at most two nonzeros, mostly +-1, on the B-generators,
which have zero differential. ``exactla.cancel_units``, the reduction
``cfk`` uses for its slices, pivots on the units one by one, each pivot
an elementary divisor 1 that removes its row and column, so the cost per
class is linear in the window. Only the unit-free remainder goes to the
Smith form of ``exactla``, as the same sparse columns and under the same
2^63 check.

Slot direction convention: h raises the B-slot index by one. The
opposite choice swaps the roles of +p and -p (it computes the mirror
answers). The convention used here is pinned by regression fixtures:
1/q surgery on the trivial profile must give Z, and +1 surgery on the
genus-1 staircase profile must give Z while -1 gives Z^3.

Truncation: with G = max(genus, 1), slots with phi(s) >= G carry a unit
v and slots with phi(s) <= -G carry a unit h, so the infinite complex
retracts onto a finite window. For p > 0 the window keeps one more
A-slot than B-slots; for p < 0 one more B-slot than A-slots. Enlarging
the window never changes the answer (property-tested), it only pads the
matrix with unit rows.

Stretches: phi is monotone in s, and the profile's data is constant on
each of its pieces (``profiles``), so the A-slots whose phi(s) lies in
one piece form one stretch of consecutive slots, all carrying the same
data d. It spans one value of phi or many: lspace:g=10^9 gives three
stretches at any framing. Only a stretch's two end rows meet other
slots. A stretch of k >= 3 copies of collapsible data keeps its first
and last copy, the rows between them are compacted, and (k - 2) gain(d)
is added to the free rank, so the cone costs O(pieces) slots for
collapsible data at any q and any genus. The argument below uses only
that the k copies are consecutive A-slots with equal data, not which
phi they come from. Removing one interior copy, with one of the rows
only the stretch touches, changes the group by exactly Z^gain(d) when d
(rank r, rows v and h over the copy's two rows) is
  * zero, v = h = 0: gain r + 1, the copy's r columns are kernel and
    the removed row is hit by nothing;
  * of full rank, with the 2x2 minors of [v; h] of gcd 1: gain r - 1.
    Column operations bring each copy to (e_top, e_bottom, 0, ...). The
    interior copy's two units clear its two rows and turn one unit of
    each neighbour into a zero column; without the copy the neighbours
    share one row, where one unit pivots and the other becomes zero;
  * of rank 1 with unit direction, every column a multiple of one
    (x, y) in {0, +-1}^2 and the multiples of gcd 1: gain r - 1. Column
    operations leave one column x e_top + y e_bottom and r - 1 zeros. A
    zero x or y makes the column a unit alone on its row; otherwise its
    unit pivot merges the two rows up to a sign, and since the
    stretch's interior rows meet nothing else the cone is a path there,
    so negating every row and column on one side absorbs the sign.
Any other stretch keeps every copy: after a unit alone on a stretch's
first row, k copies of the column (2, 3) leave Z/3^k. The collapsed
columns go to the same unit cancellation and Smith form. The emitted
columns are counted stretch by stretch first, and a cone of more than
COLUMN_BUDGET is refused with ConeTooLarge before any column is built.

Plans: after collapsing, the cone is fixed by the sign of p and the
sequence of (piece, emitted copies) of its stretches; the collapsed
free rank is added on top. So the profile keeps each plan's group, less
that rank, in ``profile.plans`` (at most PLAN_CACHE of them), and a class
or framing with a plan seen before is not reduced again. The cache
belongs to the profile object, so separate profiles, and separate
command-line queries, share nothing.

Runs of classes (the standard argument, Ozsvath-Szabo math/0504404):
when i becomes i + 1, every point i + p s moves up by one, so phi(s)
changes only where i + 1 + p s = t q, from t - 1 to t. The slot's data
goes from local(t - 1) to local(t), which changes the cone only where t
is a cut of the profile. The window ends sit on the thresholds t = G
and t = 1 - G, and a crossing at any other t outside the window touches
at most an end A-slot (proof in ``spinc_runs``). So class i + 1 has the
cone of class i unless i + 1 = t q mod |p| for t = 1 - G, t = G, or a
cut 1 - G < t < G. With t = 0 for class 0, all these t lie in
[1 - G, G]: at most 2G runs, and at most three more than the cuts
inside the window, whatever |p| is. lspace:g=10^9 has none there, so
any framing has at most three runs. ``spinc_runs`` builds one cone per
run.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd

from .exactla import AbelianGroup, EliminationOverflow, cancel_units, smith_normal_form
from .profiles import LocalData, SurgeryProfile, ascii_int

# columns (A-generators) one cone may emit after collapsing stretches:
# about 500 times the largest cone of the tests and the benchmark, and
# about 0.6 GB of peak memory at the budget
COLUMN_BUDGET = 10**6

# reduced plans one profile keeps (a key of two ints per stretch and a
# group each); the 37,344 framings of lspace:g=3 at -3000..3000/1..10 need
# 6 of them
PLAN_CACHE = 4096


class FramingError(ValueError):
    """Not a valid surgery slope."""


class ConeTooLarge(ValueError):
    """The cone of a class would emit more than COLUMN_BUDGET columns."""


@dataclass(frozen=True)
class Framing:
    """Reduced slope p/q with q >= 1; the sign lives in p."""

    p: int
    q: int = 1

    def __post_init__(self) -> None:
        if self.q < 0:
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)
        if self.q == 0:
            raise FramingError("q must be nonzero")
        if self.p == 0:
            raise FramingError("p must be nonzero (0-surgery is not a rational homology sphere)")
        if gcd(abs(self.p), self.q) != 1:
            raise FramingError(f"{self.p}/{self.q} is not reduced")

    @staticmethod
    def parse(text: str) -> "Framing":
        p, slash, q = text.strip().partition("/")
        try:
            slope = ascii_int(p), ascii_int(q) if slash else 1
        except ValueError:
            raise FramingError(f"cannot parse framing {text!r}; expected 'p' or 'p/q'") from None
        return Framing(*slope)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def phi(i: int, p: int, q: int, s: int) -> int:
    """floor((i + p*s)/q), the profile slot feeding cone position s."""
    if q < 1:
        raise ValueError("q must be positive")
    return (i + p * s) // q


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


@dataclass(frozen=True)
class Window:
    """Truncation window: A-slots [a_lo, a_hi], B-slots [b_lo, b_hi]."""

    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int


def truncation_window(profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0) -> Window:
    """Smallest window outside which every slot is a cancelling unit pair.

    pad >= 1 enlarges both A ends; the B range follows the same end rule,
    which is what the stability property tests exercise.
    """
    a_lo, a_hi = _a_range(profile, framing, i, pad)
    if framing.p > 0:
        return Window(a_lo, a_hi, a_lo + 1, a_hi)
    return Window(a_lo, a_hi, a_lo, a_hi + 1)


def _a_range(profile: SurgeryProfile, framing: Framing, i: int, pad: int) -> tuple[int, int]:
    """The A-slots [a_lo, a_hi] of truncation_window."""
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    g_bound = max(profile.genus, 1)
    p, q = framing.p, framing.q
    if p > 0:
        # phi is nondecreasing in s: the last s with phi(s) <= -G, the
        # first with phi(s) >= G
        return (-g_bound * q + q - 1 - i) // p - pad, _ceil_div(g_bound * q - i, p) + pad
    # phi is nonincreasing in s: the last s with phi(s) >= G, the first
    # with phi(s) <= -G
    return (i - g_bound * q) // (-p) - pad, _ceil_div(i + g_bound * q - q + 1, -p) + pad


@functools.lru_cache(maxsize=4096)
def _stretch_gain(data: LocalData) -> int | None:
    """Free rank that one more interior copy of data adds to a stretch,
    or None when copies of data do not collapse (module docstring)."""
    r, v, h = data.rank, data.v, data.h
    if not any(v) and not any(h):
        return r + 1
    minors = 0
    for a in range(r):
        for b in range(a + 1, r):
            minors = gcd(minors, v[a] * h[b] - v[b] * h[a])
            if minors == 1:
                return r - 1
    if minors:
        return None  # rank 2, but [v; h] spans a proper sublattice
    # rank 1: every column is an integer multiple of (x, y) / gcd(x, y),
    # the primitive direction of the first nonzero column
    x, y = next((x, y) for x, y in zip(v, h) if x or y)
    g = gcd(x, y)
    if abs(x) > g or abs(y) > g or gcd(*v, *h) != 1:
        return None
    return r - 1


def _stretches(profile: SurgeryProfile, framing: Framing, i: int, a_lo: int, a_hi: int):
    """(piece, data, k) for each stretch of the A-slots a_lo..a_hi, left
    to right: the k consecutive slots s whose phi(s) lies in one piece of
    the profile, which carries data."""
    p, q = framing.p, framing.q
    cuts, pieces = profile.cuts, profile.pieces
    s = a_lo
    while s <= a_hi:
        j = bisect_right(cuts, (i + p * s) // q)
        if p > 0:  # phi ascends: the stretch ends before phi reaches cuts[j]
            last = _ceil_div(cuts[j] * q - i, p) - 1 if j < len(cuts) else a_hi
        else:  # phi descends: the stretch ends where phi leaves cuts[j - 1]
            last = (i - cuts[j - 1] * q) // -p if j else a_hi
        last = min(last, a_hi)
        yield j, pieces[j], last - s + 1
        s = last + 1


def spinc_group(profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0) -> AbelianGroup:
    """HF-hat of the surgered manifold in the spin-c class i, as
    ker + coker of the truncated cone matrix with its stretches collapsed;
    a plan the profile has reduced before is read from profile.plans.
    Raises ConeTooLarge past COLUMN_BUDGET emitted columns; an
    EliminationOverflow names the framing and the class."""
    if not 0 <= i < abs(framing.p):
        raise ValueError(f"spin-c class {i} outside [0, {abs(framing.p)})")
    plan = []
    slots = width = free = 0
    for j, data, k in _stretches(profile, framing, i, *_a_range(profile, framing, i, pad)):
        if k >= 3 and (gain := _stretch_gain(data)) is not None:
            free += (k - 2) * gain
            k = 2
        slots += k
        width += k * data.rank
        if width > COLUMN_BUDGET:
            raise ConeTooLarge(
                f"framing {framing}, class i={i}: the cone needs more than "
                f"{COLUMN_BUDGET} columns"
            )
        plan.append((j, k))
    plans = profile.plans
    key = (framing.p > 0, *plan)
    group = plans.get(key)
    if group is None:
        try:
            group = _reduce(profile.pieces, plan, framing.p > 0, slots, width)
        except EliminationOverflow as e:
            raise EliminationOverflow(f"framing {framing}, class i={i}: {e}") from None
        if len(plans) >= PLAN_CACHE:
            plans.clear()
        plans[key] = group
    return AbelianGroup(free + group.free_rank, group.torsion) if free else group


def _reduce(pieces, plan: list[tuple[int, int]], positive: bool, slots: int, width: int) -> AbelianGroup:
    """ker + coker of the cone of plan: k copies of pieces[j] for each
    (j, k) in turn."""
    # the cone as a based complex: the A-generators are the columns
    # 0..width-1, the B-slot rows the generators width..end-1, with zero
    # differential. p > 0: one B-slot fewer than A-slots, the first v
    # outside the B-range; p < 0: one B-slot more. A zero column is a
    # generator with zero differential too: it counts in end, but is not
    # handed to cancel_units
    end = width + slots - 1 if positive else width + slots + 1
    r = width - 1 if positive else width  # row of the next slot's v; h lands on r + 1
    cols = []
    for j, k in plan:
        data = pieces[j]
        for _ in range(k):
            for x, y in zip(data.v, data.h):
                col = {}
                if x and r >= width:
                    col[r] = x
                if y and r + 1 < end:
                    col[r + 1] = y
                if col:
                    cols.append(col)
            r += 1
    steps = cancel_units(cols)
    rest = [col for col in cols if col]
    divisors = smith_normal_form(rest) if rest else []
    return AbelianGroup(end - 2 * (len(steps) + len(divisors)), tuple(d for d in divisors if d > 1))


@dataclass(frozen=True)
class SpincEntry:
    i: int
    group: AbelianGroup
    is_l_structure: bool


@dataclass(frozen=True)
class SurgeryReport:
    """Per-spin-c groups for one surgery, plus the aggregate counts."""

    framing: Framing
    spinc: tuple[SpincEntry, ...]
    ell: int
    total_rank: int


def spinc_runs(profile: SurgeryProfile, framing: Framing) -> list[tuple[range, AbelianGroup]]:
    """The classes [0, |p|) in ascending runs that share one cone, with
    one spinc_group call per run, at its first class.

    Class i + 1 differs from class i only at the slots s where the point
    i + 1 + p s reaches a threshold t q; there phi(s) goes from t - 1 to t,
    and the slot's data from local(t - 1) to local(t). Unless t is a cut
    of the profile, the two are equal: every slot keeps its data and the
    cone is the same. The window ends are where phi passes G and 1 - G,
    so they move only at t = G or t = 1 - G, and the slots between them
    hold 1 - G <= phi <= G - 1. A crossing at any other t outside
    1 - G <= t <= G changes only an end A-slot e, between data of slots
    s >= G (or s <= -G): rank 1 with the outward unit, v (or h), up to
    sign, and the other entry 0 past the genus but free at s = +-G. A
    sign never changes the group, and neither does that other entry. For
    p > 0 it lies outside the B-range: the first A-slot's v row is below
    b_lo and the last A-slot's h row above b_hi. For p < 0 the unit of e
    is alone on its row (b_lo, or b_hi, which no other A-slot meets), and
    the row operation that clears e's other entry with it touches no
    other column.

    So the runs are cut at the residues t q mod |p| for t = 0 (the first
    class), t = 1 - G, t = G and the cuts of the profile strictly between
    them, G = max(genus, 1): at most 2G runs, and three for a profile
    with one piece inside the window, whatever the genus.
    """
    n = abs(framing.p)
    g_bound = max(profile.genus, 1)
    cuts = profile.cuts
    inner = cuts[bisect_right(cuts, 1 - g_bound):bisect_left(cuts, g_bound)]
    starts = sorted({t * framing.q % n for t in (0, 1 - g_bound, g_bound, *inner)})
    return [
        (range(lo, hi), spinc_group(profile, framing, lo))
        for lo, hi in zip(starts, starts[1:] + [n])
    ]


def run_counts(runs: list[tuple[range, AbelianGroup]]) -> tuple[int, int]:
    """(ell, total_rank) of spinc_runs output: the number of classes whose
    group is exactly Z, and the free rank summed over all classes."""
    # run.stop - run.start, not len(run): len overflows past 2^63 classes
    ell = sum(run.stop - run.start for run, group in runs if group.is_z)
    return ell, sum((run.stop - run.start) * group.free_rank for run, group in runs)


def surgery_report(profile: SurgeryProfile, framing: Framing) -> SurgeryReport:
    """The group of every class i in ascending order, from one spinc_group
    call per run of spinc_runs; ell counts the classes whose group is Z."""
    runs = spinc_runs(profile, framing)
    ell, total_rank = run_counts(runs)
    entries = tuple(SpincEntry(i, group, group.is_z) for run, group in runs for i in run)
    return SurgeryReport(framing=framing, spinc=entries, ell=ell, total_rank=total_rank)
