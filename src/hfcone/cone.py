"""The truncated surgery mapping cone.

For a framing p/q (q >= 1, sign carried by p) and a residue class
i in [0, |p|), the cone couples copies of the profile slots

    phi(s) = floor((i + p s) / q)

indexed by s: the A-slot at position s maps to the B-slot at position s
by v_{phi(s)} and to the B-slot at position s + 1 by h_{phi(s)}. The
homology of the cone is ker(D) + coker(D) for the cone matrix D, which
splits because integer kernels are free; torsion can only enter through
the cokernel and is reported as-is.

D is never built. Once the stretches below are collapsed, it is
block-bidiagonal: the columns of the A-slot at position k lie on B-rows k
and k + 1 only (for p > 0 the first slot's v row and the last slot's h
row lie outside the window). ker D is free of rank width - rank D, and
rank D is the row count less the free rank of coker D, so only coker D
is computed, one B-row at a time, left to right (``_reduce``). The state
is the cokernel of the rows seen so far, marked by the class m of the
last row: at most one free generator, on which m is a >= 0, and the
summands Z/d on which m is b != 0 mod d, kept as gcd(b, d) (``_marked``),
so that equal states take equal steps. A summand m does not touch is
banked: no later relation involves it, so it stays a direct summand. An
A-slot with columns (x, y) adds a row e and the relations x m + y e, and
e is the new mark. Unimodular operations on one copy's columns keep the
relations' span and the kernel rank, and one extended-gcd pass
(``_shape``) brings them to (u, g), (c, 0) and zeros: g = gcd(y), c >= 0
and u mod c. Closed forms take the common steps: m = 0 adds Z/g; g = 1
substitutes e = -u m, leaving the old group over c m; g = 0 banks the
old state over c m whole; c = 0 on a torsion-free state is an extended
gcd. Any other step reduces the relations of the two columns with the
Smith form of ``exactla``, tracking e through the row operations. So the
cost per class is linear in the window and in the slots' ranks, whatever
the entries. The banked summands become invariant factors by gcd/lcm
swaps, and only those factors must lie within 2^63: the state may pass
that on the way to a small answer (the chain of v 3 h 2 slots at -1/20
is Z, and its mark reaches 96 bits on the way). The state is bounded by
STATE_BITS bits instead, so that huge input still fails fast.

Slot direction convention: h raises the B-slot index by one. The
opposite choice swaps the roles of +p and -p (it computes the mirror
answers). The convention used here is pinned by regression fixtures:
1/q surgery on the trivial profile must give Z, and +1 surgery on the
genus-1 staircase profile must give Z while -1 gives Z^3.

Truncation: with G = max(genus, 1), slots with phi(s) >= G carry a unit
v and slots with phi(s) <= -G carry a unit h, so the infinite complex
retracts onto a finite window: the A-slots a_lo..a_hi from the last
slot before the band -G < phi < G to the first slot past it. For p > 0
the B-rows are a_lo + 1..a_hi, one fewer; for p < 0 a_lo..a_hi + 1, one
more. Enlarging the window never changes the answer (property-tested),
it only pads the matrix with unit rows.

End slots: a_lo and a_hi have phi outside the band, so their data is
rank 1, the outward unit (v past G, h below -G) up to sign and the
other entry 0 past the genus, free at phi = +-G. For p > 0 the unit is
the only entry of its column inside the window, the other row lying
outside; for p < 0 it is the only entry of its row, b_lo or b_hi, which
no other A-slot meets. Either way the unit cancels with its row and
column and leaves the rest of the cone as it was, whatever its sign and
the other entry.

Windows of two or three A-slots: only the end slots have phi outside
the band, so a window of at most three slots has at most one slot in
the band. For |p| >= (2G - 1) q every class has such a window: these
are the paper's first kind (no band slot, group Z) and second kind (one
band slot s, group read from A_s by v_s and h_s). Cancelling both end
slots leaves the middle slot alone, of rank r with columns (u, g),
(c, 0) and zeros (``_shape``):
  * two slots: Z;
  * three slots, p > 0: both of the middle slot's rows are cancelled,
    and its columns are kernel: Z^r;
  * three slots, p < 0: ker + coker of the 2 x r matrix [v; h], of rank
    k = (g > 0) + (c > 0): free rank r + 2 - 2k, and the divisors > 1 of
    d1 = gcd(u, g, c) and, when k = 2, of c g / d1.
``spinc_group`` answers these windows so, without stretches, plan or
scan; COLUMN_BUDGET still counts their r + 2 columns.

Stretches: phi is monotone in s, and the profile's data is constant on
each of its pieces (``profiles``), so the A-slots whose phi(s) lies in
one piece form one stretch of consecutive slots, all carrying the same
data d. It spans one value of phi or many: lspace:g=10^9 gives three
stretches at any framing. Only a stretch's two end rows meet other
slots. A stretch of k >= 3 copies of collapsible data keeps its first
and last copy, the rows between them are compacted, and (k - 2) gain(d)
(``_shape``) is added to the free rank, so the cone costs O(pieces)
slots for collapsible data at any q and any genus. The argument below uses only
that the k copies are consecutive A-slots with equal data, not which
phi they come from. Removing one interior copy, with one of the rows
only the stretch touches, changes the group by exactly Z^gain(d) when d
(rank r, its columns (u, g), (c, 0) and zeros over the copy's two rows)
is
  * zero, g = c = 0: gain r + 1, the copy's r columns are kernel and
    the removed row is hit by nothing;
  * of full rank with span Z^2, g = c = 1 (so u = 0): gain r - 1. The
    columns are (e_bottom, e_top, 0, ...). The interior copy's two units
    clear its two rows and turn one unit of each neighbour into a zero
    column; without the copy the neighbours share one row, where one
    unit pivots and the other becomes zero;
  * of rank 1 with unit direction, g = 0 and c = 1, or g = 1, c = 0 and
    |u| <= 1: gain r - 1. One column u e_top + g e_bottom is left. A zero
    u or g makes the column a unit alone on its row; otherwise its
    unit pivot merges the two rows up to a sign, and since the
    stretch's interior rows meet nothing else the cone is a path there,
    so negating every row and column on one side absorbs the sign.
So g, c and |u| at most 1, not all of g and c zero, give r - 1.
Any other stretch keeps every copy: after a unit alone on a stretch's
first row, k copies of the column (2, 3) leave Z/3^k. The collapsed
cone goes to the same scan. The emitted columns are counted stretch by
stretch first, and a cone of more than COLUMN_BUDGET is refused with
ConeTooLarge before the scan starts.

Plans: after collapsing, the cone is fixed by the sign of p and the
sequence of (piece, emitted copies) of its stretches; the collapsed
free rank is added on top. So the profile keeps each plan's group, less
that rank, in ``profile.plans`` (at most PLAN_CACHE of them), and a class
or framing with a plan seen before is not reduced again. The cache
belongs to the profile object, so separate profiles, and separate
command-line queries, share nothing.

Runs of classes: class i + 1 has the cone of class i except at a few
residues t q mod |p|, so the classes fall into runs that share one
cone. ``spinc_runs`` cuts them, builds one cone per run, and gives the
argument (the standard one, Ozsvath-Szabo math/0504404) and the count.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from math import gcd

from .exactla import (
    STATE_BITS,
    AbelianGroup,
    EliminationOverflow,
    Record,
    _overflow,
    invariant_factors,
    smith_normal_form,
)
from .profiles import InputError, SurgeryProfile, ascii_int, quoted

# columns (A-generators) one cone may emit after collapsing stretches:
# about 500 times the largest cone of the tests and the benchmark. The
# scan builds no columns: at the budget a cone peaks at 15-31 MB (the
# more when every column banks a Z/2) and takes 0.5-2.2 s, or 12-15 s
# when every slot needs the Smith form (v 3,3 h 2,0 at -1/499990, v 2
# h 2 at 1/999990; 2-core x86-64, Python 3.11)
COLUMN_BUDGET = 10**6

# reduced plans one profile keeps (a key of two ints per stretch and a
# group each); the 37,344 framings of lspace:g=3 at -3000..3000/1..10 need
# 2 of them, their windows of two and three slots none
PLAN_CACHE = 4096


class FramingError(InputError):
    """Not a valid surgery slope."""


class ConeTooLarge(InputError):
    """The cone of a class would emit more than COLUMN_BUDGET columns."""


class Framing(Record):
    """Reduced slope p/q with q >= 1; the sign lives in p."""

    def __init__(self, p: int, q: int = 1):
        if q < 0:
            p, q = -p, -q
        if q == 0:
            raise FramingError("q must be nonzero")
        if p == 0:
            raise FramingError("p must be nonzero (0-surgery is not a rational homology sphere)")
        if gcd(abs(p), q) != 1:
            raise FramingError(f"{p}/{q} is not reduced")
        self.__dict__.update(p=p, q=q)

    @staticmethod
    def parse(text: str) -> "Framing":
        p, slash, q = text.strip().partition("/")
        try:
            slope = ascii_int(p), ascii_int(q) if slash else 1
        except ValueError:
            raise FramingError(f"cannot parse framing {quoted(text)}; expected 'p' or 'p/q'") from None
        return Framing(*slope)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def phi(i: int, p: int, q: int, s: int) -> int:
    """floor((i + p*s)/q), the profile slot feeding cone position s."""
    if q < 1:
        raise ValueError("q must be positive")
    return (i + p * s) // q


class Window(Record):
    """Truncation window: A-slots [a_lo, a_hi], B-slots [b_lo, b_hi]."""

    def __init__(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int):
        self.__dict__.update(a_lo=a_lo, a_hi=a_hi, b_lo=b_lo, b_hi=b_hi)


def truncation_window(profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0) -> Window:
    """Smallest window outside which every slot is a cancelling unit pair.

    pad >= 1 enlarges both A ends; the B range follows the same end rule,
    which is what the stability property tests exercise.
    """
    a_lo, a_hi = _a_range(profile, framing, i, pad)
    return Window(a_lo, a_hi, a_lo + (framing.p > 0), a_hi + (framing.p < 0))


def _a_range(profile: SurgeryProfile, framing: Framing, i: int, pad: int) -> tuple[int, int]:
    """The A-slots [a_lo, a_hi] of truncation_window."""
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    g_bound = max(profile.genus, 1)
    p, q = framing.p, framing.q
    # phi crosses a threshold t between slot (t q - e) // p and the next,
    # e = i + (p > 0): from the next on, phi >= t if p > 0, phi < t if
    # p < 0. a_lo is the last slot before the band 1 - G <= phi < G and
    # a_hi the first past it: p > 0 crosses 1 - G then G, p < 0 G then 1 - G
    e = i + (p > 0)
    lo, hi = (1 - g_bound, g_bound) if p > 0 else (g_bound, 1 - g_bound)
    return (lo * q - e) // p - pad, (hi * q - e) // p + 1 + pad


def _stretches(profile: SurgeryProfile, framing: Framing, i: int, a_lo: int, a_hi: int):
    """(piece, data, k) for each stretch of the A-slots a_lo..a_hi, left
    to right: the k consecutive slots s whose phi(s) lies in one piece of
    the profile, which carries data."""
    p, q = framing.p, framing.q
    cuts, pieces = profile.cuts, profile.pieces
    e = i + (p > 0)
    s = a_lo
    while s <= a_hi:
        j = bisect_right(cuts, (i + p * s) // q)
        # the stretch ends where phi crosses the cut that bounds piece j
        # in its direction (_a_range): cuts[j] rising, cuts[j - 1] falling
        t = j - (p < 0)
        last = min((cuts[t] * q - e) // p, a_hi) if 0 <= t < len(cuts) else a_hi
        yield j, pieces[j], last - s + 1
        s = last + 1


def spinc_group(profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0) -> AbelianGroup:
    """HF-hat of the surgered manifold in the spin-c class i, as
    ker + coker of the truncated cone matrix. A window of two or three
    A-slots is answered from its middle slot, if any (module docstring);
    a larger one has its stretches collapsed, and a plan the profile has
    reduced before is read from profile.plans. Raises ConeTooLarge past
    COLUMN_BUDGET emitted columns; an EliminationOverflow names the
    framing and the class."""
    if not 0 <= i < abs(framing.p):
        raise ValueError(f"spin-c class {i} outside [0, {abs(framing.p)})")
    a_lo, a_hi = _a_range(profile, framing, i, pad)
    try:
        if a_hi - a_lo <= 2:
            # at most one slot in the band: the end units cancel, and the
            # middle slot, if any, is left alone (module docstring)
            mid = profile.local((i + framing.p * (a_lo + 1)) // framing.q) if a_hi - a_lo == 2 else None
            r = 0 if mid is None else mid.rank
            if r + 2 > COLUMN_BUDGET:
                raise _too_large(framing, i)
            if mid is None:
                return AbelianGroup(1)
            if framing.p > 0:
                return AbelianGroup(r)
            u, g, c, gx, _ = _shape(mid.v, mid.h)
            k = (g > 0) + (c > 0)
            d1 = gcd(gx, g)
            torsion = invariant_factors([d for d in (d1, c * g // d1 if k == 2 else 0) if d > 1])
            return AbelianGroup(r + 2 - 2 * k, torsion)
        plan = []
        slots = width = free = 0
        for j, data, k in _stretches(profile, framing, i, a_lo, a_hi):
            if k >= 3 and (gain := _shape(data.v, data.h)[4]) is not None:
                free += (k - 2) * gain
                k = 2
            slots += k
            width += k * data.rank
            if width > COLUMN_BUDGET:
                raise _too_large(framing, i)
            plan.append((j, k))
        plans = profile.plans
        key = (framing.p > 0, *plan)
        group = plans.get(key)
        if group is None:
            group = _reduce(profile.pieces, plan, framing.p > 0, slots, width)
            if len(plans) >= PLAN_CACHE:
                plans.clear()
            plans[key] = group
    except EliminationOverflow as e:
        raise EliminationOverflow(f"framing {framing}, class i={i}: {e}") from None
    return AbelianGroup(free + group.free_rank, group.torsion) if free else group


def _too_large(framing: Framing, i: int) -> ConeTooLarge:
    return ConeTooLarge(
        f"framing {framing}, class i={i}: the cone needs more than {COLUMN_BUDGET} columns"
    )


def _reduce(pieces, plan: list[tuple[int, int]], positive: bool, slots: int, width: int) -> AbelianGroup:
    """ker + coker of the cone of plan: k copies of pieces[j] for each
    (j, k) in turn, by one scan of its B-rows (module docstring)."""
    # the state (module docstring) is (a, tors), tors holding (d, b), with
    # free and banked for what it banks. p > 0 starts from the trivial
    # group, the first slot's v row lying outside the window; p < 0 from
    # Z, marked by its generator
    a, tors, free, banked = (0 if positive else 1), [], 0, []
    left = slots - 1 if positive else slots  # the slots that add a row
    for j, k in plan:
        shape = _shape(pieces[j].v, pieces[j].h)
        for _ in range(min(k, left)):
            a, tors, f = _next_row(a, tors, shape, banked)
            free += f
            if a >> STATE_BITS:
                raise _overflow(STATE_BITS)
        left -= k
    if positive:
        # the last slot's h row lies outside the window: its columns only
        # add the relations x m, that is gx m
        a, tors, f = _quotient(a, tors, shape[3], banked)
        free += f
    if tors:
        banked.extend(d for d, b in tors)
    rows = slots - 1 if positive else slots + 1
    return AbelianGroup(width - rows + 2 * (free + (a > 0)), invariant_factors(banked))


@functools.lru_cache(maxsize=4096)
def _shape(v: tuple[int, ...], h: tuple[int, ...]):
    """(u, g, c, gx, gain) of one copy of slot data v, h in the scan: its
    columns (x, y), x on the copy's first B-row and y on its second, as
    unimodular column operations leave them, (u, g), (c, 0) and zeros,
    with g = gcd(y) >= 0, c >= 0 and u mod c; gx = gcd(u, c), the gcd of
    the x; and the free rank that one more interior copy adds to a
    stretch, or None when copies do not collapse (module docstring)."""
    u = g = c = 0
    for x, y in zip(v, h):
        if y:
            # (u, g), (x, y) -> (s u + t x, g0), ((g x - y u) / g0, 0); when
            # g | y, s = 1 and t = 0, so u keeps its size
            g0, t, s = _xgcd(y, g)
            u, x, g = s * u + t * x, (g * x - y * u) // g0, g0
        c = gcd(c, x)
    if c:
        u %= c
    if not (g or c):
        gain = len(v) + 1
    elif max(g, c, abs(u)) <= 1:
        gain = len(v) - 1
    else:
        gain = None
    return u, g, c, gcd(u, c), gain


def _next_row(a: int, tors: list, shape, banked: list) -> tuple[int, list, int]:
    """The state after one more B-row e and the relations x m + y e of
    shape's columns, marked by e; the third entry counts the free
    generators it banks."""
    u, g, c, _, _ = shape
    if not (a or tors):
        # m = 0: the row adds Z e / g e
        if g == 1:
            return 0, [], 0
        return (0, [(g, 1)], 0) if g else (1, [], 0)
    if g == 1:
        # e = -u m: the old group over c m, marked by u m up to sign
        return _quotient(a, tors, c, banked, u)
    if not g:
        # no column meets e: the old group over c m is banked whole, and
        # e is a new free generator
        a, tors, f = _quotient(a, tors, c, banked)
        banked.extend(d for d, b in tors)
        return 1, [], f + (a > 0)
    if not (c or tors):
        # Z f + Z e over u a f + g e: g0 = gcd(u a, g) = s u a + t g is its
        # one divisor, and e is t on Z/g0 and u a / g0 on f
        g0, _, t = _xgcd(u * a, g)
        a = abs(u * a) // g0
        return a, _marked(a, [(g0, t)], banked), a == 0
    return _general(a, tors, ((u, g), (c, 0)) if c else ((u, g),), banked)


def _quotient(a: int, tors: list, c: int, banked: list, scale: int = 1) -> tuple[int, list, int]:
    """The state over the relation c m, marked by scale m, as _next_row
    returns it."""
    if not c:
        # the group stays; scale = 0 leaves its free generator untouched
        f = 1 if a and not scale else 0
        a *= abs(scale)
        return a, _marked(a, [(d, b * scale) for d, b in tors], banked), f
    if not tors:
        # Z / c a: m touches the free generator, or m = 0
        return 0, _marked(0, [(abs(c) * a, scale * a)], banked) if a else [], 0
    if not a and len(tors) == 1:
        # Z/d / c b
        ((d, b),) = tors
        return 0, _marked(0, [(gcd(d, c * b), scale * b)], banked), 0
    return _general(a, tors, ((c, 0),), banked, scale)


def _general(a: int, tors: list, cols, banked: list, scale: int | None = None):
    """_next_row (scale None) or _quotient by the Smith form of the
    relations, with the new mark tracked through its row operations:
    generator 0 is the free one (if a), 1..n the summands of tors, and
    n + 1 the new row."""
    n = len(tors)
    rel = [{k: d} for k, (d, b) in enumerate(tors, 1)]
    for x, y in cols:
        col = {n + 1: y} if y else {}
        if x:
            if a:
                col[0] = x * a
            for k, (d, b) in enumerate(tors, 1):
                col[k] = x * b % d
        rel.append(col)
    if scale is None:
        track = {n + 1: 1}
        gens = n + 1 + (a > 0)
    else:
        track = {k: scale * b for k, (d, b) in enumerate(tors, 1)}
        if a:
            track[0] = scale * a
        gens = n + (a > 0)
    divisors, coords = smith_normal_form(rel, track)
    rank = len(divisors)
    # the free rows: generators no relation meets have no working row
    a = gcd(*coords[rank:])
    tors = _marked(a, [(d, b) for d, b in zip(divisors, coords) if d > 1], banked)
    return a, tors, gens - rank - (a > 0)


def _marked(a: int, tors: list, banked: list) -> list:
    """tors with each b made canonical: b matters mod g, g = d, or
    gcd(a, d) when m is a > 0 on a free generator f (f -> f + c t moves b
    by a c), and a unit of Z/d that rescales t moves it to gcd(b, g). A
    summand with b = 0 mod g, that is gcd(b, g) = g, is banked."""
    out = []
    for d, b in tors:
        g = gcd(a, d) if a else d
        b = gcd(b, g)
        if b != g:
            out.append((d, b))
        elif d > 1:
            banked.append(d)
    return out


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s x + t y."""
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    return (r0, s0, t0) if r0 >= 0 else (-r0, -s0, -t0)


class SpincEntry(Record):
    def __init__(self, i: int, group: AbelianGroup, is_l_structure: bool):
        self.__dict__.update(i=i, group=group, is_l_structure=is_l_structure)


class SurgeryReport(Record):
    """The (classes, group) runs of spinc_runs and their counts, O(runs)
    at any |p|; spinc, one SpincEntry per class, is built on first read
    and kept beside the fields, which alone compare, hash and show."""

    _fields = "framing", "runs", "ell", "total_rank"

    def __init__(self, framing: Framing, runs: tuple[tuple[range, AbelianGroup], ...],
                 ell: int, total_rank: int):
        self.__dict__.update(framing=framing, runs=runs, ell=ell, total_rank=total_rank)

    @functools.cached_property
    def spinc(self) -> tuple[SpincEntry, ...]:
        return tuple(SpincEntry(i, group, group.is_z) for run, group in self.runs for i in run)


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
    1 - G <= t <= G changes only an end A-slot, from one outward unit to
    another, and an end slot cancels whatever its data (module docstring).

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


def surgery_report(profile: SurgeryProfile, framing: Framing) -> SurgeryReport:
    """The report of the runs of spinc_runs, one spinc_group call each; ell
    counts the classes whose group is Z, total_rank sums every free rank."""
    runs = tuple(spinc_runs(profile, framing))
    # run.stop - run.start, not len(run): len overflows past 2^63 classes
    ell = sum(run.stop - run.start for run, group in runs if group.is_z)
    total_rank = sum((run.stop - run.start) * group.free_rank for run, group in runs)
    return SurgeryReport(framing, runs, ell, total_rank)
