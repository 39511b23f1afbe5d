"""The truncated surgery mapping cone.

For a framing p/q (q >= 1, sign carried by p) and a residue class
i in [0, |p|), the cone couples copies of the profile slots

    phi(s) = floor((i + p s) / q)

indexed by s: the A-slot at position s maps to the B-slot at position s
by v_{phi(s)} and to the B-slot at position s + 1 by h_{phi(s)}. The
homology of the cone is ker(D) + coker(D) for the cone matrix D, which
splits because integer kernels are free; torsion can only enter through
the cokernel and is reported as-is.

D is never built dense. Each A-generator is a column with at most two
nonzeros, mostly +-1; unit cancellation pivots on them one by one, each
pivot an elementary divisor 1 that removes its row and column, so the
cost per class is linear in the window. Only the unit-free remainder
goes to the Smith form of ``exactla``, as the same sparse columns and
under the same 2^63 check.

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

Runs of classes (the standard argument, Ozsvath-Szabo math/0504404):
when i becomes i + 1, every point i + p s moves up by one, so phi(s)
changes only where i + 1 + p s = t q, from t - 1 to t. Slots with
phi >= G + 1 hold the right edge data and slots with phi <= -G - 1 the
left edge data (overrides there may only flip a sign, which leaves the
group alone), and the window ends sit on the thresholds t = G, 1 - G.
So class i + 1 has the cone of class i, shifted in s, unless
i + 1 = t q mod |p| for some -G <= t <= G + 1: at most 2G + 2 cuts
(t = 0 gives 0), whatever |p| is. ``spinc_runs`` builds one cone per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactla import AbelianGroup, schur_update, smith_normal_form
from .profiles import SurgeryProfile, ascii_int


class FramingError(ValueError):
    """Not a valid surgery slope."""


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
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    g_bound = max(profile.genus, 1)
    p, q = framing.p, framing.q
    if p > 0:
        # phi is nondecreasing in s
        a_hi = _ceil_div(g_bound * q - i, p)  # first s with phi(s) >= G
        a_lo = (-g_bound * q + q - 1 - i) // p  # last s with phi(s) <= -G
        a_lo -= pad
        a_hi += pad
        return Window(a_lo, a_hi, a_lo + 1, a_hi)
    # phi is nonincreasing in s
    a_lo = (i - g_bound * q) // (-p)  # last s with phi(s) >= G
    a_hi = _ceil_div(i + g_bound * q - q + 1, -p)  # first s with phi(s) <= -G
    a_lo -= pad
    a_hi += pad
    return Window(a_lo, a_hi, a_lo, a_hi + 1)


def _cancel_units(cols: list[dict[int, int]], nrows: int) -> tuple[int, list[dict[int, int]]]:
    """Pivot on +-1 entries of the {row: entry} columns until none is left;
    returns the pivot count and the nonzero columns left over.

    Pivoting on the unit u at (r, c) clears row r from every other column
    c2 by c2 -= c2[r] * u * c, which touches only the one other row of c:
    columns keep at most two entries and a pivot costs the degree of r.
    """
    on_row: list[set[int]] = [set() for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r in col:
            on_row[r].add(c)
    work = list(range(len(cols)))
    pivots = 0
    while work:
        c = work.pop()
        col = cols[c]
        units = [r for r, x in col.items() if x == 1 or x == -1]
        if not units:
            continue  # pivoted already, or holds no unit (yet)
        r = units[0]
        if len(units) == 2 and len(on_row[units[1]]) < len(on_row[r]):
            r = units[1]  # fold the sparser row into the denser one
        u = col.pop(r)
        for c2 in on_row[r]:
            col2 = cols[c2]
            a = col2.pop(r, 0)
            if not a:
                continue  # c itself, or a stale entry: c2 has left row r
            schur_update(col2, a * u, col)
            for r2 in col:
                on_row[r2].add(c2)
            work.append(c2)
        col.clear()
        pivots += 1
    return pivots, [col for col in cols if col]


def spinc_group(profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0) -> AbelianGroup:
    """HF-hat of the surgered manifold in the spin-c class i, as
    ker + coker of the truncated cone matrix."""
    if not 0 <= i < abs(framing.p):
        raise ValueError(f"spin-c class {i} outside [0, {abs(framing.p)})")
    w = truncation_window(profile, framing, i, pad)
    nrows = w.b_hi - w.b_lo + 1
    cols = []
    for s in range(w.a_lo, w.a_hi + 1):
        data = profile.local(phi(i, framing.p, framing.q, s))
        r = s - w.b_lo  # row of v_s; h_s lands on row r + 1
        for x, y in zip(data.v, data.h):
            col = {}
            if x and r >= 0:
                col[r] = x
            if y and r + 1 < nrows:
                col[r + 1] = y
            cols.append(col)
    pivots, rest = _cancel_units(cols, nrows)
    divisors = smith_normal_form(rest) if rest else []
    rank = pivots + len(divisors)
    return AbelianGroup((len(cols) - rank) + (nrows - rank), tuple(d for d in divisors if d > 1))


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
    """The classes [0, |p|) in ascending runs that share one group, with
    one spinc_group call per run, at its first class.

    Class i + 1 has the cone of class i unless some point i + 1 + p s
    crosses a threshold t q with -G <= t <= G + 1, G = max(genus, 1),
    where slot data or a window end can change (module docstring). So the
    runs are cut at the residues t q mod |p|: at most 2G + 2 of them.
    """
    n = abs(framing.p)
    g_bound = max(profile.genus, 1)
    cuts = sorted({t * framing.q % n for t in range(-g_bound, g_bound + 2)})
    return [
        (range(lo, hi), spinc_group(profile, framing, lo))
        for lo, hi in zip(cuts, cuts[1:] + [n])
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
