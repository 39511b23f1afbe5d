"""Exact integer linear algebra on sparse {row: entry} columns, the one
matrix format of the package: unit cancellation, the Smith form and
invariant factors.

The slices of ``cfk`` are based complexes, and :func:`cancel_units`
reduces them: it cancels +-1 arrows by the Gaussian elimination lemma,
each cancellation a :func:`schur_update` on the columns that meet the
pivot row. A complex on n generators with k cancellations and a
unit-free remainder of elementary divisors d_1, ..., d_m has homology
Z^(n - 2(k + m)) + sum Z/d_i. The remainder goes, still as columns, to
:func:`smith_normal_form`. The surgery cone of ``cone`` is scanned row by
row instead, and hands the same routine the small relation matrices of
the steps that have no closed form, with the new row tracked through the
row operations. Those matrices are small, so the Smith form favours
simplicity and auditability over asymptotics: dense integer elimination,
pivoting on the entry of smallest nonzero absolute value.
:func:`invariant_factors` turns the cyclic summands a reduction leaves
into the divisor chain of an :class:`AbelianGroup`.

Entries are Python ints but are *checked*, in two ways. Every working
integer of a reduction is bounded by its size, STATE_BITS bits, so that a
pathological input fails fast instead of degrading into a bignum crawl;
and what is reported, the Smith form's divisors and the invariant
factors, must lie within 2^63. Working entries may pass 2^63 on the way
to a small answer: the 7 x 7 matrix of ``test_exactla`` with invariant
factors 1 (six times) and 1,866,006 does. Either check raises
:class:`EliminationOverflow`. The slices' columns come in within 2^63
(each summed entry passes :func:`_checked`), the cone scan's within the
bit bound of its state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

_LIMIT = 2**63

# bit length every working integer of a reduction stays within (the Smith
# form's entries, the cone scan's state). On the chain of v 3 h 2 slots,
# whose group is Z, the scan's mark grows by log2(3) bits a slot: 96 bits
# at -1/20, past this bound from -1/862 on, which is refused. A cone of
# COLUMN_BUDGET such slots would need 1.6 million bits, and its arithmetic
# would crawl
STATE_BITS = 4096


class EliminationOverflow(OverflowError):
    """An entry left the checked magnitude window during elimination."""


# the input errors of cfk's complexes live here, where the command line
# can name them without importing cfk; cfk re-exports them
class InvalidComplexError(ValueError):
    """The complex violates its structural invariants."""


class TorsionError(ValueError):
    """Homology has torsion where a free group is required."""


class StaircaseError(ValueError):
    """Coefficients do not describe a staircase complex."""


class ComplexTooLarge(ValueError):
    """More generators x slices than cfk.SLICE_BUDGET, the most to_profile may reduce."""


def _checked(x: int) -> int:
    if x > _LIMIT or x < -_LIMIT:
        raise _overflow()
    return x


def _overflow() -> EliminationOverflow:
    return EliminationOverflow("integer magnitude exceeded 2^63 during elimination")


def _bounded(entries: list[int]) -> list[int]:
    """entries, unless one of them exceeds STATE_BITS bits."""
    if max(map(abs, entries)) >> STATE_BITS:
        raise EliminationOverflow(f"integer magnitude exceeded 2^{STATE_BITS} during elimination")
    return entries


def schur_update(dst: dict[int, int], k: int, src: dict[int, int]) -> None:
    """dst -= k * src on sparse {index: entry} vectors, every entry checked
    and zeros dropped: the update one unit cancellation makes to each
    column that meets its pivot row."""
    for r, x in src.items():
        y = _checked(dst.get(r, 0) - k * x)
        if y:
            dst[r] = y
        else:
            dst.pop(r, None)


def cancel_units(cols: dict[int, dict[int, int]]) -> list[tuple[int, int, int, dict, dict]]:
    """Cancel +-1 arrows x -> y (x != y) of a based complex until none is
    left, by the Gaussian elimination lemma; returns the cancellations in
    order and leaves in cols the differential of what survives.

    cols maps each generator x, in ascending order, to d(x) as {y: coeff},
    every y a key of cols. Each step is (x, y, u, column, row): the unit u,
    d(x) without x and y, and the arrows z -> y, as they stood then. x and
    y leave the complex, and each z -> y, x -> w pair adds
    -d(z->y) u d(x->w) to z -> w, a schur_update of z by x.

    That update multiplies the other entries of x by the entry of z on y.
    So a pivot whose column has a non-unit entry, on a row that another
    column shares, waits until no other pivot is left: it is tried again
    whenever a cancellation changes an entry on one of its rows or in its
    column, and when nothing else can pivot, the last to wait is taken
    anyway. A chain of such columns (d x_j = y_j + 2 y_{j+1}) is then
    cancelled from its free end, and its entries never grow; taken from
    the other end, they would double at every step. Of several unit rows
    the one on the fewest columns is taken, so the fewest columns are
    updated.

    Every choice looks only at the connected component of its column, and
    the work list visits a component's columns in one order whatever else
    is there, so a component has the same cancellations alone as in any
    larger complex.
    """
    # the columns that have had an entry on each row
    on_row: dict[int, set[int]] = {z: set() for z in cols}
    for z, col in cols.items():
        for w in col:
            on_row[w].add(z)
    steps = []
    work = list(cols)
    waiting: dict[int, None] = {}  # the columns that wait, in the order they came
    force = False
    while work or waiting:
        if not work:
            work.append(waiting.popitem()[0])
            force = True
        x = work.pop()
        waiting.pop(x, None)
        col = cols[x]
        units = [w for w, a in col.items() if w != x and (a == 1 or a == -1)]
        if not units:
            continue  # cancelled already, or holds no unit (yet)
        y = units[0]
        for w in units[1:]:
            if len(on_row[w]) < len(on_row[y]):
                y = w
        if (
            not force
            and len(units) < len(col)
            and any(z != x and y in cols[z] for z in on_row[y])
        ):
            waiting[x] = None
            continue
        force = False
        u = col.pop(y)
        col.pop(x, None)
        cols[y].clear()
        row = {}
        for z in on_row[y]:
            a = cols[z].pop(y, 0)
            if a:  # else x, y, or stale: z has left row y
                row[z] = a
                schur_update(cols[z], a * u, col)
                for w in col:
                    on_row[w].add(z)
                work.append(z)
        for z in on_row[x]:
            cols[z].pop(x, None)  # arrows into x leave with it
        if waiting:
            # the rows of x changed: a pivot there may wait no more
            work.extend(z for w in (x, *col) for z in on_row[w] if z in waiting)
        steps.append((x, y, u, col, row))
        cols[x] = {}
    return steps


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion divisors.

    torsion is the invariant-factor chain d1 | d2 | ... with every di >= 2;
    the group is Z^free_rank + Z/d1 + Z/d2 + ...
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion divisor {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(f"torsion divisors not in divisibility order: {prev}, {d}")
            prev = d

    @property
    def is_z(self) -> bool:
        return self.free_rank == 1 and not self.torsion

    def describe(self) -> str:
        """Stable text rendering: 'Z^r', '+ Z/d' suffixes, '0' if trivial."""
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def smith_normal_form(cols: Sequence[dict[int, int]], track: dict[int, int] | None = None):
    """Nonzero elementary divisors, in divisibility order, of the matrix
    whose columns are the sparse {row: entry} dicts cols; their count is
    its rank over the rationals. The largest must lie within 2^63.

    The rows that occur, in ascending order, become the dense working rows
    of the elimination; rows and columns that are all zero change nothing.
    With a tracked vector track ({row: entry}), its rows are working rows
    too, every row operation is applied to it as well, and the result is
    (divisors, coords): coords[k] is its coordinate on the k-th working
    row of the diagonal form, whose first len(divisors) rows carry the
    divisors and the rest are free. The divisors are then a working state,
    not an answer, and are not held to 2^63.
    """
    rows = {r for col in cols for r in col}
    if track is not None:
        rows.update(track)
    index = {r: k for k, r in enumerate(sorted(rows))}
    nrows, ncols = len(index), len(cols)
    # the tracked vector rides along as one more column, which no column
    # operation touches
    a = [[0] * (ncols + (track is not None)) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for r, x in col.items():
            a[index[r]][j] = x
    if track is not None:
        for r, x in track.items():
            a[index[r]][ncols] = x

    def row_add(i: int, j: int, k: int) -> None:
        # row i += k * row j
        a[i] = _bounded([x + k * y for x, y in zip(a[i], a[j])])

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # pivot: smallest nonzero absolute value in the remaining block
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            changed = False
            for i in range(t + 1, nrows):
                # per-entry Euclid on (pivot, a[i][t]); swaps shrink the pivot
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        changed = True
            for j in range(t + 1, ncols):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        _bounded([row[j] for row in a])
                    if a[t][j]:
                        col_swap(t, j)
                        changed = True
            if changed:
                # a swap dragged fresh entries into the pivot row/column
                continue
            d = a[t][t]
            offender = None
            for i in range(t + 1, nrows):
                row = a[i]
                for j in range(t + 1, ncols):
                    if row[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the non-divisible row into the pivot row and re-reduce
            row_add(t, offender, 1)
        t += 1
    divisors = [a[k][k] for k in range(t)]
    if track is not None:
        return divisors, [row[ncols] for row in a]
    if divisors and divisors[-1] > _LIMIT:
        raise _overflow()
    return divisors


def invariant_factors(divisors: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of the sum of the Z/d over
    divisors (each d >= 2); the largest must lie within 2^63.

    Z/c + Z/d = Z/gcd(c, d) + Z/lcm(c, d), so each d is swapped down the
    chain from its top, leaving lcm(c, d) in the place of c and carrying
    gcd(c, d) on, until what it carries is 1 or it reaches the bottom.
    Nothing is factored. The chain is kept as groups of equal factors with
    their counts, so a d that divides a group passes it in one step, and
    the 9,000 summands Z/2 of the all-2 profile at -1/1000 cost one step
    each.
    """
    if len(divisors) < 2:
        if divisors and divisors[0] > _LIMIT:
            raise _overflow()
        return tuple(divisors)
    chain: list[tuple[int, int]] = []  # (factor, count), top of the chain first
    for carry in divisors:
        out = []
        for c, m in chain:
            if carry == 1 or c % carry == 0:
                out.append((c, m))
                continue
            g = gcd(c, carry)
            out.append((c // g * carry, 1))
            if m > 1:
                out.append((c, m - 1))
            carry = g
        if carry > 1:
            out.append((carry, 1))
        chain = []
        for c, m in out:
            if chain and chain[-1][0] == c:
                chain[-1] = (c, chain[-1][1] + m)
            else:
                chain.append((c, m))
    if chain and chain[0][0] > _LIMIT:
        raise _overflow()
    return tuple(c for c, m in reversed(chain) for _ in range(m))
