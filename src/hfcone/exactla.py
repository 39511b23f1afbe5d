"""Exact integer linear algebra on sparse {row: entry} columns, the one
matrix format of the package: the elimination step and the Smith form.

``cone`` and ``cfk`` reduce their columns by cancelling +-1 entries, each
cancellation a :func:`schur_update` on the columns that meet the pivot
row, and pass only the unit-free remainder, still as columns, to
:func:`smith_normal_form`. That remainder is small, so the Smith form
favours simplicity and auditability over asymptotics: dense fraction-free
integer elimination, pivoting on the entry of smallest nonzero absolute
value, and only the elementary divisors come out.

Entries are Python ints but are *checked*: any value whose magnitude
leaves a fixed 64-bit-style window raises :class:`EliminationOverflow`
instead of silently growing. Columns come in inside that window (profile
data is bounded, slices check their summed entries). All inputs arising
in this package stay far below the limit; the check exists so that a
pathological input fails loudly rather than degrading into bignum crawl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_LIMIT = 2**63


class EliminationOverflow(OverflowError):
    """An entry left the checked magnitude window during elimination."""


def _checked(x: int) -> int:
    if x > _LIMIT or x < -_LIMIT:
        raise EliminationOverflow(f"integer magnitude exceeded 2^63 during elimination")
    return x


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


def smith_normal_form(cols: Sequence[dict[int, int]]) -> list[int]:
    """Nonzero elementary divisors, in divisibility order, of the matrix
    whose columns are the sparse {row: entry} dicts cols; their count is
    its rank over the rationals.

    The rows that occur, in ascending order, become the dense working rows
    of the elimination; rows and columns that are all zero change nothing.
    """
    index = {r: k for k, r in enumerate(sorted({r for col in cols for r in col}))}
    nrows, ncols = len(index), len(cols)
    a = [[0] * ncols for _ in range(nrows)]
    for j, col in enumerate(cols):
        for r, x in col.items():
            a[index[r]][j] = x

    def row_add(i: int, j: int, k: int) -> None:
        # row i += k * row j
        a[i] = [_checked(x + k * y) for x, y in zip(a[i], a[j])]

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
                            row[j] = _checked(row[j] - q * row[t])
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
    return [a[k][k] for k in range(t)]
