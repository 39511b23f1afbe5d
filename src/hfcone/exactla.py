"""Exact integer linear algebra: the sparse elimination step and the
dense Smith form.

``cone`` and ``cfk`` reduce sparse {row: entry} columns by cancelling
their +-1 entries, each cancellation a :func:`schur_update` on the columns
that meet the pivot row, and pass only the unit-free remainder to
:func:`smith_normal_form`. That remainder is small, so the Smith form
favours simplicity and auditability over asymptotics: fraction-free
integer elimination, pivoting on the entry of smallest nonzero absolute
value, and only the elementary divisors come out.

Entries are Python ints but are *checked*: any value whose magnitude
leaves a fixed 64-bit-style window raises :class:`EliminationOverflow`
instead of silently growing. All inputs arising in this package stay far
below the limit; the check exists so that a pathological input fails
loudly rather than degrading into bignum crawl.
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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for x in self.entries:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"non-integer entry {x!r}")
            _checked(x)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return IntMatrix(nrows, ncols, tuple(flat))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


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


def smith_normal_form(m: IntMatrix) -> tuple[list[int], int]:
    """Nonzero elementary divisors of m in divisibility order, and their count.

    The count equals the rank of m over the rationals.
    """
    a, nrows, ncols = m.to_rows(), m.rows, m.cols

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
    return [a[k][k] for k in range(t)], t
