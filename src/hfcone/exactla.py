"""Exact integer matrix algebra: dense Smith form, with or without transforms.

Matrices here are small: ``cone`` cancels the +-1 entries of its sparse
cone first and passes only the unit-free remainder, and ``cfk`` slices
are small to begin with. So the implementation favours simplicity and
auditability over asymptotics: fraction-free integer elimination,
pivoting on the entry of smallest nonzero absolute value.

Entries are Python ints but are *checked*: any value whose magnitude
leaves a fixed 64-bit-style window raises :class:`EliminationOverflow`
instead of silently growing. All inputs arising in this package stay far
below the limit; the check exists so that a pathological input fails
loudly rather than degrading into bignum crawl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


def mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Checked matrix product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    arows = a.to_rows()
    bcols = [[b.at(k, j) for k in range(b.rows)] for j in range(b.cols)]
    flat = []
    for i in range(a.rows):
        ra = arows[i]
        for col in bcols:
            flat.append(_checked(sum(x * y for x, y in zip(ra, col))))
    return IntMatrix(a.rows, b.cols, tuple(flat))


def mat_vec(a: IntMatrix, v: Sequence[int]) -> list[int]:
    if a.cols != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    out = []
    for i in range(a.rows):
        base = i * a.cols
        out.append(_checked(sum(a.entries[base + j] * v[j] for j in range(a.cols))))
    return out


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


class _Eliminator:
    """Working state for Smith elimination, optionally tracking transforms.

    Maintains s = u @ original @ v with u, v unimodular, together with
    their inverses (updated by the inverse elementary operation on the
    opposite side, so no matrix inversion is ever needed).
    """

    def __init__(self, m: IntMatrix, track: bool):
        self.a = m.to_rows()
        self.m = m.rows
        self.n = m.cols
        if track:
            self.u = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
            self.uinv = [row[:] for row in self.u]
            self.v = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
            self.vinv = [row[:] for row in self.v]
        else:
            self.u = self.uinv = self.v = self.vinv = None

    def row_swap(self, i: int, j: int) -> None:
        self.a[i], self.a[j] = self.a[j], self.a[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
            for row in self.uinv:
                row[i], row[j] = row[j], row[i]

    def row_negate(self, i: int) -> None:
        self.a[i] = [-x for x in self.a[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
            for row in self.uinv:
                row[i] = -row[i]

    def row_add(self, i: int, j: int, k: int) -> None:
        # row i += k * row j
        ai, aj = self.a[i], self.a[j]
        self.a[i] = [_checked(x + k * y) for x, y in zip(ai, aj)]
        if self.u is not None:
            ui, uj = self.u[i], self.u[j]
            self.u[i] = [_checked(x + k * y) for x, y in zip(ui, uj)]
            for row in self.uinv:
                row[j] = _checked(row[j] - k * row[i])

    def col_swap(self, i: int, j: int) -> None:
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        if self.v is not None:
            for row in self.v:
                row[i], row[j] = row[j], row[i]
            self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def col_add(self, j: int, i: int, k: int) -> None:
        # col j += k * col i
        for row in self.a:
            row[j] = _checked(row[j] + k * row[i])
        if self.v is not None:
            for row in self.v:
                row[j] = _checked(row[j] + k * row[i])
            vi, vj = self.vinv[i], self.vinv[j]
            self.vinv[i] = [_checked(x - k * y) for x, y in zip(vi, vj)]

    def reduce(self) -> list[int]:
        """Diagonalize in place; returns the nonzero diagonal (divisor chain)."""
        a, m, n = self.a, self.m, self.n
        t = 0
        bound = min(m, n)
        while t < bound:
            # pivot: smallest nonzero absolute value in the remaining block
            best = None
            for i in range(t, m):
                row = a[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != t:
                self.row_swap(t, pi)
            if pj != t:
                self.col_swap(t, pj)
            if a[t][t] < 0:
                self.row_negate(t)
            while True:
                changed = False
                for i in range(t + 1, m):
                    # per-entry Euclid on (pivot, a[i][t]); swaps shrink the pivot
                    while a[i][t]:
                        q = a[i][t] // a[t][t]
                        if q:
                            self.row_add(i, t, -q)
                        if a[i][t]:
                            self.row_swap(t, i)
                            changed = True
                for j in range(t + 1, n):
                    while a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            self.col_add(j, t, -q)
                        if a[t][j]:
                            self.col_swap(t, j)
                            changed = True
                if changed:
                    # a swap dragged fresh entries into the pivot row/column
                    continue
                d = a[t][t]
                offender = None
                for i in range(t + 1, m):
                    row = a[i]
                    for j in range(t + 1, n):
                        if row[j] % d:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                # fold the non-divisible row into the pivot row and re-reduce
                self.row_add(t, offender, 1)
            t += 1
        return [a[k][k] for k in range(t)]


@dataclass(frozen=True)
class SnfDecomposition:
    """u @ original @ v = s, with u, v unimodular and tracked inverses."""

    divisors: tuple[int, ...]
    rank: int
    s: IntMatrix
    u: IntMatrix
    u_inv: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix


def smith_normal_form(m: IntMatrix) -> tuple[list[int], int]:
    """Nonzero elementary divisors of m in divisibility order, and their count.

    The count equals the rank of m over the rationals.
    """
    divisors = _Eliminator(m, track=False).reduce()
    return divisors, len(divisors)


def snf_with_transforms(m: IntMatrix) -> SnfDecomposition:
    """Smith form together with the unimodular change-of-basis matrices."""
    e = _Eliminator(m, track=True)
    divisors = e.reduce()
    return SnfDecomposition(
        divisors=tuple(divisors),
        rank=len(divisors),
        s=IntMatrix.from_rows(e.a) if e.a else IntMatrix.zero(m.rows, m.cols),
        u=IntMatrix.from_rows(e.u),
        u_inv=IntMatrix.from_rows(e.uinv),
        v=IntMatrix.from_rows(e.v),
        v_inv=IntMatrix.from_rows(e.vinv),
    )
