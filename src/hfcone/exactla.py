"""Exact integer linear algebra on sparse {row: entry} columns, the one
matrix format of the package: the algebra that the cone and ``cfk``
share, which is checked integers, :class:`AbelianGroup`, the Smith form
and invariant factors; and :class:`Record`, the base of every value type.

:func:`smith_normal_form` takes what ``cfk`` leaves of a slice after its
unit cancellations, and the small relation matrices of the cone scan's
steps that have no closed form, with the new row tracked through the row
operations. Those matrices are small, so the Smith form favours
simplicity and auditability over asymptotics: one dense loop over the
pivot position t. The smallest nonzero |entry| of the block right of and
below (t, t) pivots. Row operations reduce column t mod it, and a
remainder pivots next; once column t is clear, column operations change
row t alone, leaving its entries mod the pivot, and again a remainder
pivots next. When none is left, a row holding an entry the pivot does
not divide is added to row t, whose remainders then pivot; else t
advances. Each pivot is the smallest entry of its block, so
entries grow slowly: the 25 x 25 matrix with entries in -2..2 of
``test_exactla`` keeps them within the 52 bits of its determinant.
:func:`invariant_factors` turns the cyclic summands a reduction leaves
into the divisor chain of an :class:`AbelianGroup`.

Entries are Python ints but are *checked*, in two ways. Every working
integer of a reduction is bounded by its size, STATE_BITS bits, so that a
pathological input fails fast instead of degrading into a bignum crawl;
and what is reported, the Smith form's divisors and the invariant
factors, must lie within 2^63. Working entries may pass 2^63 on the way
to a small answer: on a 3 x 3 matrix of ``test_exactla``, clearing 2^40
below a pivot 1 writes -2^80 on the way to the divisors 1, 1, 1. Either
check raises :class:`EliminationOverflow`. The slices' columns come in
within 2^63 (each summed entry passes :func:`_checked`), the cone scan's
within the bit bound of its state.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _checked(x: int) -> int:
    if x > _LIMIT or x < -_LIMIT:
        raise _overflow()
    return x


def _overflow(bits: int = 63) -> EliminationOverflow:
    return EliminationOverflow(f"integer magnitude exceeded 2^{bits} during elimination")


def _bounded(entries: list[int]) -> list[int]:
    """entries, unless one of them exceeds STATE_BITS bits."""
    if max(map(abs, entries)) >> STATE_BITS:
        raise _overflow(STATE_BITS)
    return entries


class Record:
    """An immutable value, whose fields its own __init__ sets once in
    __dict__, in the order of its parameters. Records of one class are
    equal when their fields are, and a record hashes as the tuple of its
    fields; no field may be assigned or deleted.

    A class that keeps more than its fields in __dict__, such as a cache,
    names the fields its repr shows in _fields, and those that equality
    and hash read in _compared, by default _fields; one that names none
    compares, hashes and shows all of __dict__."""

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        names, d = self._compared or self._fields, self.__dict__
        return tuple(map(d.__getitem__, names)) if names else tuple(d.values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key() if self._fields else self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={self.__dict__[key]!r}" for key in self._fields or self.__dict__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")


class AbelianGroup(Record):
    """Finitely generated abelian group: free rank plus torsion divisors.

    torsion is the invariant-factor chain d1 | d2 | ... with every di >= 2;
    the group is Z^free_rank + Z/d1 + Z/d2 + ...
    """

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError(f"torsion divisor {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(f"torsion divisors not in divisibility order: {prev}, {d}")
            prev = d
        self.__dict__.update(free_rank=free_rank, torsion=torsion)

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
    # the tracked vector rides along as one more column, which no column
    # operation touches
    full = cols if track is None else [*cols, track]
    index = {r: k for k, r in enumerate(sorted({r for col in full for r in col}))}
    nrows, ncols = len(index), len(cols)
    a = [[0] * len(full) for _ in index]
    for j, col in enumerate(full):
        for r, x in col.items():
            a[index[r]][j] = x

    t, n = 0, min(nrows, ncols)
    while t < n:
        # the smallest nonzero |entry| of the block right of and below
        # (t, t) becomes the pivot, positive, at (t, t)
        d = 0
        for i in range(t, nrows):
            for j, x in enumerate(a[i][t:ncols], t):
                if x and (not d or abs(x) < d):
                    d, pi, pj = abs(x), i, j
        if not d:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        p = a[t]
        # row operations reduce column t mod d: every nonzero entry there
        # is at least d, so each moves, and a remainder is the next pivot
        left = False
        for i in range(t + 1, nrows):
            if q := a[i][t] // d:
                a[i] = _bounded([x - q * y for x, y in zip(a[i], p)])
                left = left or a[i][t]
        if left:
            continue
        # column t is clear below d, so column operations change row t
        # alone, leaving its entries mod d; a remainder is the next pivot
        p[t + 1:ncols] = [x % d for x in p[t + 1:ncols]]
        if any(p[t + 1:ncols]):
            continue
        # d must divide the rest of the block; a row where it does not is
        # added to row t, whose remainders mod d then pivot
        rest = d > 1 and next((row for row in a[t + 1:] if any(x % d for x in row[t + 1:ncols])), None)
        if rest:
            a[t] = _bounded([x + y for x, y in zip(p, rest)])
        else:
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
