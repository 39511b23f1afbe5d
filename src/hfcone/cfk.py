"""Chain-level knot complexes and the surgery data derived from them.

A complex is stored as its i = 0 slice: generators x with an Alexander
grading A(x), arrows x -> U^a y (a >= 0 is the i-drop; the j-drop is then
A(x) - A(y) + a and must also be >= 0), and a conjugation involution that
negates gradings. The full bifiltered complex is this data translated by
powers of U, and the finite complexes the surgery formula needs are
subquotients:

* B = the i = 0 column: every generator once with b = 0, keeping arrows
  with a = 0;
* A_s = the hook max(i, j - s) = 0: generator x sits at U^b x with
  b = max(0, A(x) - s), keeping arrows whose image stays on the hook.

The two maps to B are, on the chain level,

* v_s(U^b x) = x when b = 0 (plain projection), else 0;
* h_s(U^b x) = conj(x) when A(x) >= s (projection of the other arm of the
  hook, transported by U^-s and the conjugation), else 0.

A slice holds one sparse {target: coeff} column per generator, built
straight from the arrows that survive on it; parallel arrows are summed
once per complex (``_tally``), for the checks, B and the sweep. A slice
is a based complex, and cancel_units cancels its +-1 arrows by the
Gaussian elimination lemma, each cancellation a schur_update on the
columns that meet the pivot row, and returns the survivors. A complex
on n generators with k cancellations and a unit-free remainder of
divisors d_1, ..., d_m has homology Z^(n - 2(k + m)) + sum Z/d_i; the
remainder goes, still as columns, to ``exactla.smith_normal_form``.
With no remainder, the survivors are a basis of the homology. H(B) is
Z, so v_s and h_s are each one cochain read on cycles of A_s: the
cochain of B that reads a cycle's class (B's cancellations replayed
backwards), pulled back along the chain map and carried forward through
A_s's cancellations, the transpose of lifting each survivor to a cycle;
_carry moves both at once. The reader of B is evaluated only on the
generators that carry reads. A slice with arrows left over (torsion, or
only non-unit coefficients as in d x = 2y + 3z) has no such basis and
is refused with TorsionError rather than guessing a convention;
validate() reads only its group.

to_profile sweeps s from -g to g instead of building each A_s anew. The
arrow x -> U^a y survives on A_s iff max(0, A(x) - s) + a =
max(0, A(y) - s). There are three cases:

* s >= max(A(x), A(y)): both maxima are 0, and it survives iff a = 0;
* s <= min(A(x), A(y)): the maxima are A(x) - s and A(y) - s, and it
  survives iff the j-drop A(x) - A(y) + a is 0;
* min < s < max: only the side of the larger grading moves with s. If
  A(x) > A(y), the left side exceeds a >= 0, the right side. If
  A(x) < A(y), it survives only at s = A(y) - a, and only when
  A(x) < A(y) - a < A(y), that is when a > 0 and the j-drop is < 0.

The first case needs a = 0, the second a j-drop of 0 and the third
both a > 0 and a j-drop < 0. So the third excludes the other two, and
those two hold together only when a = 0 and A(x) = A(y), where the
arrow survives for every s. Each arrow thus survives on one interval
of s (``_survival``): all of it, [max, g], [-g, min], one point, or
none; a valid arrow never takes the point. It enters and leaves the
sweep at most once, so between consecutive slices only the columns of
the sources of arrows that enter or leave are rebuilt (``_sweep``).

cancel_units gives each connected component of a complex the
cancellations it has alone, so to_profile keeps the v and h values of
every survivor and at each s reduces again only the components of A_s
that hold a changed generator: a rebuilt column, an old or new target
of one, or a generator at grading s or s - 1, where the pullbacks of v
and h change. Any other component is one of A_(s-1), columns and all.
A component of A_(s-1) that held a changed generator lies in the part
reduced again: a path to that generator keeps its arrows up to the
first one out of a rebuilt column, whose ends are changed. The part's
error, if any, is the whole slice's, since the rest reduced without
one. T(2,2001) reduces 8,001 generators so, against the 4,004,001 of
its slices.

So the sweep pays only for the slices that change. A quiet slice, with
no rebuilt column and no generator at grading s or s - 1, costs no
search and no reduction. One walk finds a changed part and copies its
columns; its survivors' values are merged into the others', which stay
in ascending order; the profile is built from the runs of equal data.

No slice repeats the d^2 check of homology(). A_s is a subquotient of
the full complex C: the generators U^b x with max(i, j - s) <= 0 span a
subcomplex, since d lowers neither filtration, those with
max(i, j - s) <= -1 a subcomplex of that, and A_s is the quotient. Its
differential is d restricted and projected, so d^2 = 0 on A_s follows
from d^2 = 0 on C. validate() checks that once, over Z[U] on the i = 0
generators, which covers their U-translates. to_profile reduces the
parts of A_s with cancel_units alone: no check, and no group unless an
arrow is left. B, which is A_s for s >= g, is reduced once, by
validate() through homology(), whose check is one pass over B's arrows.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence

from .exactla import AbelianGroup, EliminationOverflow, Record, _checked, smith_normal_form
from .profiles import InputError, LocalData, SurgeryProfile

# generators x slices one to_profile may reduce: a component that spans
# the complex and changes at every s is reduced in full at each, though a
# staircase reduces a few generators a slice (T(2,2001) has 4,004,001)
SLICE_BUDGET = 5 * 10**6


class InvalidComplexError(InputError):
    """The complex violates its structural invariants."""


class TorsionError(InputError):
    """Homology has torsion where a free group is required."""


class StaircaseError(InputError):
    """Coefficients do not describe a staircase complex."""


class ComplexTooLarge(InputError):
    """More generators x slices than SLICE_BUDGET, the most to_profile may reduce."""


class Generator(Record):
    def __init__(self, name: str, alexander: int):
        self.__dict__.update(name=name, alexander=alexander)


class Arrow(Record):
    def __init__(self, source: int, target: int, u_power: int, coeff: int):
        self.__dict__.update(source=source, target=target, u_power=u_power, coeff=coeff)


class CfkComplex(Record):
    _fields = "generators", "arrows", "conj"  # and genus, kept once read

    def __init__(self, generators: tuple[Generator, ...], arrows: tuple[Arrow, ...], conj: tuple):
        self.__dict__.update(generators=generators, arrows=arrows, conj=conj)

    @functools.cached_property
    def genus(self) -> int:
        return max(abs(g.alexander) for g in self.generators)


def validate(c: CfkComplex) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid."""
    return _validate(c, _tally(c))[0]


def _validate(c: CfkComplex, tally: dict) -> tuple[list[str], SliceHomology | None]:
    """validate(c) from its _tally, and B's reduction once the checks before it pass."""
    out: list[str] = []
    n = len(c.generators)
    if n == 0:
        return ["complex has no generators"], None
    for a in c.arrows:
        if not (0 <= a.source < n and 0 <= a.target < n):
            out.append(f"arrow {a} references a missing generator")
            continue
        if a.coeff == 0:
            out.append(f"arrow {a} has zero coefficient")
        if a.u_power < 0:
            out.append(f"negative u_power on arrow {_arrow_str(c, a)}")
        x, y = c.generators[a.source], c.generators[a.target]
        if x.alexander - y.alexander + a.u_power < 0:
            out.append(f"arrow {_arrow_str(c, a)} raises the j-filtration")
    if out:
        return out, None
    if sorted(c.conj) != list(range(n)):
        return [f"conj {c.conj} is not a permutation of the generators"], None
    for i, j in enumerate(c.conj):
        if c.conj[j] != i:
            out.append(f"conj is not an involution at generator {i}")
        if c.generators[j].alexander != -c.generators[i].alexander:
            out.append(f"conj does not negate the grading of {c.generators[i].name}")
    if out:
        return out, None
    # d^2 = 0 over Z[U]: group compositions by (source, target, total U power)
    leaving: dict[int, list[tuple[int, int, int]]] = {}
    for (x, y, a), e in tally.items():
        leaving.setdefault(x, []).append((y, a, e))
    square: dict[tuple[int, int, int], int] = {}
    for (x, y, a), e in tally.items():
        for z, b, f in leaving.get(y, ()):
            key = (x, z, a + b)
            square[key] = square.get(key, 0) + e * f
    for (src, tgt, power), total in sorted(square.items()):
        if total:
            out.append(
                f"d^2 != 0: {c.generators[src].name} -> U^{power} {c.generators[tgt].name}"
                f" has coefficient {total}"
            )
    # conjugation symmetry: J carries x -> U^a y to conj(x) -> U^(a + A(x) - A(y))
    # conj(y), and must map the arrow set onto itself
    gens, conj = c.generators, c.conj
    if tally != {
        (conj[x], conj[y], a + gens[x].alexander - gens[y].alexander): e
        for (x, y, a), e in tally.items()
    }:
        out.append("arrow set is not conjugation symmetric")
    if out:
        return out, None
    # the central complex must have the homology of the three-sphere
    hb = homology(_slice(c, [0] * n, tally), _allow_torsion=True)
    if not hb.group.is_z:
        out.append(f"H(B) is {hb.group.describe()}, expected Z")
    return out, hb


def _arrow_str(c: CfkComplex, a: Arrow) -> str:
    return f"{c.generators[a.source].name} -> U^{a.u_power} {c.generators[a.target].name}"


def _tally(c: CfkComplex) -> dict[tuple[int, int, int], int]:
    """The arrows of c with parallel ones summed, as {(source, target, U
    power): coeff} without zero sums, each key in the place of its first
    arrow: cancel_units breaks ties by the order of a column's entries,
    so every slice lists them in the order of their first arrows."""
    tally: dict[tuple[int, int, int], int] = {}
    for a in c.arrows:
        key = (a.source, a.target, a.u_power)
        tally[key] = tally.get(key, 0) + a.coeff
    return {key: e for key, e in tally.items() if e}


class SliceComplex(Record):
    """Finite complex on basis U^b x, one (generator index, u power b) per generator.

    differential[k] is d(basis[k]) as a sparse {target: coeff} column over
    the basis indices, with no zero entries.
    """

    def __init__(self, basis: tuple[tuple[int, int], ...], differential: tuple[dict, ...]):
        self.__dict__.update(basis=basis, differential=differential)


def ahat(c: CfkComplex, s: int) -> SliceComplex:
    """The hook complex A_s."""
    shifts = [max(0, g.alexander - s) for g in c.generators]
    return _slice(c, shifts, _tally(c))


def bhat(c: CfkComplex) -> SliceComplex:
    """The central complex B: the i = 0 column."""
    return _slice(c, [0] * len(c.generators), _tally(c))


def _slice(c: CfkComplex, shifts: Sequence[int], tally: dict) -> SliceComplex:
    cols: list[dict[int, int]] = [{} for _ in c.generators]
    for (x, y, a), e in tally.items():
        # the arrow U^{b_x} x -> U^{b_x + a} y survives iff it lands on the slice
        if shifts[x] + a == shifts[y]:
            cols[x][y] = _checked(e)
    return SliceComplex(basis=tuple(enumerate(shifts)), differential=tuple(cols))


class SliceHomology(Record):
    """Homology of a slice, reduced by cancelling its +-1 arrows: the
    generators no cancellation removed (``_survivors``) are its free basis
    when no arrow is left over (:func:`_basis`), and ``_steps`` are the
    cancellations, in order, for :class:`_Reader` and :func:`_carry`."""

    def __init__(self, group: AbelianGroup, _steps: tuple[tuple, ...], _survivors: tuple[int, ...]):
        self.__dict__.update(group=group, _steps=_steps, _survivors=_survivors)


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


def cancel_units(cols: dict[int, dict[int, int]]) -> tuple[list[tuple], list[int]]:
    """Cancel +-1 arrows x -> y (x != y) of a based complex until none is
    left, by the Gaussian elimination lemma, without checking d^2 = 0;
    returns the cancellations in order and the generators that survive
    them, in generator order, and leaves in cols the arrows among the
    survivors: with none, the survivors are a basis of the homology.

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

    Most parts the slice sweep hands here have one to three generators,
    so the set-up is kept to what the arrows need: a set of columns only
    for each row that occurs, and an empty column skipped before any
    list is built.
    """
    # the columns that have had an entry on each row, for the rows that occur
    on_row: dict[int, set[int]] = {}
    for z, col in cols.items():
        for w in col:
            if w in on_row:
                on_row[w].add(z)
            else:
                on_row[w] = {z}
    steps = []
    gone = set()
    work = list(cols)
    waiting: dict[int, None] = {}  # the columns that wait, in the order they came
    force = False
    while work or waiting:
        if not work:
            work.append(waiting.popitem()[0])
            force = True
        x = work.pop()
        if waiting:
            waiting.pop(x, None)
        col = cols[x]
        if not col:
            continue  # cancelled already, or no arrow
        units = [w for w, a in col.items() if w != x and (a == 1 or a == -1)]
        if not units:
            continue  # holds no unit (yet)
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
        for z in on_row.get(x, ()):
            cols[z].pop(x, None)  # arrows into x leave with it
        if waiting:
            # the rows of x changed: a pivot there may wait no more
            work.extend(z for w in (x, *col) for z in on_row.get(w, ()) if z in waiting)
        steps.append((x, y, u, col, row))
        gone.update((x, y))
        cols[x] = {}
    return steps, [k for k in cols if k not in gone]


def _image(cols: Sequence[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, a in vec.items():
        schur_update(out, -a, cols[k])
    return out


def homology(s: SliceComplex, _allow_torsion: bool = False) -> SliceHomology:
    """Homology of a slice, with the cancellations that give its free basis.

    Checks d^2 = 0, then reduces a copy of the columns with cancel_units.
    A slice with arrows left over has no basis here, so it is refused
    (TorsionError) like torsion, unless tolerated by a group-only caller.
    """
    d = s.differential
    if any(_image(d, col) for col in d):
        raise ValueError("slice differential does not square to zero")
    cols = {k: dict(col) for k, col in enumerate(d)}
    h = _record(cols, *cancel_units(cols))
    return h if _allow_torsion else _basis(h)


def _record(cols: dict[int, dict[int, int]], steps, survivors) -> SliceHomology:
    """The reduction cancel_units gave, with its group: the survivors,
    less the Smith form of the arrows it left among them in cols."""
    divisors = smith_normal_form([cols[k] for k in survivors if cols[k]])
    group = AbelianGroup(len(survivors) - 2 * len(divisors), tuple(e for e in divisors if e > 1))
    return SliceHomology(group, tuple(steps), tuple(survivors))


def _basis(h: SliceHomology) -> SliceHomology:
    """h, whose survivors must be a basis of its homology."""
    if len(h._survivors) > h.group.free_rank:
        if h.group.torsion:
            raise TorsionError(
                f"homology has torsion {h.group.torsion}; only free homology is supported here"
            )
        raise TorsionError("arrows without a unit coefficient survive cancellation")
    return h


class _Reader(dict):
    """The cochain that reads coordinate j of a cycle's class, as a dict
    that works out each generator's value when it is first looked up.

    The quotient by span{x, dx} sends x to 0 and y to -u col, so y reads
    phi(-u col). In the chain d x_j = y_j + 2 y_{j+1} the far y is
    2^links times the generator, past the checked window, but no lift of
    a survivor reaches it.
    """

    def __init__(self, h: SliceHomology, j: int):
        super().__init__((k, int(i == j)) for i, k in enumerate(h._survivors))
        self._steps = {y: (u, col) for _, y, u, col, _ in h._steps}

    def __missing__(self, g: int) -> int:
        todo = [g]
        while todo:
            y = todo.pop()
            if y in self:
                continue
            u, col = self._steps.get(y, (0, {}))  # an x reads 0
            unread = [w for w in col if w not in self]
            if unread:
                todo += [y, *unread]
            else:
                self[y] = _checked(-u * sum(a * self[w] for w, a in col.items()))
        return self[g]


def _carry(steps, survivors, phi: _Reader, s: int, alexander, conj) -> list[tuple[int, int]]:
    """phi pulled back along v_s and along h_s, on the cycles that lift
    each survivor, as (v, h) pairs: v_s reads w where alexander[w] <= s,
    h_s reads conj[w] where alexander[w] >= s, and each reads 0 elsewhere.

    A lift gives x the multiple -u b that clears b, its coefficient on y
    in d; the transpose of that, in the order of the cancellations, moves
    the value on x onto the arrows z -> y, for v and h in one walk.
    """
    v: dict[int, int] = {}
    h: dict[int, int] = {}
    for x, _, u, _, row in steps:
        a = _checked(v.get(x, 0) + (phi[x] if alexander[x] <= s else 0))
        b = _checked(h.get(x, 0) + (phi[conj[x]] if alexander[x] >= s else 0))
        if a:
            schur_update(v, u * a, row)
        if b:
            schur_update(h, u * b, row)
    return [
        (
            _checked(v.get(k, 0) + (phi[k] if alexander[k] <= s else 0)),
            _checked(h.get(k, 0) + (phi[conj[k]] if alexander[k] >= s else 0)),
        )
        for k in survivors
    ]


def mirror(c: CfkComplex) -> CfkComplex:
    """The dual complex: gradings negated, arrows reversed with the same
    U power. Surgery p/q on the original matches surgery -p/q here."""
    gens = tuple(Generator(g.name, -g.alexander) for g in c.generators)
    arrows = tuple(Arrow(a.target, a.source, a.u_power, a.coeff) for a in c.arrows)
    return CfkComplex(gens, arrows, c.conj)


def staircase_from_alexander(coeffs: Sequence[int], top: int | None = None) -> CfkComplex:
    """Staircase complex of an L-space knot from its Alexander polynomial.

    coeffs lists the coefficients from t^top down to t^-top (every exponent,
    zeros included). They must be symmetric and the nonzero ones must
    alternate +1, -1, ... starting with +1; the step lengths of the
    staircase are the gaps between nonzero exponents.

    The complex is valid by construction; to_profile validates what it
    is given. The nonzero exponents e_0 > ... > e_2n are odd in number
    (alternating signs from +1 sum to 1) and symmetric, e_(2n-i) = -e_i.
    Odd i has arrows x_i -> x_(i+1) and x_i -> U^(e_(i-1) - e_i) x_(i-1),
    with (i, j)-drops (0, e_i - e_(i+1)) and (e_(i-1) - e_i, 0). Then:

    * arrows leave only odd generators and land only on even ones, so
      no two compose and d^2 = 0;
    * conj reverses the generators, negating their exponents, and maps
      x_i -> x_(i+1) to x_(2n-i) -> U^(e_i - e_(i+1)) x_(2n-i-1) and
      x_i -> U^a x_(i-1) to x_(2n-i) -> x_(2n-i+1): the two arrows of the
      odd generator 2n - i, so the arrow set is symmetric;
    * B keeps the arrows x_i -> x_(i+1), which cancel the pairs (1, 2),
      (3, 4), ... and leave x_0, so H(B) = Z.
    """
    coeffs = [int(x) for x in coeffs]
    if not coeffs or len(coeffs) % 2 == 0:
        raise StaircaseError("coefficient list must have odd length (t^g down to t^-g)")
    span = (len(coeffs) - 1) // 2
    if top is not None and top != span:
        raise StaircaseError(f"top exponent {top} does not match {len(coeffs)} coefficients")
    if coeffs != coeffs[::-1]:
        raise StaircaseError("coefficients are not symmetric")
    if sum(coeffs) != 1:
        raise StaircaseError("polynomial does not evaluate to 1 at t = 1")
    if coeffs[0] == 0:
        raise StaircaseError("leading coefficient is zero")
    nz = [(span - idx, c) for idx, c in enumerate(coeffs) if c]
    if any(c != (-1) ** k for k, (_, c) in enumerate(nz)):
        raise StaircaseError("nonzero coefficients must alternate +1, -1, ... from the top")
    exps = [e for e, _ in nz]
    gens = tuple(Generator(f"x{i}", e) for i, e in enumerate(exps))
    arrows: list[Arrow] = []
    for i in range(1, len(exps), 2):
        arrows.append(Arrow(i, i + 1, 0, 1))
        arrows.append(Arrow(i, i - 1, exps[i - 1] - exps[i], 1))
    return CfkComplex(gens, tuple(arrows), tuple(reversed(range(len(exps)))))


def _survival(ax: int, ay: int, a: int, lo: int, hi: int) -> tuple[int, int]:
    """The s in [lo, hi] on which an arrow x -> U^a y (a >= 0) between
    gradings ax and ay survives on A_s, as (first, last); empty when
    first > last. The three cases of the module docstring."""
    if a == 0:
        first, last = (lo if ax == ay else max(ax, ay)), hi
    elif ax - ay + a == 0:
        first, last = lo, ax
    elif ax - ay + a < 0:
        first = last = ay - a
    else:
        return hi + 1, hi
    return max(first, lo), min(last, hi)


def _sweep(
    c: CfkComplex, g: int, tally: dict
) -> Iterator[tuple[int, list[dict[int, int]], list[set[int]], set[int]]]:
    """(s, the columns of A_s, the sources of the arrows into each
    generator, the generators changed at s) for s = -g, ..., g: two
    lists, cols equal to ahat(c, s).differential and into[y] = {x : y in
    cols[x]}, updated in place between the yields. The changed generators
    are those whose columns are rebuilt, with their old and new targets.

    Only the columns of sources whose arrows enter or leave at s are
    rebuilt, each from the sums of tally that survive, checked once, in
    its order; at s = -g every column is built. That is ahat's column,
    since one pair x, y has at most one U power a that survives on A_s:
    max(0, A(x) - s) + a = max(0, A(y) - s) fixes it.
    """
    gens = c.generators
    leaving: list[list[tuple[int, int, int, int]]] = [[] for _ in gens]
    touched: dict[int, set[int]] = {-g: set(range(len(gens)))}
    for (x, y, a), e in tally.items():
        first, last = _survival(gens[x].alexander, gens[y].alexander, a, -g, g)
        if first > last:
            continue
        leaving[x].append((first, last, y, _checked(e)))
        for t in (first, last + 1):
            if t <= g:
                touched.setdefault(t, set()).add(x)

    cols: list[dict[int, int]] = [{} for _ in gens]
    into: list[set[int]] = [set() for _ in gens]
    for s in range(-g, g + 1):
        rebuilt = touched.get(s, ())
        changed = set(rebuilt)
        for x in rebuilt:
            for y in cols[x]:
                into[y].discard(x)
            changed.update(cols[x])
            cols[x] = {y: e for first, last, y, e in leaving[x] if first <= s <= last}
            for y in cols[x]:
                into[y].add(x)
            changed.update(cols[x])
        yield s, cols, into, changed


def _part(cols, into, seeds: Iterable[int]) -> dict[int, dict[int, int]]:
    """Copies of the columns of the generators that a path of arrows joins
    to seeds, in ascending order, in the slice whose arrows x -> y are the
    keys y of cols[x] and the members x of into[y]."""
    found = set(seeds)
    order = list(found)
    for x in order:  # order grows as the walk finds generators
        for near in (cols[x], into[x]):
            for y in near:
                if y not in found:
                    found.add(y)
                    order.append(y)
    order.sort()
    return {x: dict(cols[x]) for x in order}


def to_profile(c: CfkComplex, name: str | None = None) -> SurgeryProfile:
    """Derive the surgery profile: ranks of H(A_s) and induced maps for
    every |s| <= genus. Basis signs are chosen so that the first nonzero
    coordinate of each (v, h) column is positive, which makes staircase
    complexes reproduce the built-in profiles on the nose. On a slice of
    rank > 1 the basis is the one the cancellation leaves; another basis
    changes v and h, but not the surgery groups.

    The slices come from one sweep over s. A quiet slice, with no rebuilt
    column and no generator at grading s or s - 1, is skipped. Otherwise
    the components of A_s that changed are found and copied in one walk,
    reduced with no group unless an arrow is left, and carried in one
    walk; their survivors' values are merged into the rest, which keep
    theirs. The profile is built from the runs of equal data. B is
    reduced once, by the validation. Past SLICE_BUDGET generators x
    slices, ComplexTooLarge is raised before the validation; an
    EliminationOverflow or TorsionError on a slice names its s."""
    n = len(c.generators)
    slices = 2 * c.genus + 1 if n else 1  # no genus without generators; _validate says so
    if n * slices > SLICE_BUDGET:
        raise ComplexTooLarge(
            f"{n} generators x {slices} slices = {n * slices} exceeds the budget of"
            f" {SLICE_BUDGET}"
        )
    tally = _tally(c)
    problems, hb = _validate(c, tally)
    if problems:
        raise InvalidComplexError("; ".join(problems))
    phi = _Reader(_basis(hb), 0)
    g, conj = c.genus, c.conj
    alexander = [x.alexander for x in c.generators]
    graded: dict[int, list[int]] = {}
    for w, k in enumerate(alexander):
        graded.setdefault(k, []).append(w)
    read: dict[int, tuple[int, int]] = {}  # (v, h) on each survivor, signs fixed, ascending
    runs = []
    lo, data = -g, None
    for s, cols, into, changed in _sweep(c, g, tally):
        if not changed and s not in graded and s - 1 not in graded:
            continue  # quiet: A_s has the data of the slice before
        # the components that changed, or hold a generator whose pullbacks change
        part = _part(cols, into, changed.union(graded.get(s, ()), graded.get(s - 1, ())))
        try:
            steps, survivors = cancel_units(part)
            if any(part.values()):  # no basis: refused with the part's group
                _basis(_record(part, steps, survivors))
            pairs = _carry(steps, survivors, phi, s, alexander, conj)
        except (EliminationOverflow, TorsionError) as e:
            raise type(e)(f"slice s={s}: {e}") from None
        for x in part:
            read.pop(x, None)
        if survivors:  # sorted merges the two ascending runs in one pass
            new = {k: (x, y) if (x or y) >= 0 else (-x, -y) for k, (x, y) in zip(survivors, pairs)}
            read = dict(sorted((*read.items(), *new.items()))) if read else new
        v, h = zip(*read.values()) if read else ((), ())
        if data is None or data.v != v or data.h != h:  # else the slice before's data
            if data is not None:
                runs.append((lo, s, data))
            lo, data = s, LocalData(len(read), v, h)
    runs.append((lo, g + 1, data))
    return SurgeryProfile.from_segments(name or f"derived:g={g}", g, runs)
