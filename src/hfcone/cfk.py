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
once, up front, for the checks and every slice (``_tally``). homology()
cancels every +-1 arrow with ``exactla.cancel_units`` and keeps its
cancellations. The generators that survive are a basis of the homology.
H(B) is Z, so v_s and h_s are each one cochain read on cycles of A_s:
the cochain of B that reads a cycle's class (B's cancellations replayed
backwards), pulled back along the chain map and carried forward through
A_s's cancellations, the transpose of lifting each survivor to a cycle.
The reader of B is evaluated only on the generators that carry reads. A
slice with arrows left over (torsion, or only non-unit coefficients as
in d x = 2y + 3z) has no such basis and is refused with TorsionError
rather than guessing a convention; validate() reads only its group.

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

``exactla.cancel_units`` gives each connected component of a complex the
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

No slice repeats the d^2 check of homology(). A_s is a subquotient of
the full complex C: the generators U^b x with max(i, j - s) <= 0 span a
subcomplex, since d lowers neither filtration, those with
max(i, j - s) <= -1 a subcomplex of that, and A_s is the quotient. Its
differential is d restricted and projected, so d^2 = 0 on A_s follows
from d^2 = 0 on C. validate() checks that once, over Z[U] on the i = 0
generators, which covers their U-translates. to_profile reduces the
slices A_s with _reduce, which skips the check; B, which is A_s for
s >= g, is reduced once, by validate() through homology(), whose check
there is one pass over B's arrows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .exactla import (
    AbelianGroup,
    ComplexTooLarge,
    EliminationOverflow,
    InvalidComplexError,
    StaircaseError,
    TorsionError,
    _checked,
    cancel_units,
    schur_update,
    smith_normal_form,
)
from .profiles import LocalData, SurgeryProfile

# generators x slices one to_profile may reduce: a component that spans
# the complex and changes at every s is reduced in full at each, though a
# staircase reduces a few generators a slice (T(2,2001) has 4,004,001)
SLICE_BUDGET = 5 * 10**6


@dataclass(frozen=True)
class Generator:
    name: str
    alexander: int


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    u_power: int
    coeff: int


@dataclass(frozen=True)
class CfkComplex:
    generators: tuple[Generator, ...]
    arrows: tuple[Arrow, ...]
    conj: tuple[int, ...]

    @property
    def genus(self) -> int:
        return max(abs(g.alexander) for g in self.generators)


def validate(c: CfkComplex) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid."""
    return _validate(c)[0]


def _validate(c: CfkComplex) -> tuple[list[str], SliceHomology | None]:
    """validate(c), and B's reduction once the checks before it pass."""
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
    tally = _tally(c)
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
    hb = homology(bhat(c), _allow_torsion=True)
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


@dataclass(frozen=True)
class SliceComplex:
    """Finite complex on basis U^b x, one element per generator.

    differential[k] is d(basis[k]) as a sparse {target: coeff} column over
    the basis indices, with no zero entries.
    """

    basis: tuple[tuple[int, int], ...]  # (generator index, u power b)
    differential: tuple[dict[int, int], ...]


def ahat(c: CfkComplex, s: int) -> SliceComplex:
    """The hook complex A_s."""
    shifts = [max(0, g.alexander - s) for g in c.generators]
    return _slice(c, shifts)


def bhat(c: CfkComplex) -> SliceComplex:
    """The central complex B: the i = 0 column."""
    return _slice(c, [0] * len(c.generators))


def _slice(c: CfkComplex, shifts: Sequence[int]) -> SliceComplex:
    cols: list[dict[int, int]] = [{} for _ in c.generators]
    for (x, y, a), e in _tally(c).items():
        # the arrow U^{b_x} x -> U^{b_x + a} y survives iff it lands on the slice
        if shifts[x] + a == shifts[y]:
            cols[x][y] = _checked(e)
    return SliceComplex(basis=tuple(enumerate(shifts)), differential=tuple(cols))


@dataclass(frozen=True)
class SliceHomology:
    """Homology of a slice, reduced by cancelling its +-1 arrows.

    The generators no cancellation removed (``_survivors``) form the free
    basis when no arrow is left over (see :func:`_basis`); ``_steps`` are
    the cancellations, in order, that :class:`_Reader` and :func:`_carry`
    replay.
    """

    group: AbelianGroup
    _steps: tuple[tuple[int, int, int, dict[int, int], dict[int, int]], ...]
    _survivors: tuple[int, ...]


def _image(cols: Sequence[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, a in vec.items():
        schur_update(out, -a, cols[k])
    return out


def homology(s: SliceComplex, _allow_torsion: bool = False) -> SliceHomology:
    """Homology of a slice, with the cancellations that give its free basis.

    Checks d^2 = 0, then reduces a copy of the columns with _reduce. A
    slice with arrows left over has no basis here, so it is refused
    (TorsionError) like torsion, unless tolerated by a group-only caller.
    """
    d = s.differential
    if any(_image(d, col) for col in d):
        raise ValueError("slice differential does not square to zero")
    h = _reduce({k: dict(col) for k, col in enumerate(d)})
    return h if _allow_torsion else _basis(h)


def _reduce(cols: dict[int, dict[int, int]]) -> SliceHomology:
    """The homology of the complex with differential cols ({generator:
    column}, in ascending order, closed under the arrows), which it
    consumes, without checking d^2 = 0.

    Unit arrows are cancelled first; the columns left over go to the
    Smith form for the group. The survivors, in generator order, are a
    basis only when no arrow is left over, that is when there are
    free_rank of them.
    """
    n = len(cols)
    steps = cancel_units(cols)
    gone = {k for x, y, *_ in steps for k in (x, y)}
    survivors = tuple(k for k in cols if k not in gone)
    rest = [cols[k] for k in survivors if cols[k]]
    divisors = smith_normal_form(rest) if rest else []
    group = AbelianGroup(n - 2 * (len(steps) + len(divisors)), tuple(e for e in divisors if e > 1))
    return SliceHomology(group, tuple(steps), survivors)


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
    a survivor reaches it. None, the zero of a chain map, reads 0.
    """

    def __init__(self, h: SliceHomology, j: int):
        super().__init__((k, int(i == j)) for i, k in enumerate(h._survivors))
        self._steps = {y: (u, col) for _, y, u, col, _ in h._steps}

    def __missing__(self, g: int | None) -> int:
        todo = [g]
        while todo:
            y = todo.pop()
            if y in self:
                continue
            u, col = self._steps.get(y, (0, {}))  # an x, or None
            unread = [w for w in col if w not in self]
            if unread:
                todo += [y, *unread]
            else:
                self[y] = _checked(-u * sum(a * self[w] for w, a in col.items()))
        return self[g]


def _carry(h: SliceHomology, phi: _Reader, at: Sequence[int | None]) -> list[int]:
    """phi pulled back along the chain map w -> at[w], on the cycles that
    lift each survivor.

    A lift gives x the multiple -u b that clears b, its coefficient on y
    in d; the transpose of that, in the order of the cancellations, moves
    the value on x onto the arrows z -> y.
    """
    moved: dict[int, int] = {}
    for x, _, u, _, row in h._steps:
        a = _checked(moved.get(x, 0) + phi[at[x]])
        if a:
            schur_update(moved, u * a, row)
    return [_checked(moved.get(k, 0) + phi[at[k]]) for k in h._survivors]


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
    c: CfkComplex, g: int
) -> Iterator[tuple[int, list[dict[int, int]], list[set[int]], set[int]]]:
    """(s, the columns of A_s, the sources of the arrows into each
    generator, the generators changed at s) for s = -g, ..., g: two
    lists, cols equal to ahat(c, s).differential and into[y] = {x : y in
    cols[x]}, updated in place between the yields. The changed generators
    are those whose columns are rebuilt, with their old and new targets.

    Only the columns of sources whose arrows enter or leave at s are
    rebuilt, each from the sums of _tally that survive, checked once, in
    its order; at s = -g every column is built. That is ahat's column,
    since one pair x, y has at most one U power a that survives on A_s:
    max(0, A(x) - s) + a = max(0, A(y) - s) fixes it.
    """
    gens = c.generators
    leaving: list[list[tuple[int, int, int, int]]] = [[] for _ in gens]
    touched: dict[int, set[int]] = {-g: set(range(len(gens)))}
    for (x, y, a), e in _tally(c).items():
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
        rebuilt = touched.get(s, set())
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


def _connected(cols, into, seeds: Iterable[int]) -> list[int]:
    """The generators that a path of arrows joins to seeds, in ascending
    order, in the slice whose arrows x -> y are the keys y of cols[x] and
    the members x of into[y]."""
    found = set(seeds)
    todo = list(found)
    while todo:
        x = todo.pop()
        near = {*cols[x], *into[x]} - found
        found |= near
        todo += near
    return sorted(found)


def to_profile(c: CfkComplex, name: str | None = None) -> SurgeryProfile:
    """Derive the surgery profile: ranks of H(A_s) and induced maps for
    every |s| <= genus. Basis signs are chosen so that the first nonzero
    coordinate of each (v, h) column is positive, which makes staircase
    complexes reproduce the built-in profiles on the nose. On a slice of
    rank > 1 the basis is the one the cancellation leaves; another basis
    changes v and h, but not the surgery groups.

    The slices come from one sweep over s. The components of A_s that
    changed are reduced by one _reduce on a copy of their columns, and
    the rest keep their values; B is reduced once, by the validation.
    Past SLICE_BUDGET generators x slices, ComplexTooLarge is raised
    before the validation; an EliminationOverflow or TorsionError on a
    slice names its s."""
    n = len(c.generators)
    slices = 2 * c.genus + 1 if n else 1  # no genus without generators; _validate says so
    if n * slices > SLICE_BUDGET:
        raise ComplexTooLarge(
            f"{n} generators x {slices} slices = {n * slices} exceeds the budget of"
            f" {SLICE_BUDGET}"
        )
    problems, hb = _validate(c)
    if problems:
        raise InvalidComplexError("; ".join(problems))
    phi = _Reader(_basis(hb), 0)
    g = c.genus
    alexander = [x.alexander for x in c.generators]
    graded: dict[int, list[int]] = {}
    for w, k in enumerate(alexander):
        graded.setdefault(k, []).append(w)
    read: dict[int, tuple[int, int]] = {}  # (v, h) on each survivor, signs fixed
    overrides = {}
    for s, cols, into, changed in _sweep(c, g):
        # the components that changed, or hold a generator whose pullbacks change
        part = _connected(cols, into, changed.union(graded.get(s, ()), graded.get(s - 1, ())))
        if part:  # else A_s has the data of the slice before
            for x in part:
                read.pop(x, None)
            try:
                ha = _basis(_reduce({x: dict(cols[x]) for x in part}))
                v = _carry(ha, phi, {w: w if alexander[w] <= s else None for w in part})
                h = _carry(ha, phi, {w: c.conj[w] if alexander[w] >= s else None for w in part})
            except (EliminationOverflow, TorsionError) as e:
                raise type(e)(f"slice s={s}: {e}") from None
            for k, x, y in zip(ha._survivors, v, h):
                read[k] = (x, y) if (x or y) >= 0 else (-x, -y)
            v, h = zip(*map(read.get, sorted(read))) if read else ((), ())
            data = LocalData(len(read), v, h)
        overrides[s] = data
    return SurgeryProfile(name or f"derived:g={g}", g, overrides)
