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
straight from the arrows that survive on it. homology() cancels every
+-1 arrow with ``exactla.cancel_units``, the reduction of the surgery
cone too, and keeps its cancellations. The generators that survive are a
basis of the homology. H(B) is Z, so v_s and h_s are each one cochain
read on cycles of A_s: the cochain of B that reads a cycle's class
(B's cancellations replayed backwards), pulled back along the chain map
and carried forward through A_s's cancellations, the transpose of
lifting each survivor to a cycle. The reader of B is evaluated only on
the generators that carry reads. A slice with arrows left over
(torsion, or only non-unit coefficients as in d x = 2y + 3z) has no
such basis and is refused with TorsionError rather than guessing a
convention; validate() reads only its group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactla import AbelianGroup, _checked, cancel_units, schur_update, smith_normal_form
from .profiles import LocalData, SurgeryProfile


class InvalidComplexError(ValueError):
    """The complex violates its structural invariants."""


class TorsionError(ValueError):
    """Homology has torsion where a free group is required."""


class StaircaseError(ValueError):
    """Coefficients do not describe a staircase complex."""


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
    out: list[str] = []
    n = len(c.generators)
    if n == 0:
        return ["complex has no generators"]
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
        return out
    if sorted(c.conj) != list(range(n)):
        return [f"conj {c.conj} is not a permutation of the generators"]
    for i, j in enumerate(c.conj):
        if c.conj[j] != i:
            out.append(f"conj is not an involution at generator {i}")
        if c.generators[j].alexander != -c.generators[i].alexander:
            out.append(f"conj does not negate the grading of {c.generators[i].name}")
    if out:
        return out
    # d^2 = 0 over Z[U]: group compositions by (source, target, total U power)
    leaving: dict[int, list[Arrow]] = {}
    for a in c.arrows:
        leaving.setdefault(a.source, []).append(a)
    square: dict[tuple[int, int, int], int] = {}
    for a1 in c.arrows:
        for a2 in leaving.get(a1.target, ()):
            key = (a1.source, a2.target, a1.u_power + a2.u_power)
            square[key] = square.get(key, 0) + a1.coeff * a2.coeff
    for (src, tgt, power), total in sorted(square.items()):
        if total:
            out.append(
                f"d^2 != 0: {c.generators[src].name} -> U^{power} {c.generators[tgt].name}"
                f" has coefficient {total}"
            )
    # conjugation symmetry: J applied to the arrow set reproduces the arrow set
    def key_of(arrows):
        tally: dict[tuple[int, int, int], int] = {}
        for a in arrows:
            k = (a.source, a.target, a.u_power)
            tally[k] = tally.get(k, 0) + a.coeff
        return {k: v for k, v in tally.items() if v}

    conj_arrows = []
    for a in c.arrows:
        dx = c.generators[a.source].alexander - c.generators[a.target].alexander
        conj_arrows.append(
            Arrow(c.conj[a.source], c.conj[a.target], a.u_power + dx, a.coeff)
        )
    if key_of(conj_arrows) != key_of(c.arrows):
        out.append("arrow set is not conjugation symmetric")
    if out:
        return out
    # the central complex must have the homology of the three-sphere
    hb = homology(bhat(c), _allow_torsion=True)
    if not hb.group.is_z:
        out.append(f"H(B) is {hb.group.describe()}, expected Z")
    return out


def _arrow_str(c: CfkComplex, a: Arrow) -> str:
    return f"{c.generators[a.source].name} -> U^{a.u_power} {c.generators[a.target].name}"


def _require_valid(c: CfkComplex) -> None:
    problems = validate(c)
    if problems:
        raise InvalidComplexError("; ".join(problems))


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
    for a in c.arrows:
        # the arrow U^{b_x} x -> U^{b_x + a} y survives iff it lands on the slice
        if shifts[a.source] + a.u_power == shifts[a.target]:
            col = cols[a.source]
            col[a.target] = col.get(a.target, 0) + a.coeff
    return SliceComplex(
        basis=tuple(enumerate(shifts)),
        differential=tuple({y: _checked(x) for y, x in col.items() if x} for col in cols),
    )


@dataclass(frozen=True)
class SliceHomology:
    """Homology of a slice, reduced by cancelling its +-1 arrows.

    The generators no cancellation removed (``_survivors``) form the free
    basis; ``_steps`` are the cancellations, in order, that :class:`_Reader`
    and :func:`_carry` replay.
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

    Unit arrows are cancelled first, on a copy of the columns; the columns
    left over go to the Smith form for the group. Such a slice has no basis
    here, so it is refused (TorsionError) like torsion, unless tolerated by
    a group-only caller.
    """
    d = s.differential
    if any(_image(d, col) for col in d):
        raise ValueError("slice differential does not square to zero")
    n = len(d)
    cols = [dict(col) for col in d]
    steps = cancel_units(cols)
    gone = {k for x, y, *_ in steps for k in (x, y)}
    survivors = tuple(k for k in range(n) if k not in gone)
    rest = [cols[k] for k in survivors if cols[k]]
    divisors = smith_normal_form(rest) if rest else []
    group = AbelianGroup(n - 2 * (len(steps) + len(divisors)), tuple(e for e in divisors if e > 1))
    if rest:
        if _allow_torsion:
            return SliceHomology(group, (), ())
        if group.torsion:
            raise TorsionError(
                f"homology has torsion {group.torsion}; only free homology is supported here"
            )
        raise TorsionError("arrows without a unit coefficient survive cancellation")
    return SliceHomology(group, tuple(steps), survivors)


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


def _maps(c: CfkComplex, s: int, phi: _Reader) -> tuple[SliceHomology, list[int], list[int]]:
    """H(A_s) and the rows of v_s and h_s on its basis, phi reading H(B)."""
    a = ahat(c, s)
    ha = homology(a)
    v = [w if b == 0 else None for w, b in a.basis]
    h = [c.conj[w] if g.alexander >= s else None for w, g in enumerate(c.generators)]
    return ha, _carry(ha, phi, v), _carry(ha, phi, h)


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
    c = CfkComplex(gens, tuple(arrows), tuple(reversed(range(len(exps)))))
    _require_valid(c)
    return c


def to_profile(c: CfkComplex, name: str | None = None) -> SurgeryProfile:
    """Derive the surgery profile: ranks of H(A_s) and induced maps for
    every |s| <= genus. Basis signs are chosen so that the first nonzero
    coordinate of each (v, h) column is positive, which makes staircase
    complexes reproduce the built-in profiles on the nose. On a slice of
    rank > 1 the basis is the one the cancellation leaves; another basis
    changes v and h, but not the surgery groups."""
    _require_valid(c)
    g = c.genus
    phi = _Reader(homology(bhat(c)), 0)
    overrides = {}
    for s in range(-g, g + 1):
        ha, v, h = _maps(c, s, phi)
        for j in range(len(v)):
            if (v[j] or h[j]) < 0:
                v[j], h[j] = -v[j], -h[j]
        overrides[s] = LocalData(ha.group.free_rank, tuple(v), tuple(h))
    return SurgeryProfile(name or f"derived:g={g}", g, overrides)
