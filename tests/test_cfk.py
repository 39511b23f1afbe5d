"""Chain complexes, slices, induced maps, and profile derivation.

The trefoil staircase is small enough to check everything by hand:
generators a, b, c at Alexander gradings 1, 0, -1 with the single
relation d(b) = c + U a, conjugation swapping a and c. T(3,4) is the
five-step staircase of t^3 - t^2 + 1 - t^-2 + t^-3.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

import helpers
from hfcone import cfk
from hfcone.cfk import (
    Arrow,
    CfkComplex,
    ComplexTooLarge,
    Generator,
    InvalidComplexError,
    SliceComplex,
    StaircaseError,
    TorsionError,
    _Reader,
    _carry,
    _record,
    _survival,
    _sweep,
    _tally,
    ahat,
    bhat,
    cancel_units,
    homology,
    mirror,
    staircase_from_alexander,
    to_profile,
    validate,
)
from hfcone.cli import main
from hfcone.cone import Framing, surgery_report
from hfcone.exactla import EliminationOverflow
from hfcone.profiles import LocalData, lspace_knot, serialize, unknot

TREFOIL_ALEX = [1, -1, 1]
T34_ALEX = [1, -1, 0, 1, 0, -1, 1]


def trefoil():
    return CfkComplex(
        generators=(Generator("a", 1), Generator("b", 0), Generator("c", -1)),
        arrows=(Arrow(1, 2, 0, 1), Arrow(1, 0, 1, 1)),
        conj=(2, 1, 0),
    )


def unknot_complex():
    return CfkComplex((Generator("u", 0),), (), (0,))


def test_unknot_model_is_valid():
    assert validate(unknot_complex()) == []


def test_trefoil_model_is_valid():
    assert validate(trefoil()) == []


def test_negative_u_power_reported():
    c = trefoil()
    broken = CfkComplex(c.generators, (Arrow(1, 2, 0, 1), Arrow(1, 0, -1, 1)), c.conj)
    problems = validate(broken)
    assert any("negative u_power" in p for p in problems)


def test_j_filtration_breach_reported():
    # an arrow dropping the Alexander grading by less than its U power asks
    # the j filtration to increase
    c = CfkComplex(
        generators=(Generator("a", 0), Generator("b", 1)),
        arrows=(Arrow(0, 1, 0, 1),),
        conj=(0, 1),
    )
    assert any("j-filtration" in p for p in validate(c))


def test_broken_conjugation_reported():
    c = trefoil()
    assert any("involution" in p or "permutation" in p for p in validate(
        CfkComplex(c.generators, c.arrows, (2, 1, 1))
    ))
    assert any("grading" in p for p in validate(
        CfkComplex(c.generators, c.arrows, (0, 1, 2))
    ))


_TREFOIL_GENERATORS = trefoil().generators
_FLAT = tuple(Generator(name, 0) for name in "abc")


@pytest.mark.parametrize("complex_, problems", [
    (CfkComplex(_TREFOIL_GENERATORS, (Arrow(1, 3, 0, 1),), (2, 1, 0)),
     ["arrow Arrow(source=1, target=3, u_power=0, coeff=1) references a missing generator"]),
    (CfkComplex(_TREFOIL_GENERATORS, (Arrow(1, 2, 0, 0),), (2, 1, 0)),
     ["arrow Arrow(source=1, target=2, u_power=0, coeff=0) has zero coefficient"]),
    (CfkComplex(_FLAT, (), (1, 2, 0)),
     [f"conj is not an involution at generator {i}" for i in range(3)]),
])
def test_validate_message_wording(complex_, problems):
    assert validate(complex_) == problems


def test_d_squared_checked():
    gens = (Generator("a", 0), Generator("b", 0), Generator("c", 0))
    arrows = (Arrow(0, 1, 0, 1), Arrow(1, 2, 0, 1))
    problems = validate(CfkComplex(gens, arrows, (0, 1, 2)))
    assert any("d^2" in p for p in problems)


def test_staircase_trefoil():
    c = staircase_from_alexander(TREFOIL_ALEX)
    assert len(c.generators) == 3
    assert c.genus == 1
    assert [g.alexander for g in c.generators] == [1, 0, -1]
    assert sorted((a.source, a.target, a.u_power) for a in c.arrows) == [
        (1, 0, 1),
        (1, 2, 0),
    ]


def test_staircase_t34():
    c = staircase_from_alexander(T34_ALEX, top=3)
    assert len(c.generators) == 5
    assert c.genus == 3
    assert [g.alexander for g in c.generators] == [3, 2, 0, -2, -3]


def test_staircase_rejections():
    with pytest.raises(StaircaseError):
        staircase_from_alexander([1, 1, 1])  # not alternating +-1
    with pytest.raises(StaircaseError):
        staircase_from_alexander([1, -1, 0, 1])  # even length
    with pytest.raises(StaircaseError):
        staircase_from_alexander([1, -1, 0, -1, 1])  # not symmetric at t=1: sum 1 fails
    with pytest.raises(StaircaseError):
        staircase_from_alexander([1, -2, 3, -2, 1])  # coefficients not +-1
    with pytest.raises(StaircaseError):
        staircase_from_alexander([0, 1, 0])  # leading zero
    with pytest.raises(StaircaseError):
        staircase_from_alexander(TREFOIL_ALEX, top=2)  # top exponent mismatch
    with pytest.raises(StaircaseError, match="^coefficients are not symmetric$"):
        staircase_from_alexander([0, 0, 1])


def test_ahat_unknot():
    s0 = ahat(unknot_complex(), 0)
    assert s0.basis == ((0, 0),)
    assert s0.differential == ({},)


def test_ahat_trefoil_slice_zero():
    # basis U a, b, c; the relation d(b) = U a + c survives whole
    a0 = ahat(trefoil(), 0)
    assert a0.basis == ((0, 1), (1, 0), (2, 0))
    assert a0.differential == ({}, {0: 1, 2: 1}, {})


def test_ahat_equals_bhat_beyond_genus():
    c = trefoil()
    b = bhat(c)
    for s in (1, 2, 5):
        a = ahat(c, s)
        assert a.basis == b.basis
        assert a.differential == b.differential


def test_homology_of_bhat_is_z():
    for c in (trefoil(), unknot_complex(), staircase_from_alexander(T34_ALEX)):
        assert homology(bhat(c)).group.is_z


def test_homology_of_trefoil_slices():
    c = trefoil()
    for s in range(-3, 4):
        assert homology(ahat(c, s)).group.is_z


def test_homology_of_t34_slices():
    c = staircase_from_alexander(T34_ALEX)
    for s in range(-4, 5):
        assert homology(ahat(c, s)).group.is_z


def test_homology_rejects_non_square_zero_differential():
    bogus = SliceComplex(((0, 0), (1, 0)), ({0: 1}, {1: 1}))
    with pytest.raises(ValueError):
        homology(bogus)


def test_homology_refuses_torsion():
    two = SliceComplex(((0, 0), (1, 0)), ({1: 2}, {}))
    with pytest.raises(TorsionError):
        homology(two)


def _flat(arrows, names="uxyz"):
    """A complex with every generator at grading 0 and conj the identity."""
    n = 1 + max(max(a.source, a.target) for a in arrows)
    return CfkComplex(tuple(Generator(names[i], 0) for i in range(n)), arrows, tuple(range(n)))


def test_torsion_in_bhat_is_reported():
    c = _flat((Arrow(1, 2, 0, 2),))  # u alone, and d x = 2 y
    assert validate(c) == ["H(B) is Z^1 + Z/2, expected Z"]
    with pytest.raises(InvalidComplexError):
        to_profile(c)


def test_non_unit_remainder_is_refused():
    # d x = 2 y + 3 z: H(B) = Z, but no +-1 arrow to cancel, so no basis
    c = _flat((Arrow(0, 1, 0, 2), Arrow(0, 2, 0, 3)), names="xyz")
    assert validate(c) == []
    with pytest.raises(TorsionError):
        to_profile(c)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (1, -2), (-2, 1)])
def test_chain_with_non_unit_links_has_homology_z(a, b):
    # d x_j = a y_j + b y_{j+1}: cancelled from the end whose unit row is
    # shared, the other entry would double per link and pass 2^63
    sl = _chain(a, b, 70)
    h = homology(sl)
    assert h.group.is_z
    _assert_lifts_read(sl, h)
    # the reader is a cocycle; on every boundary of 70 links it would need
    # the y at the unit end, 2^70 times the generator in homology
    short = _chain(a, b, 20)
    _assert_dual_bases(short, homology(short))


@pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (1, -2), (-2, 1)])
def test_flat_chain_with_non_unit_links_gives_unknot_data(a, b):
    # genus 0: A_0 is B, so v_0 and h_0 read the survivor of B, whatever
    # multiple of it the y at the far end is
    links = 70
    gens = tuple(Generator(f"g{k}", 0) for k in range(2 * links + 1))
    arrows = tuple(
        Arrow(j, links + j + t, 0, e) for j in range(links) for t, e in ((0, a), (1, b))
    )
    c = CfkComplex(gens, arrows, tuple(range(len(gens))))
    assert to_profile(c).local(0) == LocalData(1, (1,), (1,))


def _chain(a, b, links):
    n = 2 * links + 1  # x_j is generator j, y_j is generator links + j
    d = tuple({links + j: a, links + j + 1: b} for j in range(links)) + ({},) * (links + 1)
    return SliceComplex(tuple((k, 0) for k in range(n)), d)


def _assert_lifts_read(sl, h):
    """The lifts of the survivors are cycles, survivor j's reader reads
    lift i as delta_ij, and _carry evaluates a cochain on the lifts."""
    lifts = helpers.cycle_lifts(sl, h)
    r = h.group.free_rank
    assert len(lifts) == r
    d = _rows(sl)
    for w in lifts:
        assert not any(_dense_apply(d, w))
    for j in range(r):
        phi = _Reader(h, j)
        assert [sum(phi[k] * a for k, a in enumerate(w) if a) for w in lifts] == [
            int(i == j) for i in range(r)
        ]
    n = len(sl.differential)
    psi = [k % 5 - 2 for k in range(n)]
    # every grading at s = 0 and conj the identity: v and h both read psi itself
    assert _carry(h._steps, h._survivors, psi, 0, [0] * n, range(n)) == [
        (e, e) for e in (sum(x * a for x, a in zip(psi, w)) for w in lifts)
    ]


def _assert_dual_bases(sl, h):
    """As _assert_lifts_read, and every class reader is a cocycle."""
    _assert_lifts_read(sl, h)
    for j in range(h.group.free_rank):
        phi = _Reader(h, j)
        for col in sl.differential:
            assert sum(phi[k] * a for k, a in col.items()) == 0


def test_reader_queues_a_generator_twice():
    # d x0 = x1 + 4 x3 - 2 x5 cancels x1, which reads through x3 and x5,
    # and x5 (cancelled by x4) reads through x3 as well: reading x1 queues
    # x3 twice, and the second time finds it read
    d = ({1: 1, 3: 4, 5: -2}, {}, {1: -2, 3: -7, 5: 4}, {}, {3: -2, 5: 1}, {}, {})
    sl = SliceComplex(tuple((k, 0) for k in range(7)), d)
    h = homology(sl)
    assert h.group.is_z and h._survivors == (6,)
    phi = _Reader(h, 0)
    assert [phi[k] for k in range(7)] == [0, 0, 0, 0, 0, 0, 1]
    _assert_dual_bases(sl, h)


def induced_v(c, s):
    return helpers.slice_maps(c, s, _Reader(homology(bhat(c)), 0))[1]


def induced_h(c, s):
    return helpers.slice_maps(c, s, _Reader(homology(bhat(c)), 0))[2]


def test_induced_maps_trefoil():
    c = trefoil()
    assert induced_v(c, 0) == [0]
    assert induced_h(c, 0) == [0]
    assert induced_v(c, 1) in ([1], [-1])
    assert induced_v(c, 5) in ([1], [-1])
    assert induced_h(c, -1) in ([1], [-1])
    assert induced_h(c, -5) in ([1], [-1])


def test_induced_maps_t34():
    c = staircase_from_alexander(T34_ALEX)
    for s in range(-5, 6):
        v = induced_v(c, s)
        h = induced_h(c, s)
        assert (v in ([1], [-1])) == (s >= 3)
        assert (h in ([1], [-1])) == (s <= -3)


def test_induced_maps_unknot():
    c = unknot_complex()
    assert induced_v(c, 0) in ([1], [-1])
    assert induced_h(c, 0) in ([1], [-1])


def test_conjugation_rank_symmetry():
    c = staircase_from_alexander(T34_ALEX)
    for s in range(0, 5):
        r_pos = homology(ahat(c, s)).group.free_rank
        r_neg = homology(ahat(c, -s)).group.free_rank
        assert r_pos == r_neg


def test_to_profile_reproduces_builtins():
    assert to_profile(staircase_from_alexander(TREFOIL_ALEX)) == lspace_knot(1)
    assert to_profile(staircase_from_alexander(T34_ALEX)) == lspace_knot(3)
    assert to_profile(unknot_complex()) == unknot()


def test_arrow_with_u_power_and_j_drop_never_survives():
    # p -> q and p -> U q on a trefoil: the second has a = 1 and j-drop 1,
    # so it lies on no A_s and B drops it too; p and q cancel everywhere
    c = staircase_from_alexander(TREFOIL_ALEX)
    n = len(c.generators)
    c = CfkComplex(
        c.generators + (Generator("p", 0), Generator("q", 0)),
        c.arrows + (Arrow(n, n + 1, 0, 1), Arrow(n, n + 1, 1, 1)),
        c.conj + (n, n + 1),
    )
    assert validate(c) == []
    assert to_profile(c) == lspace_knot(1) == helpers.reference_profile(c)


def test_to_profile_rejects_invalid_complex():
    c = trefoil()
    broken = CfkComplex(c.generators, (Arrow(1, 2, 0, 1),), c.conj)  # J-symmetry gone
    with pytest.raises(InvalidComplexError):
        to_profile(broken)


def test_mirror_is_valid_and_dualizes_slices():
    m = mirror(trefoil())
    assert validate(m) == []
    # the genus-1 mirror staircase has a rank-3 middle slice
    assert homology(ahat(m, 0)).group.free_rank == 3
    assert homology(ahat(m, 1)).group.is_z
    assert homology(ahat(m, -1)).group.is_z
    profile = to_profile(m)
    assert profile.genus == 1
    assert profile.local(0).rank == 3


def test_mirror_involution():
    c = staircase_from_alexander(T34_ALEX)
    assert mirror(mirror(c)) == c


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_staircases_give_lspace_profiles(rng):
    coeffs = helpers.random_lspace_alexander(rng)
    c = staircase_from_alexander(coeffs)
    g = (len(coeffs) - 1) // 2
    assert c.genus == g
    assert to_profile(c) == lspace_knot(g)


def _dense_apply(rows, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in rows]


def _rows(sl):
    n = len(sl.differential)
    return [[col.get(r, 0) for col in sl.differential] for r in range(n)]


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=60, deadline=None)
def test_cancellation_gives_homology_and_basis(rng, mirrored):
    c = staircase_from_alexander(helpers.random_lspace_alexander(rng))
    if mirrored:
        c = mirror(c)
    n = len(c.generators)
    for sl in [bhat(c)] + [ahat(c, s) for s in range(-c.genus - 1, c.genus + 2)]:
        d = _rows(sl)
        h = homology(sl)
        assert _rows(sl) == d  # homology cancels on a copy
        assert h.group.free_rank == n - 2 * Matrix(d).rank()
        assert h.group.torsion == ()
        _assert_dual_bases(sl, h)


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=60, deadline=None)
def test_profile_maps_match_dense_cycle_lifts(rng, mirrored):
    # mirrored staircases have rank-3 middle slices, where the rows
    # depend on the basis the cancellation leaves
    c = staircase_from_alexander(helpers.random_lspace_alexander(rng))
    if mirrored:
        c = mirror(c)
    profile = to_profile(c)
    for s in range(-c.genus, c.genus + 1):
        v = helpers.induced_row(c, s, use_conj=False)
        h = helpers.induced_row(c, s, use_conj=True)
        assert induced_v(c, s) == v
        assert induced_h(c, s) == h
        signs = [-1 if (x or y) < 0 else 1 for x, y in zip(v, h)]
        data = profile.local(s)
        assert data.v == tuple(e * x for e, x in zip(signs, v))
        assert data.h == tuple(e * y for e, y in zip(signs, h))


def _random_based_differential(rng):
    """The rows of d = P D P^-1, D a sum of unit pairs and P a product of
    elementary operations: cancellations whose rows meet later pivots."""
    n = rng.randint(2, 9)
    d = [[0] * n for _ in range(n)]
    order = rng.sample(range(n), n)
    pairs = rng.randint(1, n // 2)
    for x, y in zip(order[:pairs], order[pairs : 2 * pairs]):
        d[y][x] = rng.choice((1, -1))  # d x = +-y
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((1, -1, 2))
        # conjugate by I + k e_ij: row i += k row j, column j -= k column i
        d[i] = [a + k * b for a, b in zip(d[i], d[j])]
        for row in d:
            row[j] -= k * row[i]
    return d


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_cochains_on_random_based_complexes(rng):
    d = _random_based_differential(rng)
    n = len(d)
    sl = SliceComplex(tuple((k, 0) for k in range(n)), tuple(helpers.columns(d)))
    try:
        h = homology(sl)
    except TorsionError:
        return  # no unit left to cancel
    assert h.group.free_rank == n - 2 * Matrix(d).rank()
    _assert_dual_bases(sl, h)


def _components(cols):
    """The connected components of the slice with columns cols, each in
    ascending order, walked from their least generators."""
    into = [{x for x, col in enumerate(cols) if y in col} for y in range(len(cols))]
    out, left = [], set(range(len(cols)))
    while left:
        found = {min(left)}
        todo = list(found)
        while todo:
            x = todo.pop()
            near = {*cols[x], *into[x]} - found
            found |= near
            todo += near
        out.append(sorted(found))
        left -= found
    return out


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_components_reduce_as_the_whole_slice(rng):
    # a direct sum of P D P^-1 complexes on interleaved generators,
    # reduced and carried one component at a time, gives the survivors,
    # in generator order, and the values of one reduction of the whole
    # sum: to_profile reduces only the components of A_s that change
    blocks = [helpers.columns(_random_based_differential(rng)) for _ in range(rng.randint(2, 4))]
    n = sum(map(len, blocks))
    names = iter(rng.sample(range(n), n))
    cols, block_of = [{}] * n, [0] * n
    for b, block in enumerate(blocks):
        name = [next(names) for _ in block]
        for x, col in zip(name, block):
            cols[x], block_of[x] = {name[y]: a for y, a in col.items()}, b
    parts = _components(cols)
    assert sorted(x for part in parts for x in part) == list(range(n))
    assert all(len({block_of[x] for x in part}) == 1 for part in parts)
    psi = {x: rng.randint(-3, 3) for x in range(n)}
    # gradings about s = 0 pick where v and h read; conj is any permutation
    alexander = [rng.choice((-1, 0, 1)) for _ in range(n)]
    _assert_reduced_by_components(cols, psi, alexander, rng.sample(range(n), n))


def test_a_waiting_column_leaves_other_components_alone():
    # x4 waits, as its column holds x4 itself: d x4 = -x4 - x6 and
    # d x6 = x4 + x6. Were the columns on the rows of each cancellation
    # pushed back whenever any column waited, the cancellations of the
    # other component would come in another order and leave x1, not x3
    cols = [{}, {2: 1}, {}, {0: -1}, {6: -1, 4: -1}, {2: -1, 0: 1}, {6: 1, 4: 1}]
    assert cancel_units({x: dict(col) for x, col in enumerate(cols)})[1] == [3]
    _assert_reduced_by_components(cols, {x: x + 1 for x in range(7)}, [0] * 7, range(7))


def _assert_reduced_by_components(cols, psi, alexander, conj):
    """Reduced and carried one component at a time, cols give the
    survivors, in generator order, the values of psi pulled back along
    v_0 and h_0 of the gradings alexander and conj, and the free rank of
    one reduction of them all."""
    whole = {x: dict(col) for x, col in enumerate(cols)}
    steps, kept = cancel_units(whole)
    survivors, values, free_rank = [], [], 0
    for part in _components(cols):
        reduced = {x: dict(cols[x]) for x in part}
        part_steps, part_kept = cancel_units(reduced)
        survivors += part_kept
        values += _carry(part_steps, part_kept, psi, 0, alexander, conj)
        free_rank += _record(reduced, part_steps, part_kept).group.free_rank
    order = sorted(range(len(survivors)), key=survivors.__getitem__)
    assert [survivors[k] for k in order] == kept
    assert [values[k] for k in order] == _carry(steps, kept, psi, 0, alexander, conj)
    assert free_rank == _record(whole, steps, kept).group.free_rank


@pytest.mark.parametrize("lo, hi", [(-6, 6), (-2, 1)])
def test_survival_interval_matches_shift_formula(lo, hi):
    # every grading pair and U power, the invalid ones (j-drop < 0) too
    for ax in range(-4, 5):
        for ay in range(-4, 5):
            for a in range(0, 10):
                alive = [s for s in range(lo, hi + 1) if max(0, ax - s) + a == max(0, ay - s)]
                first, last = _survival(ax, ay, a, lo, hi)
                assert alive == list(range(first, last + 1)), (ax, ay, a)


def _random_complex(rng, mirrored, padded):
    c = staircase_from_alexander(helpers.random_lspace_alexander(rng))
    if mirrored:
        c = mirror(c)
    if padded:
        c = helpers.with_cancelling_arrows(c, rng)
        assert validate(c) == []
    return c


def test_parallel_arrows_are_summed_once():
    # T(2,7) with x1 -> x2 and its conjugate x5 -> U x4 each split into
    # coefficients 2 and -1, the -1 halves at the end of the arrow list
    c = staircase_from_alexander([1, -1, 1, -1, 1, -1, 1])
    split = [(1, 2, 0), (5, 4, 1)]
    arrows = []
    for a in c.arrows:
        key = (a.source, a.target, a.u_power)
        arrows.append(Arrow(*key, 2) if key in split else a)
    arrows += [Arrow(*key, -1) for key in split]
    assert len(arrows) == len(c.arrows) + 2 and Arrow(1, 2, 0, 2) in arrows
    split_c = CfkComplex(c.generators, tuple(arrows), c.conj)
    assert validate(split_c) == []
    assert serialize(to_profile(split_c)) == serialize(to_profile(c))
    for s in range(-c.genus - 1, c.genus + 2):
        assert ahat(split_c, s).differential == ahat(c, s).differential, s


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sweep_columns_match_ahat(rng, mirrored, padded):
    c = _random_complex(rng, mirrored, padded)
    g = c.genus
    swept = []
    for s, cols, into, changed in _sweep(c, g, _tally(c)):
        swept.append(s)
        expected = ahat(c, s).differential
        assert [list(col.items()) for col in cols] == [list(col.items()) for col in expected]
        assert into == [{x for x, col in enumerate(expected) if y in col} for y in range(len(cols))]
        if s == -g:
            assert changed == set(range(len(cols)))
        else:
            # the rebuilt columns, with their old and new targets
            previous = ahat(c, s - 1).differential
            rebuilt = {x for x in range(len(cols)) if cols[x] != previous[x]}
            assert rebuilt.union(*(cols[x].keys() | previous[x].keys() for x in rebuilt)) <= changed
    assert swept == list(range(-g, g + 1))


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_to_profile_matches_per_slice_reference(rng, mirrored, padded):
    # mirrors have rank-3 middle slices, where v and h depend on the basis
    c = _random_complex(rng, mirrored, padded)
    profile = to_profile(c)
    assert profile == helpers.reference_profile(c)
    if not mirrored:
        assert profile == lspace_knot(c.genus)


def test_connected_sums_of_staircases():
    # the slices of a connected sum have rank > 1, with nonzero v and h
    # once one summand is mirrored: T(2,5) mirrored, then T(2,3)
    t23, t25 = staircase_from_alexander(TREFOIL_ALEX), staircase_from_alexander([1, -1, 1, -1, 1])
    profile = to_profile(helpers.tensor(t23, t23))
    assert [profile.local(s).rank for s in range(-2, 3)] == [1, 1, 3, 1, 1]
    c = helpers.tensor(mirror(t25), t23)
    assert validate(c) == []
    assert to_profile(c).local(0) == LocalData(5, (1, 0, 0, 0, 0), (0, 0, 0, 0, 1))
    t2_21 = staircase_from_alexander([(-1) ** k for k in range(21)])
    c = helpers.tensor(t2_21, t2_21)
    assert (len(c.generators), c.genus) == (441, 20)
    assert to_profile(c) == helpers.reference_profile(c)


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_connected_sums_match_reference_and_mirror(rng, mirror_first, mirror_second):
    # surgery p/q on K has the ell and total rank of surgery -p/q on its mirror
    c1, c2 = (staircase_from_alexander(helpers.random_lspace_alexander(rng, 3)) for _ in "12")
    c = helpers.tensor(mirror(c1) if mirror_first else c1, mirror(c2) if mirror_second else c2)
    assert validate(c) == []
    profile, dual = to_profile(c), to_profile(mirror(c))
    assert profile == helpers.reference_profile(c)
    for _ in range(8):
        framing = helpers.random_framing(rng, pmax=12, qmax=4)
        ours = surgery_report(profile, framing)
        theirs = surgery_report(dual, Framing(-framing.p, framing.q))
        assert (ours.ell, ours.total_rank) == (theirs.ell, theirs.total_rank), framing


def _failing_on(c, s, failure):
    """cancel_units, but failure(cols) in its place when handed the one
    component of A_s, as to_profile hands it over when all of it changed.

    The failure is injected: a search of small valid complexes (bipartite,
    conjugation-symmetric, H(B) = Z, entries up to 3 or 2^32) found none
    whose middle slice overflows or keeps arrows while B does not."""
    d = ahat(c, s).differential
    (component,) = _components(d)
    target = [(x, list(d[x].items())) for x in component]

    def reduce(cols):
        if [(x, list(col.items())) for x, col in cols.items()] == target:
            return failure(cols)
        return cancel_units(cols)

    return reduce


def _overflow(cols):
    raise EliminationOverflow("integer magnitude exceeded 2^63 during elimination")


def test_slice_overflow_names_s(monkeypatch, capsys):
    # A_0 of the trefoil differs from A_1 = B and from A_-1
    c = trefoil()
    monkeypatch.setattr(cfk, "cancel_units", _failing_on(c, 0, _overflow))
    with pytest.raises(EliminationOverflow, match=r"^slice s=0: integer magnitude exceeded"):
        to_profile(c)
    assert main(["staircase", "--alexander", "1,-1,1", "--emit-profile"]) == 70
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "overflow: slice s=0: integer magnitude exceeded 2^63 during elimination\n"
    )


def test_slice_torsion_names_s(monkeypatch, capsys):
    # an A_0 left uncancelled keeps its unit arrow, as a non-unit remainder would
    c = trefoil()
    monkeypatch.setattr(cfk, "cancel_units", _failing_on(c, 0, lambda cols: ([], list(cols))))
    with pytest.raises(TorsionError, match=r"^slice s=0: arrows without a unit coefficient"):
        to_profile(c)
    assert main(["staircase", "--alexander", "1,-1,1", "--emit-profile"]) == 65
    out, err = capsys.readouterr()
    assert (out, err) == (
        "",
        "input error: slice s=0: arrows without a unit coefficient survive cancellation\n",
    )


@pytest.mark.parametrize(
    "doubled, overflowing, code, err",
    [
        ({1, 3}, set(), 65, "input error: slice s=-2: homology has torsion (2, 2); only free"
         " homology is supported here"),
        ({3}, {1}, 70, "overflow: slice s=-2: integer magnitude exceeded 2^63 during elimination"),
        ({1}, {3}, 70, "overflow: slice s=-2: integer magnitude exceeded 2^63 during elimination"),
    ],
)
def test_slice_error_is_the_whole_slices(monkeypatch, capsys, doubled, overflowing, code, err):
    # A_-2 of T(2,5) has two components with an arrow, d x1 = U x0 and
    # d x3 = U x2. Broken in both, the slice fails as one reduction of all
    # of it does: torsion (2, 2), not one component's (2,), and an overflow
    # in either component before the torsion in the other
    c = staircase_from_alexander([1, -1, 1, -1, 1])
    d = ahat(c, -2).differential

    def reduce(cols):
        held = {x for x in (1, 3) if cols.get(x - 1) == d[x - 1] and cols.get(x) == d[x]}
        if held & overflowing:
            _overflow(cols)
        for x in held & doubled:
            cols[x] = {y: 2 * a for y, a in cols[x].items()}
        return cancel_units(cols)

    monkeypatch.setattr(cfk, "cancel_units", reduce)
    assert main(["staircase", "--alexander", "1,-1,1,-1,1", "--emit-profile"]) == code
    assert capsys.readouterr() == ("", err + "\n")


def test_to_profile_refuses_complex_over_budget(monkeypatch):
    c = staircase_from_alexander(T34_ALEX)  # 5 generators x 7 slices
    monkeypatch.setattr(cfk, "SLICE_BUDGET", 35)
    assert to_profile(c) == lspace_knot(3)
    monkeypatch.setattr(cfk, "SLICE_BUDGET", 34)
    with pytest.raises(ComplexTooLarge) as e:
        to_profile(c)
    assert str(e.value) == "5 generators x 7 slices = 35 exceeds the budget of 34"


def test_budget_checked_before_validation(monkeypatch):
    # an empty complex has no genus to budget; the validation names it
    with pytest.raises(InvalidComplexError, match="^complex has no generators$"):
        to_profile(CfkComplex((), (), ()))

    # T(2,20001) is refused on its size alone, without validating it
    def fail(c, tally):
        raise AssertionError("validated a complex over the budget")

    c = staircase_from_alexander([(-1) ** k for k in range(20001)])
    monkeypatch.setattr(cfk, "_validate", fail)
    with pytest.raises(ComplexTooLarge):
        to_profile(c)


def test_to_profile_scales_to_t_2_121():
    c = staircase_from_alexander([(-1) ** k for k in range(121)])
    start = time.perf_counter()
    assert to_profile(c) == lspace_knot(60)
    assert time.perf_counter() - start < 10


def test_to_profile_scales_to_t_2_481():
    c = staircase_from_alexander([(-1) ** k for k in range(481)])
    start = time.perf_counter()
    assert to_profile(c) == lspace_knot(240)
    assert time.perf_counter() - start < 10


def test_to_profile_scales_to_t_2_2001():
    # each slice redoes only the components that change: a few generators
    c = staircase_from_alexander([(-1) ** k for k in range(2001)])
    start = time.perf_counter()
    assert to_profile(c) == lspace_knot(1000)
    assert time.perf_counter() - start < 3


def _staircase(exponents):
    """The staircase whose nonzero exponents are exponents, descending."""
    g = exponents[0]
    coeffs = [0] * (2 * g + 1)
    for k, e in enumerate(exponents):
        coeffs[g - e] = (-1) ** k
    return staircase_from_alexander(coeffs)


@pytest.mark.parametrize(
    "c, calls, generators",
    [
        # B's 2,001 generators and the 8,001 of the slices' parts
        (staircase_from_alexander([(-1) ** k for k in range(2001)]), 2002, 10002),
        # 40,001 slices, all but 11 of them quiet
        (_staircase([20000, 19999, 2, 1, 0, -1, -2, -19999, -20000]), 12, 44),
    ],
)
def test_to_profile_reduces_only_what_changes(monkeypatch, c, calls, generators):
    # what the sweep hands to cancel_units: B once, then the changed parts
    handed = []

    def counting(cols):
        handed.append(len(cols))
        return cancel_units(cols)

    monkeypatch.setattr(cfk, "cancel_units", counting)
    assert to_profile(c) == lspace_knot(c.genus)
    assert (len(handed), sum(handed)) == (calls, generators)


def test_validate_scales_to_t_2_10001():
    # the d^2 check pairs each arrow only with the arrows leaving its target
    coeffs = [(-1) ** k for k in range(10001)]
    start = time.perf_counter()
    c = staircase_from_alexander(coeffs)
    assert validate(c) == []
    assert time.perf_counter() - start < 1
    assert c.genus == 5000


def test_staircases_are_valid_by_construction():
    # staircase_from_alexander does not validate: every symmetric list of
    # -1, 0, 1 with g <= 6 that passes its rules must give a valid complex
    accepted = 0
    for g in range(7):
        for half in itertools.product((-1, 0, 1), repeat=g + 1):
            coeffs = [*half, *half[-2::-1]]
            try:
                c = staircase_from_alexander(coeffs)
            except StaircaseError:
                continue
            assert validate(c) == [], coeffs
            accepted += 1
    # the unknot, and 2^(g-1) staircases of genus g >= 1: any set of the
    # exponents 1..g-1 can be nonzero, and it fixes every sign and t^0
    assert accepted == 1 + sum(2 ** (g - 1) for g in range(1, 7))
