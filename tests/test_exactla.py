"""Smith form, kernel and cokernel over Z, checked against sympy.

Matrices are written as plain lists of rows and handed to the library as
sparse {row: entry} columns through helpers.columns.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from helpers import columns
from hfcone import exactla
from hfcone.cfk import Arrow, CfkComplex, Generator, bhat
from hfcone.exactla import (
    STATE_BITS,
    AbelianGroup,
    EliminationOverflow,
    invariant_factors,
    smith_normal_form,
)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _snf(rows):
    return smith_normal_form(columns(rows))


def test_identity_smith():
    assert _snf(_identity(2)) == [1, 1]


def test_zero_matrix_smith():
    assert _snf(_zero(3, 4)) == []


def test_small_nontrivial_smith():
    assert _snf([[2, 4], [6, 8]]) == [2, 4]


def test_sparse_rows_are_compacted():
    # row labels need not be 0..n-1; empty columns add nothing
    assert smith_normal_form([{7: 2}, {}, {-3: 1, 7: 4}]) == [1, 2]
    assert smith_normal_form([]) == []


def _kernel_rank(m):
    return len(m[0]) - len(_snf(m))


def _cokernel(m):
    divisors = _snf(m)
    return AbelianGroup(len(m) - len(divisors), tuple(d for d in divisors if d > 1))


def test_kernel_rank_identity():
    assert _kernel_rank(_identity(2)) == 0


def test_kernel_rank_zero_matrix():
    assert _kernel_rank(_zero(3, 4)) == 4


def test_kernel_rank_row_vector():
    assert _kernel_rank([[1, 0, 0]]) == 2


def test_cokernel_identity():
    assert _cokernel(_identity(2)) == AbelianGroup(0, ())


def test_cokernel_single_torsion():
    assert _cokernel([[3]]) == AbelianGroup(0, (3,))


def test_cokernel_surjective_projection():
    assert _cokernel([[1, 0, 0], [0, 1, 0]]) == AbelianGroup(0, ())


def test_cokernel_mixed():
    assert _cokernel([[2, 0], [0, 0]]) == AbelianGroup(1, (2,))


def test_group_describe():
    assert AbelianGroup(0, ()).describe() == "0"
    assert AbelianGroup(1, ()).describe() == "Z^1"
    assert AbelianGroup(2, (2, 4)).describe() == "Z^2 + Z/2 + Z/4"
    assert AbelianGroup(0, (3,)).describe() == "Z/3"


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1, ())
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))  # 2 does not divide 3
    assert AbelianGroup(0, (2, 6)).torsion == (2, 6)


def test_overflow_is_detected():
    # det 9 - 2^124: the reported divisor is past 2^63
    big = 2**62
    with pytest.raises(EliminationOverflow):
        _snf([[3, big], [big, 3]])


def test_working_entries_may_pass_2_63(monkeypatch):
    # clearing B = 2^40 below the pivot 1 writes -B^2 on the way to det
    # -1, so working entries are bounded in bits and only divisors by 2^63
    peak = []
    bounded = exactla._bounded
    monkeypatch.setattr(exactla, "_bounded", lambda xs: peak.append(max(map(abs, xs))) or bounded(xs))
    big = 2**40
    assert _snf([[1, big, 0], [big, 0, 1], [0, 1, 0]]) == [1, 1, 1]
    assert max(peak) > 2**63
    # det -1,866,006
    rows = [
        [0, -2, 6, 6, 1, 3, 0],
        [4, -1, 8, 2, -9, 6, 8],
        [0, -1, 0, 6, 3, 3, -9],
        [1, 6, 0, 6, -2, 0, 0],
        [8, -1, -1, 0, 12, -1, 0],
        [4, 4, 8, 8, 6, 6, -9],
        [1, 0, -2, 8, 6, -1, 6],
    ]
    assert _snf(rows) == [1] * 6 + [1866006]


def test_entries_stay_small_on_a_25_by_25_matrix():
    # each pivot is the smallest entry of its block, so entries within
    # -2..2 grow no faster than the determinant, 2,791,535,759,854,638
    rng = random.Random(2)
    rows = [[rng.randint(-2, 2) for _ in range(25)] for _ in range(25)]
    divisors = _snf(rows)
    assert len(divisors) == 25
    assert math.prod(divisors) == abs(Matrix(rows).det(method="bareiss")) == 2791535759854638


def test_working_entries_are_bounded_in_bits():
    # clearing 2^(B-1) below the pivot 1 writes -2^(2B-2): refused while
    # working, B = STATE_BITS, before any divisor is reported
    big = 2 ** (STATE_BITS - 1)
    with pytest.raises(EliminationOverflow, match=f"exceeded 2\\^{STATE_BITS} during"):
        _snf([[1, big], [big, 0]])


def _two_generators(*arrows):
    return CfkComplex((Generator("x", 0), Generator("y", 0)), arrows, (0, 1))


def test_entry_magnitude_checked_on_construction():
    # a slice sums its arrows into entries, and each sum is checked
    with pytest.raises(EliminationOverflow):
        bhat(_two_generators(Arrow(0, 1, 0, 2**63 + 1)))
    assert bhat(_two_generators(Arrow(0, 1, 0, 2**63))).differential == ({1: 2**63}, {})
    # arrows that cancel leave no entry, not a stored zero
    assert bhat(_two_generators(Arrow(0, 1, 0, 1), Arrow(0, 1, 0, -1))).differential == ({}, {})


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def _sympy_divisors(rows):
    s = sympy_snf(Matrix(rows))
    diag = [abs(s[i, i]) for i in range(min(s.rows, s.cols))]
    return sorted(d for d in diag if d)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_smith_matches_sympy(rows):
    assert _snf(rows) == _sympy_divisors(rows)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_divisor_chain_and_rank_identities(rows):
    divisors = _snf(rows)
    rank = len(divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in divisors)
    # rank-nullity on both sides, against sympy's kernel and cokernel bases
    assert len(Matrix(rows).nullspace()) + rank == len(rows[0])
    assert len(Matrix(rows).T.nullspace()) + rank == len(rows)


@given(matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_smith_invariant_under_unimodular_ops(rows, rng):
    base = _snf(rows)
    work = [list(r) for r in rows]
    nrows, ncols = len(work), len(work[0])
    for _ in range(8):
        kind = rng.randrange(4)
        if kind == 0 and nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            work[i], work[j] = work[j], work[i]
        elif kind == 1 and nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            k = rng.randint(-3, 3)
            work[i] = [a + k * b for a, b in zip(work[i], work[j])]
        elif kind == 2 and ncols > 1:
            i, j = rng.sample(range(ncols), 2)
            for row in work:
                row[i], row[j] = row[j], row[i]
        elif kind == 3 and ncols > 1:
            i, j = rng.sample(range(ncols), 2)
            k = rng.randint(-3, 3)
            for row in work:
                row[i] += k * row[j]
    assert _snf(work) == base


@given(matrices, st.lists(st.integers(-9, 9), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_tracked_vector_follows_the_row_operations(rows, w):
    # U M V = D and U w = c give coker [M | w] = coker [D | c]; every row
    # is a working row, since w has an entry on each
    w = w[: len(rows)]
    divisors, coords = smith_normal_form(columns(rows), dict(enumerate(w)))
    assert divisors == _snf(rows)
    d = [[divisors[i] if i == j else 0 for j in range(len(divisors))] for i in range(len(rows))]
    left = [row + [x] for row, x in zip(rows, w)]
    right = [row + [x] for row, x in zip(d, coords)]
    assert _sympy_divisors(left) == _sympy_divisors(right)


@given(st.lists(st.integers(2, 60), max_size=12))
@settings(max_examples=200, deadline=None)
def test_invariant_factors_match_sympy(divisors):
    diagonal = Matrix.diag(*divisors) if divisors else Matrix.zeros(0, 0)
    expected = tuple(int(x) for x in sympy_invariant_factors(diagonal) if x != 1)
    assert invariant_factors(divisors) == expected


def test_invariant_factors_of_many_equal_summands():
    assert invariant_factors([2] * 9000) == (2,) * 9000
    assert invariant_factors([4, 2, 3] * 1000) == (2,) * 1000 + (12,) * 1000
    with pytest.raises(EliminationOverflow):
        invariant_factors([2**62, 3])
