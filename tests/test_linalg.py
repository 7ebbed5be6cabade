"""Exact rational linear algebra: rank and span intersections."""

import random
from fractions import Fraction

import pytest

from vmrt import InvalidInput, QMatrix, span_intersection
from vmrt.linalg import _bareiss, _certified_rank, _int_cross, _int_exact, _rank_mod_p


def rand_matrix(rng, rows, cols):
    return QMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_rank():
    assert QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3


def test_duplicated_columns_do_not_change_rank():
    rng = random.Random(7)
    a = rand_matrix(rng, 4, 3)
    doubled = a.hstack(a)
    assert doubled.rank() == a.rank()


def test_column_permutation_preserves_span():
    rng = random.Random(9)
    while True:
        a = rand_matrix(rng, 5, 3)
        if a.rank() == 3:
            break
    b = QMatrix.from_columns([a.column(2), a.column(0), a.column(1)])
    assert span_intersection(a, b) == 3


def test_span_intersection_symmetric_and_bounded():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_matrix(rng, 5, 3)
        b = rand_matrix(rng, 5, 4)
        d = span_intersection(a, b)
        assert d == span_intersection(b, a)
        assert 0 <= d <= min(a.rank(), b.rank())


def test_span_intersection_counts_shared_columns():
    rng = random.Random(19)
    shared = rand_matrix(rng, 6, 2)
    a = shared.hstack(rand_matrix(rng, 6, 2))
    b = shared.hstack(rand_matrix(rng, 6, 2))
    # two shared columns, and 4 + 4 independent columns fill only 6 dimensions
    assert a.rank() == b.rank() == 4
    assert a.hstack(b).rank() == 6
    assert span_intersection(a, b) == 2


def test_shape_mismatches_rejected():
    a = QMatrix([[0, 0], [0, 0]])
    b = QMatrix([[0, 0], [0, 0], [0, 0]])
    with pytest.raises(InvalidInput):
        a.hstack(b)
    with pytest.raises(InvalidInput):
        span_intersection(a, b)


def test_from_columns_round_trip():
    cols = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    m = QMatrix.from_columns(cols)
    assert [m.column(j) for j in range(m.cols)] == cols
    empty = QMatrix.from_columns([], rows=3)
    assert empty.rows == 3 and empty.cols == 0 and empty.rank() == 0


P = (1 << 61) - 1


def bareiss_det(m):
    work = [list(row) for row in m]
    rank, sign = _bareiss(work, len(m), _int_cross, _int_exact)
    return sign * work[-1][-1] if rank == len(m) else 0


def assert_det_mod_p(m):
    rank, det = _rank_mod_p(m, len(m))
    assert det == bareiss_det(m) % P
    assert (det != 0) == (rank == len(m))
    return det


@pytest.mark.parametrize(
    "m",
    [
        [[0, 1], [1, 0]],  # one real row swap: -1
        [[0, 0, 2], [0, 3, 0], [5, 0, 0]],  # one swap, the middle pivot already in place
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # two swaps: +1
        [[1, 2], [2, 4]],  # singular over Q
        [[P + 3, 1], [P - 1, 2]],  # entries above P, reduced first
        [[P, 0], [0, 1]],  # singular only mod P
        [[2 * P + 1, 3 * P], [P + 7, -P - 5]],
        [[7]],
    ],
)
def test_det_mod_p_matches_bareiss(m):
    assert_det_mod_p(m)


def test_det_mod_p_matches_bareiss_on_random_matrices():
    rng = random.Random(61)
    signs = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        big = rng.random() < 0.3
        m = [[rng.randint(-3 * P, 3 * P) if big else rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
             for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:  # a dependent row
            i, j = rng.sample(range(n), 2)
            m[i] = [rng.randint(-2, 2) * x for x in m[j]]
        det = assert_det_mod_p(m)
        signs.add((det == 0, det > P // 2))
    # singular and nonsingular draws both occur, with both signs of the determinant
    assert signs == {(True, False), (False, False), (False, True)}


def test_rank_mod_p_leaves_its_input_unchanged():
    m = [[0, P + 1], [3, 4]]
    assert _rank_mod_p(m, 2) == (2, (-3) % P) and m == [[0, P + 1], [3, 4]]


def test_certified_rank_leaves_its_lines_unchanged():
    # rank 2 mod P, below full, so the lines go to Bareiss, which eliminates in place
    lines = [[P, 1, 2], [2 * P, 3, 5], [0, 1, 1]]
    kept = [list(line) for line in lines]
    assert _certified_rank(lines, 3) == 2 and lines == kept
