"""Exact rational linear algebra: rank and span intersections."""

import random
from fractions import Fraction

import pytest

from vmrt import InvalidInput, QMatrix, span_intersection


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
