"""Exact rational linear algebra: rank and span intersections, and the resultant mod P against Bareiss."""

import random
from fractions import Fraction

import pytest

from vmrt import InvalidInput, QMatrix, span_intersection
from vmrt.linalg import _bareiss, _certified_rank, _int_cross, _int_exact
from vmrt.lines import _resultant_mod_p


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


def sylvester_det(u, v):
    """The determinant of the integer Sylvester rows of ascending lists u and v: e shifted u on d shifted v."""
    d, e = len(u) - 1, len(v) - 1
    rows = [[0] * i + list(u) + [0] * (e - 1 - i) for i in range(e)]
    rows += [[0] * i + list(v) + [0] * (d - 1 - i) for i in range(d)]
    return bareiss_det(rows) if rows else 1


def assert_resultant_mod_p(u, v):
    """_resultant_mod_p(u, v) against (-1)^(deg u*deg v) times the Sylvester determinant, mod P."""
    res = _resultant_mod_p(u, v)
    assert res == (-1) ** ((len(u) - 1) * (len(v) - 1)) * sylvester_det(u, v) % P
    return res


@pytest.mark.parametrize(
    "u,v,expected",
    [
        ([P + 3, 1, P + 2], [2 * P + 1, P - 1], None),  # entries above P, reduced first
        ([-3, 5, -7], [4, -1, 2, -9], None),  # negative entries
        ([-2, -1, 1], [-6, 3, -2, 1], 0),  # the common factor z - 2
        ([1, 1], [P + 1, 1], 0),  # a common root only mod P
        ([4, -1, 2, 3], [5], 5**3),  # a constant second operand
        ([-4], [1, 0, 7], 16),  # a constant first operand
        ([2, 0, 1], [1, -3, 0, 0, 2], None),  # deg u < deg v
        ([7, 1, -2, 0, 3], [-1, 4, 1], None),  # deg u > deg v
        ([3, 2], [-1, 5], -17),  # degree 1: 2*(-1) - 3*5
    ],
)
def test_resultant_mod_p_matches_the_sylvester_determinant(u, v, expected):
    res = assert_resultant_mod_p(u, v)
    if expected is not None:
        assert res == expected % P


def test_resultant_mod_p_matches_the_sylvester_determinant_on_random_pairs():
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        big = rng.random() < 0.3
        u, v = ([rng.randint(-3 * P, 3 * P) if big else rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
                for _ in range(2))
        u[-1], v[-1] = u[-1] % P or 1, v[-1] % P or 2  # leading entries nonzero mod P
        if rng.random() < 0.2:  # a common factor z - c
            c = rng.randint(-3, 3)
            u, v = ([c * x - y for x, y in zip(w + [0], [0] + w)] for w in (u, v))
        res = assert_resultant_mod_p(u, v)
        seen.add((res == 0, res > P // 2))
    # common roots and both signs of a nonzero resultant occur
    assert seen == {(True, False), (False, False), (False, True)}


def test_resultant_mod_p_leaves_its_arguments_unchanged():
    u, v = [P + 1, -2, 3], [0, 1]
    assert _resultant_mod_p(u, v) == 1  # u(0) mod P, as v = z
    assert (u, v) == ([P + 1, -2, 3], [0, 1])


def test_certified_rank_leaves_its_lines_unchanged():
    # rank 2 mod P, below full, so the lines go to Bareiss, which eliminates in place
    lines = [[P, 1, 2], [2 * P, 3, 5], [0, 1, 1]]
    kept = [list(line) for line in lines]
    assert _certified_rank(lines, 3) == 2 and lines == kept
    # full rank mod P, settled by the elimination mod P alone
    lines = [[P + 1, 2, 0], [3, -5, P], [0, 2 * P, 7]]
    kept = [list(line) for line in lines]
    assert _certified_rank(lines, 3) == 3 and lines == kept
