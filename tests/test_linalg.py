"""Exact rank of integer lines and the rank of a join against Gauss-Jordan over Q, and the resultant mod P against Bareiss.

The reference rank is a plain Fraction Gauss-Jordan elimination that
shares no code with `_certified_rank`, `_certified_join` or the
denominator clearing of `poly._cleared`: a rank test clears its rational
rows itself (`integer_lines`) and compares the certified rank of the
integer lines with the reference rank of the rows it started from.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from vmrt.linalg import _bareiss, _certified_join, _certified_rank, _int_cross, _int_exact
from vmrt.lines import _resultant_mod_p


def reference_rank(lines, length):
    """Rank over Q of lines of `length` entries by Gauss-Jordan elimination on Fractions.

    Row rank equals column rank, so the elimination runs on the transpose
    when that has shorter rows, which keeps it cheap on the few long
    coefficient columns of the variation tests.
    """
    rows = [[Fraction(x) for x in line] for line in lines]
    if length > len(rows):
        rows, length = [list(col) for col in zip(*rows)], len(rows)
    rank = 0
    for c in range(length):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pivot = [x / rows[rank][c] for x in rows[rank]]
        rows[rank] = pivot
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


def integer_lines(rows):
    """Each row of ints and Fractions times the lcm of its denominators: integer lines of the same rank."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def assert_same_rank(rows, length):
    """The certified rank of the cleared rows, checked against the reference rank of the rows."""
    fast = _certified_rank(integer_lines(rows), length)
    assert fast == reference_rank(rows, length)
    return fast


def assert_same_join(a, b, length):
    """The certified (rank a, rank of a and b), checked against the reference; returns dim(span a cap span b)."""
    rank_a, rank_join = _certified_join(integer_lines(a), integer_lines(b), length)
    assert (rank_a, rank_join) == (reference_rank(a, length), reference_rank([*a, *b], length))
    return rank_a + reference_rank(b, length) - rank_join


def rand_lines(rng, count, length):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length)] for _ in range(count)]


def test_identity_rank():
    assert assert_same_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3


def test_duplicated_columns_do_not_change_rank():
    rng = random.Random(7)
    a = rand_lines(rng, 3, 4)  # three columns of height 4
    rank = assert_same_rank(a, 4)
    assert assert_same_rank(a + a, 4) == rank
    assert assert_same_join(a, a, 4) == rank


def test_column_permutation_preserves_span():
    rng = random.Random(9)
    while True:
        a = rand_lines(rng, 3, 5)
        if reference_rank(a, 5) == 3:
            break
    b = [a[2], a[0], a[1]]
    assert assert_same_join(a, b, 5) == 3


def test_span_intersection_symmetric_and_bounded():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_lines(rng, 3, 5)
        b = rand_lines(rng, 4, 5)
        d = assert_same_join(a, b, 5)
        assert d == assert_same_join(b, a, 5)
        assert 0 <= d <= min(reference_rank(a, 5), reference_rank(b, 5))


def test_span_intersection_counts_shared_columns():
    rng = random.Random(19)
    shared = rand_lines(rng, 2, 6)
    a = shared + rand_lines(rng, 2, 6)
    b = shared + rand_lines(rng, 2, 6)
    # two shared columns, and 4 + 4 independent columns fill only 6 dimensions
    assert assert_same_rank(a, 6) == assert_same_rank(b, 6) == 4
    assert assert_same_rank(a + b, 6) == 6
    assert assert_same_join(a, b, 6) == 2


def test_rank_of_no_lines_and_of_empty_lines():
    assert assert_same_rank([], 3) == 0  # no columns of height 3
    assert assert_same_rank([[], [], []], 0) == 0  # three columns of height 0
    assert assert_same_join([], [[1, 2, 3]], 3) == 0


P = (1 << 61) - 1


def bareiss_det(m):
    work = [list(row) for row in m]
    rank, sign = _bareiss(work, len(m), _int_cross, _int_exact)
    return sign * work[-1][-1] if rank == len(m) else 0


def test_bareiss_over_int_refuses_a_step_that_does_not_divide():
    # every entry is a minor of the input, so a remainder means corrupted rows
    def corrupted_cross(a, b, c, d):
        return _int_cross(a, b, c, d) + 1

    with pytest.raises(ArithmeticError, match="divide exactly"):
        _bareiss([[2, 1, 1], [1, 3, 2], [1, 0, 0]], 3, corrupted_cross, _int_exact)


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
