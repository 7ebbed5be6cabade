"""Exact rational matrices: rank and the dimension of column-span intersections.

Rank is certified on integer lines by `_certified_rank`: the rows of a
`QMatrix`, each cleared by `poly._cleared`, the rows `rand_invertible`
draws, or the integer coefficient columns of `variation_report`.  It runs
mod the Mersenne prime P = 2^61 - 1 first (von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5).  Reducing mod P can only lose pivots, so rank mod P <= rank over
Q <= min(lines, length): one elimination over GF(P) that reaches that
bound gives the exact rank, the same on every run.  Otherwise the lines
go to fraction-free (Bareiss 1968) elimination over Z, whose intermediate
growth stays polynomial and whose every pivot decision is exact.

That GF(P) elimination, `_rank_mod_p`, is the one mod-P elimination: it
returns the rank and, for a square matrix, the determinant mod P.  The
rank serves `_certified_rank`; the determinant serves the certificate of
`lines.count_vmrt_points`, which evaluates a Sylvester determinant at
13 points instead of expanding it over the integer polynomials.

That elimination, `_bareiss`, is written once for every ring: the rank
fallback runs it over Python ints and `unipoly.resultant` over integer
polynomials, each passing its ring's cross product and exact division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInput
from .poly import _cleared

_P = (1 << 61) - 1


class QMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise InvalidInput("ragged rows")
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "QMatrix":
        columns = [list(c) for c in columns]
        if not columns:
            if rows is None:
                raise InvalidInput("cannot infer row count of an empty column list")
            return cls([[] for _ in range(rows)])
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise InvalidInput("columns of unequal height")
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(height)])

    def column(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise InvalidInput("row counts differ")
        return QMatrix([list(a) + list(b) for a, b in zip(self.data, other.data)])

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        """Exact rank over Q: `_certified_rank` of the cleared rows."""
        return _certified_rank([_cleared(row)[0] for row in self.data], self.cols)


def _certified_rank(lines: Sequence[Sequence[int]], length: int) -> int:
    """Exact rank over Q of integer lines of `length` entries: mod P if that is full, else by Bareiss on a copy."""
    rank = _rank_mod_p(lines, length)[0]
    if rank == min(len(lines), length):
        return rank
    return _bareiss([list(line) for line in lines], length, _int_cross, _int_exact)[0]


def _int_cross(a: int, b: int, c: int, d: int) -> int:
    return a * b - c * d


def _int_exact(x: int, p: int) -> int:
    q, rem = divmod(x, p)
    # every Bareiss entry is a minor of the input, so a remainder means
    # corrupted rows
    if rem:
        raise ArithmeticError("fraction-free step must divide exactly")
    return q


def _bareiss(m: list[list], cols: int, cross, exact) -> tuple[int, int]:
    """Fraction-free (Bareiss 1968) elimination of the rows m, in place; returns (rank, sign).

    `cross(a, b, c, d)` is a*b - c*d and `exact(x, p)` the exact quotient,
    raising ArithmeticError on a remainder; a falsy entry counts as zero.
    The pivot is the first nonzero entry at or below the current row and
    `sign` flips on each row swap, so sign * m[-1][-1] is the determinant
    of a square m of full rank.  By Sylvester's identity every entry is a
    minor of the input, so each division by the previous pivot is exact.
    Entries below a pivot are left stale: no later step reads them.
    """
    rows = len(m)
    r, sign, prev = 0, 1, None
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        pivot, top = m[r][c], m[r]
        for row in m[r + 1:]:
            lead = row[c]
            for j in range(c + 1, cols):
                x = cross(pivot, row[j], lead, top[j])
                row[j] = x if prev is None else exact(x, prev)
        prev = pivot
        r += 1
    return r, sign


def _rank_mod_p(m: list[list[int]], cols: int) -> tuple[int, int]:
    """(rank, det) of the integer rows m over GF(P), by one Gaussian elimination; m is left as it is.

    det is the product of the pivots, negated once per row swap: for a
    square m it is the determinant mod P, and 0 when m is singular there.
    """
    rows = [[x % _P for x in row] for row in m]
    r, det = 0, 1
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        pivot = rows[r]
        det = det * pivot[c] % _P
        inv = pow(pivot[c], -1, _P)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % _P
            if f:
                # entries left of c are 0 in both rows; column c becomes 0
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], pivot)]
        r += 1
    return r, det if r == len(rows) else 0


def span_intersection(a: QMatrix, b: QMatrix) -> int:
    """Dimension of (column span of a) intersect (column span of b)."""
    if a.rows != b.rows:
        raise InvalidInput("matrices must share the ambient space")
    return a.rank() + b.rank() - a.hstack(b).rank()
