"""Exact rational matrices: rank and the dimension of column-span intersections.

Forward elimination is fraction-free (Bareiss) on denominator-cleared
integer rows, so intermediate growth stays polynomial and every pivot
decision is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InvalidInput


class QMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in data)
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

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

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

    def _integer_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            mult = lcm(*(x.denominator for x in row)) if row else 1
            out.append([int(x * mult) for x in row])
        return out

    def rank(self) -> int:
        """Number of pivots of a fraction-free (Bareiss) row echelon form."""
        m = self._integer_rows()
        r, prev = 0, 1
        for c in range(self.cols):
            if r >= self.rows:
                break
            pr = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            for i in range(r + 1, self.rows):
                for j in range(c + 1, self.cols):
                    num = m[r][c] * m[i][j] - m[i][c] * m[r][j]
                    q, rem = divmod(num, prev)
                    # Bareiss (1968), by Sylvester's identity: each entry is a
                    # minor of the input, so the cross product divides exactly
                    # by the previous pivot; a remainder means corrupted rows.
                    if rem:
                        raise ArithmeticError("fraction-free step must divide exactly")
                    m[i][j] = q
                m[i][c] = 0
            prev = m[r][c]
            r += 1
        return r


def span_intersection(a: QMatrix, b: QMatrix) -> int:
    """Dimension of (column span of a) intersect (column span of b)."""
    if a.rows != b.rows:
        raise InvalidInput("matrices must share the ambient space")
    return a.rank() + b.rank() - a.hstack(b).rank()
