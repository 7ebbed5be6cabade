"""Exact rank over Q of integer lines, and the rank of a join.

The package's linear algebra is three numbers of `variation_report`:
rank dmu, the dimension of the orbit tangent and the rank of both column
sets together, on the integer coefficient columns.  `rand_invertible`
accepts its integer rows on the same rank.  There is no matrix type:
callers that hold `Fraction` columns clear them to integer lines first.

Rank is certified on integer lines by `_certified_rank`.  It runs mod the
Mersenne prime P = 2^61 - 1 first (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5).  Reducing mod P can only lose pivots, so rank
mod P <= rank over Q <= min(lines, length): one elimination over GF(P)
that reaches that bound gives the exact rank, the same on every run.
Otherwise the lines go to fraction-free (Bareiss 1968) elimination over
Z, whose intermediate growth stays polynomial and whose every pivot
decision is exact.

That GF(P) elimination, `_reduce_mod_p`, is the one mod-P elimination,
and it computes ranks only: an echelon that lines are added to, reduced
against the pivots so far, its rank read off after any addition.
`_certified_rank` runs it once; `_certified_join` continues one echelon:
the rank of some lines, then of those lines with more, so the join of
`variation_report` reduces the orbit columns once.  The continued count
is the rank mod P of all the lines, so the same bound makes it exact
when it is full, and Bareiss on the full line set judges it when it is
not.

The Bareiss elimination, `_bareiss`, is written once for every ring:
the rank fallback runs it over Python ints and `unipoly.resultant` over
integer polynomials, each passing its ring's cross product and exact
division.
"""

from __future__ import annotations

from typing import Sequence

_P = (1 << 61) - 1


def _certified_rank(lines: Sequence[Sequence[int]], length: int) -> int:
    """Exact rank over Q of integer lines of `length` entries: mod P if that is full, else by Bareiss on a copy."""
    return _judged(_reduce_mod_p([], lines), lines, length)


def _certified_join(lines: Sequence[Sequence[int]], more: Sequence[Sequence[int]], length: int) -> tuple[int, int]:
    """Exact ranks over Q of `lines` and of `more` and `lines` together, by one elimination mod P.

    The echelon of `lines` is continued with `more`, so `lines` are
    reduced once.  Each count is judged as `_certified_rank` judges its
    own: a count below its bound goes to Bareiss on its full line set.
    """
    echelon: list = []
    rank = _judged(_reduce_mod_p(echelon, lines), lines, length)
    return rank, _judged(_reduce_mod_p(echelon, more), [*more, *lines], length)


def _judged(rank_mod_p: int, lines: Sequence[Sequence[int]], length: int) -> int:
    """The rank over Q of the lines, given their rank mod P: that count if it reaches min(len(lines), length), else Bareiss on a copy."""
    if rank_mod_p == min(len(lines), length):
        return rank_mod_p
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


def _reduce_mod_p(echelon: list, lines: Sequence[Sequence[int]]) -> int:
    """Add integer lines to an echelon over GF(P), in place; returns the echelon's rank.

    `echelon` holds one (c, inverse, row) per pivot: the row, reduced mod
    P, has its first nonzero entry at c, with that inverse, and is zero at
    the pivot columns of the entries before it.  A line is reduced against
    the entries in order, which keeps every earlier pivot column at zero,
    so what is left is zero at every pivot column and, unless it is zero,
    adds a pivot at its first nonzero entry.
    """
    for line in lines:
        row = [x % _P for x in line]
        for c, inv, pivot in echelon:
            f = row[c] * inv % _P
            if f:
                row = [(a - f * b) % _P for a, b in zip(row, pivot)]
        for c, x in enumerate(row):
            if x:
                echelon.append((c, pow(x, -1, _P), row))
                break
    return len(echelon)

