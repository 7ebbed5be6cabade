"""Seeded sampling of small rationals, polynomials and matrices.

Every sampler takes a random.Random instance so batch runs are fully
reproducible from a recorded integer seed.  Coordinates are small
rationals (numerators and denominators bounded well below 100) to keep
exact arithmetic fast while staying generic enough for rank and
squarefreeness checks.

Every integer comes from one private draw, `_draw(getrandbits, lo, hi)`:
the `getrandbits` calls and rejection loop that CPython's `randint`
reaches through `randrange` and `Random._randbelow_with_getrandbits`
(k = n.bit_length() bits for n = hi - lo + 1, redrawn while >= n), without
the three Python calls in between.  It returns what `rng.randint(lo, hi)`
would and leaves `rng` in the same state, so every seeded draw is the one
`randint` made.  This rests on those CPython internals: a test in
`tests/test_kernels.py` compares the draw with `randint`, and CI runs it
on every supported interpreter.  `rand_homogeneous` is the one
sampler of coefficient forms: it draws numerator and denominator per
monomial as `rand_fraction` does and builds the SparsePoly from integer
numerators over one denominator without a Fraction per draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidInput
from .linalg import _certified_rank
from .poly import SparsePoly, monomials_of_degree

NUM_BOUND = 20
DEN_BOUND = 12
# draws before a rejection sampler gives up
_POINT_TRIES = 500
_MATRIX_TRIES = 200


def _draw(getrandbits, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) for getrandbits = rng.getrandbits: the same int, and the same generator state after."""
    n = hi - lo + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


def rand_fraction(rng: random.Random) -> Fraction:
    getrandbits = rng.getrandbits
    return Fraction(_draw(getrandbits, -NUM_BOUND, NUM_BOUND), _draw(getrandbits, 1, DEN_BOUND))


def rand_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        c = rand_fraction(rng)
        if c != 0:
            return c


def rand_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_direction(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        z = tuple(rand_fraction(rng) for _ in range(n))
        if any(c != 0 for c in z):
            return z


def rand_homogeneous(
    rng: random.Random, variables: Sequence[str], degree: int, nonzero: bool = True
) -> SparsePoly:
    """Dense random form, one `rand_fraction` draw per monomial; resampled if a nonzero one is required."""
    getrandbits = rng.getrandbits
    monos = monomials_of_degree(len(variables), degree)
    while True:
        draws = [(exp, _draw(getrandbits, -NUM_BOUND, NUM_BOUND), _draw(getrandbits, 1, DEN_BOUND)) for exp in monos]
        den = lcm(*(d for _, _, d in draws))
        p = SparsePoly._from_ints(variables, {exp: k * (den // d) for exp, k, d in draws}, den)
        if not (nonzero and p.is_zero):
            return p


def rand_point_off_branch(rng: random.Random, hyp):
    """Affine point with f(1, y) != 0."""
    for _ in range(_POINT_TRIES):
        y = rand_point(rng, hyp.n)
        if hyp.affine_value(y) != 0:
            return y
    raise InvalidInput("could not sample a point off the hypersurface")


def rand_invertible(rng: random.Random, size: int) -> list[list[int]]:
    """Rows of a random integer matrix with nonzero determinant.

    Entries span [-99, 99]: coordinate changes drawn from here also serve
    as projection centers, where a wider range keeps distinct solution
    points from accidentally aligning with the center.
    """
    getrandbits = rng.getrandbits
    for _ in range(_MATRIX_TRIES):
        rows = [[_draw(getrandbits, -99, 99) for _ in range(size)] for _ in range(size)]
        if _certified_rank(rows, size) == size:
            return rows
    raise InvalidInput("could not sample an invertible matrix")
