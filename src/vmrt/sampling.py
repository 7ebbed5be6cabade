"""Seeded sampling of small rationals, polynomials and matrices.

Every sampler takes a random.Random instance so batch runs are fully
reproducible from a recorded integer seed.  Coordinates are small
rationals (numerators and denominators bounded well below 100) to keep
exact arithmetic fast while staying generic enough for rank and
squarefreeness checks.

`rand_homogeneous` is a thin wrapper over `_draw_cleared`, the one
sampler of coefficient forms: it makes the same two `randint` calls per
monomial as `rand_fraction`, so every seeded draw is the same, and
returns integer numerators over one denominator.  `lines.eco_witness`
feeds those integers to `poly._sum_of_products` directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidInput
from .linalg import QMatrix
from .poly import SparsePoly, monomials_of_degree

NUM_BOUND = 20
DEN_BOUND = 12
# draws before a rejection sampler gives up
_POINT_TRIES = 500
_MATRIX_TRIES = 200


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-NUM_BOUND, NUM_BOUND), rng.randint(1, DEN_BOUND))


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


def _draw_cleared(rng: random.Random, monos: Sequence, nonzero: bool = True) -> tuple[list, int]:
    """One `rand_fraction` per monomial, as (terms, den): (exponent, int) terms over a positive den.

    den is the lcm of the denominators drawn for the nonzero terms; the
    draws are resampled while all of them are zero and `nonzero` is set.
    The integers feed `poly._sum_of_products` without a Fraction per draw.
    """
    randint = rng.randint
    while True:
        draws = [(exp, randint(-NUM_BOUND, NUM_BOUND), randint(1, DEN_BOUND)) for exp in monos]
        den = lcm(*(d for _, k, d in draws if k))
        terms = [(exp, k * (den // d)) for exp, k, d in draws if k]
        if terms or not nonzero:
            return terms, den


def rand_homogeneous(
    rng: random.Random, variables: Sequence[str], degree: int, nonzero: bool = True
) -> SparsePoly:
    """Dense random homogeneous form; resamples if a nonzero one is required."""
    terms, den = _draw_cleared(rng, monomials_of_degree(len(variables), degree), nonzero)
    return SparsePoly(tuple(variables), {exp: Fraction(k, den) for exp, k in terms})


def rand_point_off_branch(rng: random.Random, hyp):
    """Affine point with f(1, y) != 0."""
    for _ in range(_POINT_TRIES):
        y = rand_point(rng, hyp.n)
        if hyp.affine_value(y) != 0:
            return y
    raise InvalidInput("could not sample a point off the hypersurface")


def rand_invertible(rng: random.Random, size: int) -> QMatrix:
    """Random integer matrix with nonzero determinant.

    Entries span [-99, 99]: coordinate changes drawn from here also serve
    as projection centers, where a wider range keeps distinct solution
    points from accidentally aligning with the center.
    """
    for _ in range(_MATRIX_TRIES):
        mat = QMatrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
        if mat.rank() == size:
            return mat
    raise InvalidInput("could not sample an invertible matrix")
