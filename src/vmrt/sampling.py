"""Seeded sampling of small rationals, polynomials and matrices.

Every sampler takes a random.Random instance so batch runs are fully
reproducible from a recorded integer seed.  Coordinates are small
rationals (numerators and denominators bounded well below 100) to keep
exact arithmetic fast while staying generic enough for rank and
squarefreeness checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
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


def rand_homogeneous(
    rng: random.Random, variables: Sequence[str], degree: int, nonzero: bool = True
) -> SparsePoly:
    """Dense random homogeneous form; resamples if a nonzero one is required."""
    monos = monomials_of_degree(len(variables), degree)
    while True:
        terms = {}
        for exp in monos:
            c = rand_fraction(rng)
            if c != 0:
                terms[exp] = c
        p = SparsePoly(tuple(variables), terms)
        if not nonzero or not p.is_zero:
            return p


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
