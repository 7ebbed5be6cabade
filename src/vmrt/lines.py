"""Even-contact lines on a degree-2m hypersurface and their tangent variety.

Fix homogeneous coordinates t0..tn and identify directions at an affine
base point y with points [z1 : ... : zn] of the hyperplane at infinity.
A line through y is an even-contact (ECO) line for the hypersurface
{f = 0} when the restriction of f to the line has even local intersection
multiplicity everywhere, equivalently when the normalized restriction
f(1, y + lam*z) / f(1, y) is a perfect square of degree at most m.

Through the certificate polynomials A_k this becomes a system of
defining equations in z,

    B_k(y; z) = a_k(y;z)/a_0(y) - A_k(a_1/a_0, ..., a_m/a_0),
    k = m+1 .. 2m,

with B_k homogeneous of degree k in z.  `vmrt_equations` never composes
A_k with the ratio forms a_j/a_0 (SparsePolys in z from the symbolic
restriction): it runs the half-square recursion of `eco` on them, whose
tails are exactly A_k(a_1/a_0, ..., a_m/a_0).  Every intermediate
sigma_k is a form of degree k in z, no larger than an equation.

At a general base point off the hypersurface, the common zero locus of
the B_k is the variety of tangent directions of ECO lines; for
(n, m) = (3, 2) it is a finite set of length 12 counted by a resultant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .eco import EcoCertificate, _half_square, certify
from .errors import (
    BasePointOnBranch,
    InvalidInput,
    ResultantDegenerate,
)
from .poly import SparsePoly, _cleared, _sum_of_products, monomials_of_degree
from .sampling import _draw_cleared, rand_invertible
from .unipoly import UniPoly, is_perfect_square, restrict_to_line, resultant, squarefree_factorization

_ZERO = Fraction(0)


def _as_fractions(values: Sequence, what: str, length: int) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != length:
        raise InvalidInput(f"{what} must have {length} coordinates")
    return vals


class Hypersurface:
    """Hypersurface of even degree 2m in projective n-space, f in t0..tn."""

    __slots__ = ("n", "m", "f")

    def __init__(self, f: SparsePoly):
        if f.is_zero:
            raise InvalidInput("defining polynomial must be nonzero")
        n = len(f.vars) - 1
        if n < 1 or f.vars != tuple(f"t{i}" for i in range(n + 1)):
            raise InvalidInput("variables must be t0..tn")
        d = f.homogeneous_degree()
        if d < 2 or d % 2:
            raise InvalidInput(f"degree must be even and >= 2, got {d}")
        self.n = n
        self.m = d // 2
        self.f = f

    def affine_value(self, point: Sequence) -> Fraction:
        """f(1, y_1, ..., y_n)."""
        y = _as_fractions(point, "point", self.n)
        return self.f.evaluate((Fraction(1),) + y)

    def graded_parts(self) -> list[SparsePoly]:
        """[f_0, ..., f_2m] in z1..zn with f = sum t0^(2m-k) f_k, f_k of degree k."""
        d = 2 * self.m
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for exp, c in self.f.terms.items():
            buckets[d - exp[0]][exp[1:]] = c
        zvars = tuple(f"z{i}" for i in range(1, self.n + 1))
        return [SparsePoly(zvars, b) for b in buckets]

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        return self.f == other.f

    def __repr__(self):
        return f"Hypersurface(n={self.n}, m={self.m}, f={self.f})"


def _from_graded_parts(parts: Sequence[SparsePoly]) -> Hypersurface:
    """Hypersurface f = sum t0^(d-k) parts[k] for forms parts[k] of degree k in z1..zn.

    Here d = len(parts) - 1; the inverse of `Hypersurface.graded_parts`.
    """
    d = len(parts) - 1
    n = len(parts[0].vars)
    terms = {(d - k,) + exp: c for k, part in enumerate(parts) for exp, c in part.terms.items()}
    return Hypersurface(SparsePoly(tuple(f"t{i}" for i in range(n + 1)), terms))


@dataclass(frozen=True)
class VmrtSystem:
    """Defining equations [B_{m+1}, ..., B_{2m}] at one base point."""

    n: int
    m: int
    point: tuple[Fraction, ...]
    equations: tuple[SparsePoly, ...]

    def evaluate(self, direction: Sequence) -> tuple[Fraction, ...]:
        """Values B_k(y; z) at a concrete direction z."""
        z = _as_fractions(direction, "direction", self.n)
        return tuple(eq.evaluate(z) for eq in self.equations)


def vmrt_equations(hyp: Hypersurface, point: Sequence) -> VmrtSystem:
    """Equations of the even-contact tangent variety at an affine base point.

    Requires f(1, y) != 0 (the point is off the hypersurface and off the
    hyperplane at infinity).  Equation k is homogeneous of degree k in z.
    """
    y = _as_fractions(point, "point", hyp.n)
    parts = _moved_parts(hyp, y)
    m = hyp.m
    _, tails = _half_square(parts[1:m + 1], 2 * m)
    equations = tuple(parts[k] - tail for k, tail in enumerate(tails, start=m + 1))
    return VmrtSystem(n=hyp.n, m=m, point=y, equations=equations)


def _moved_parts(hyp: Hypersurface, y: Sequence, z: Sequence | None = None) -> list:
    """[a_0/a_0, ..., a_2m/a_0] for the restriction f(1, y + lam*z) = sum a_k lam^k.

    Fractions along a rational direction z; with z None, forms a_k/a_0 of
    degree k in z1..zn, the graded parts of f moved to y.  Raises
    BasePointOnBranch when a_0 = f(1, y) vanishes.
    """
    y = _as_fractions(y, "point", hyp.n)
    if z is not None:
        z = _as_fractions(z, "direction", hyp.n)
        if all(c == 0 for c in z):
            raise InvalidInput("direction must be nonzero")
    rest = restrict_to_line(hyp.f, y, z)
    a0 = rest[0] if z is not None else rest[0].constant_value()  # the restriction at lam = 0
    if a0 == 0:
        raise BasePointOnBranch(f"f(1, {', '.join(map(str, y))}) = 0")
    inv = 1 / a0
    return [a * inv for a in rest]


def line_certificate(hyp: Hypersurface, point: Sequence, direction: Sequence) -> EcoCertificate:
    """Certificate of the normalized restriction along one concrete line.

    Its residual vector equals (B_{m+1}(y;z), ..., B_{2m}(y;z)), so this is
    the cheap numeric route to the defining-equation values at a direction.
    """
    return certify(_moved_parts(hyp, point, direction)[1:])


def is_eco_line(hyp: Hypersurface, point: Sequence, direction: Sequence) -> bool:
    """Even-contact predicate via the independent square-root oracle.

    Normalizes the restriction to constant term 1 and asks the squarefree
    factorization whether it is a perfect square.  A restriction of degree
    < 2m encodes contact at infinity; squareness of the whole degree-<=2m
    polynomial is exactly even total multiplicity there as well.
    """
    ok, _ = is_perfect_square(UniPoly(_moved_parts(hyp, point, direction)))
    return ok


def build_converse(b_polys: Sequence[SparsePoly]) -> Hypersurface:
    """Hypersurface whose tangent system at the origin has prescribed equations.

    Given homogeneous b_{m+1}, ..., b_{2m} in z1..zn (degrees consecutive),
    returns f = t0^2m + sum t0^(2m-k) b_k.  The equations at y = 0 then
    reproduce the b_k exactly: the restriction along (0; z) is
    1 + sum lam^k b_k(z), so a_0 = 1, a_1 = ... = a_m = 0 and B_k = b_k.
    """
    b = list(b_polys)
    if not b:
        raise InvalidInput("need at least one prescribed equation")
    m = len(b)
    zvars = b[0].vars
    n = len(zvars)
    if zvars != tuple(f"z{i}" for i in range(1, n + 1)):
        raise InvalidInput("prescribed equations must use variables z1..zn")
    if not 2 <= m <= n - 1:
        raise InvalidInput(f"need 2 <= m <= n-1, got m={m}, n={n}")
    for offset, poly in enumerate(b):
        want = m + 1 + offset
        if poly.vars != zvars:
            raise InvalidInput("prescribed equations must share one variable list")
        if poly.is_zero or not poly.is_homogeneous(want):
            raise InvalidInput(f"entry {offset} must be nonzero homogeneous of degree {want}")
    return _from_graded_parts([SparsePoly.constant(zvars, 1)] + [SparsePoly.zero(zvars)] * m + b)


def eco_witness(n: int, m: int, point: Sequence, direction: Sequence, seed: int) -> Hypersurface:
    """Random hypersurface for which the given line is even-contact by design.

    Builds f = Q^2 + sum L_j R_j with Q random of degree m (resampled until
    Q(1, y) != 0), L_j a basis of linear forms vanishing on the line
    through y with direction z, and R_j random of degree 2m-1.  Restricted
    to that line f is (Q restricted)^2, a perfect square.  Q and the R_j
    are drawn as integers over one denominator (`sampling._draw_cleared`)
    and f is one integer sum of products (`poly._sum_of_products`).
    """
    if n < 2 or m < 1:
        raise InvalidInput("need n >= 2 and m >= 1")
    y = _as_fractions(point, "point", n)
    z = _as_fractions(direction, "direction", n)
    if all(c == 0 for c in z):
        raise InvalidInput("direction must be nonzero")
    rng = random.Random(seed)
    tvars = tuple(f"t{i}" for i in range(n + 1))
    pivot = next(i for i, c in enumerate(z) if c != 0)
    t = [SparsePoly.variable(tvars, v) for v in tvars]
    # t_i - y_i*t0 vanishes at the base point; eliminating the pivot leaves
    # n - 1 forms that vanish along the whole line
    shifted = [t[i + 1] - t[0] * y[i] for i in range(n)]
    linear_forms = [shifted[i] * z[pivot] - shifted[pivot] * z[i] for i in range(n) if i != pivot]
    # Q is homogeneous, so Q(1, y) != 0 exactly when Q(den, Y) != 0 for y = Y/den
    y_nums, y_den = _cleared(y)
    at_y = (y_den, *y_nums)
    while True:
        q = _draw_cleared(rng, monomials_of_degree(n + 1, m))
        if sum(k * prod(map(pow, at_y, exp)) for exp, k in q[0]):
            break
    pairs = [(q, q)]
    monos = monomials_of_degree(n + 1, 2 * m - 1)
    for form in linear_forms:
        nums, den = _cleared(form.terms.values())
        pairs.append(((list(zip(form.terms, nums)), den), _draw_cleared(rng, monos)))
    return Hypersurface(_sum_of_products(tvars, pairs))


def count_vmrt_points(hyp: Hypersurface, point: Sequence, seed: int) -> tuple[int, bool]:
    """Length of the zero-dimensional tangent variety for (n, m) = (3, 2).

    Applies a random invertible coordinate change (retried while a leading
    coefficient in z3 still vanishes), eliminates z3 by a resultant of the
    two equations and returns (degree of the binary form, squarefree?).
    Generic inputs give degree 12 = 3*4.  Raises ResultantDegenerate when
    the equations share a positive-dimensional component.
    """
    if (hyp.n, hyp.m) != (3, 2):
        raise InvalidInput("point count is implemented for n=3, m=2")
    system = vmrt_equations(hyp, point)
    b3, b4 = system.equations
    if b3.is_zero or b4.is_zero:
        raise ResultantDegenerate("an equation vanishes identically")
    rng = random.Random(seed)
    zvars = b3.vars
    gens = [SparsePoly.variable(zvars, v) for v in zvars]
    for _ in range(32):
        mat = rand_invertible(rng, 3)
        images = [
            sum((gens[j] * mat.entry(i, j) for j in range(3)), SparsePoly.zero(zvars))
            for i in range(3)
        ]
        c3 = b3.compose(images)
        c4 = b4.compose(images)
        if c3.coefficient((0, 0, 3)) != 0 and c4.coefficient((0, 0, 4)) != 0:
            break
    else:
        raise ResultantDegenerate("no coordinate change exposed leading coefficients")
    res = resultant(c3, c4, "z3")
    if res.is_zero:
        raise ResultantDegenerate("resultant vanishes identically")
    degree = res.homogeneous_degree()
    # squarefreeness of the binary form, read off the dehomogenization at z2=1
    coeffs = [_ZERO] * (degree + 1)
    for exp, c in res.terms.items():
        coeffs[exp[0]] += c
    dehom = UniPoly(coeffs)
    _, factors = squarefree_factorization(dehom)
    squarefree = all(mult == 1 for _, mult in factors) and degree - dehom.degree() <= 1
    return degree, squarefree


def recenter(hyp: Hypersurface, point: Sequence) -> Hypersurface:
    """Move an affine base point to the origin and rescale so f_0 = 1.

    The moved form is f(t0, t1 + y_1*t0, ..., tn + y_n*t0) / f(1, y).  By
    homogeneity its graded part of degree k is the coefficient a_k of lam^k
    in the restriction f(1, y + lam*z), over a_0 = f(1, y); so the moved
    form is the restriction of `vmrt_equations` joined back by powers of t0.
    The equations at the new origin coincide with the original equations
    at y, so all origin-normalized operations apply at arbitrary base points.
    """
    return _from_graded_parts(_moved_parts(hyp, point))
