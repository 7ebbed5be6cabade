"""First-order jets: value + eps*derivative, eps^2 = 0, over a commutative ring.

Jet1 is the one dual-number class (forward-mode differentiation, Griewank
and Walther, *Evaluating Derivatives*, ch. 3).  Its two parts live in
one commutative ring: ints, the dual integers of the jet restriction,
or SparsePoly forms in one variable list, the jets of the half-square
recursion.  Its arithmetic takes other jets and int or Fraction scalars.
Running an exact rational pipeline on jets yields the pipeline's
directional derivative for free.  `variation.dmu_jet` uses this as the
oracle for the closed-form differential `dmu_formula`.  It replays the
pipeline of `vmrt_equations` at a jet base point, and it shares two
pieces with `vmrt_equations`: the substitution loop of the line
restriction and the half-square recursion `eco._half_square`, run here
over Jet1 up to the lowest tail.  Those two pieces define the map being
differentiated, and tests/test_kernels.py checks each against a reference
of its own: a term-by-term expansion for the restriction, the composed
certificate polynomial A_{m+1} for the recursion.  The oracle uses none
of the formula's ingredients: graded parts, partial derivatives, and the
certificate family with its tail partials (it never calls
`build_family`).  A mistake in the hand-derived formula therefore
cannot reappear in the oracle.

The jet restriction runs the one substitution loop of
`unipoly.restrict_to_line` over Jet1 with int parts, after clearing the
denominators of the jet point with `poly._cleared`, the one clearing step
of every integer kernel.  Powers of a Jet1 use the closed form
(v + eps*d)^k = v^k + eps*k*v^(k-1)*d instead of k jet products, which
keeps `SparsePoly.compose` over jets cheap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput
from .poly import SparsePoly, _cleared
from .unipoly import _by_z_degree, _expand_line


def _scalar(other):
    """An int or Fraction operand of a jet operation; anything else is rejected."""
    if isinstance(other, (int, Fraction)):
        return other
    raise InvalidInput(f"cannot mix Jet1 with {type(other).__name__}")


class Jet1:
    """Truncated first-order jet value + eps*derivative with parts in one ring."""

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative):
        if isinstance(value, SparsePoly) and value.vars != derivative.vars:
            raise InvalidInput("jet components must share a variable list")
        self.value = value
        self.derivative = derivative

    @classmethod
    def constant(cls, variables: Sequence[str], value, derivative=0) -> "Jet1":
        return cls(
            SparsePoly.constant(variables, value),
            SparsePoly.constant(variables, derivative),
        )

    def __add__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value + other.value, self.derivative + other.derivative)
        return Jet1(self.value + _scalar(other), self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value - other.value, self.derivative - other.derivative)
        return Jet1(self.value - _scalar(other), self.derivative)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            return Jet1(
                self.value * other.value,
                self.value * other.derivative + self.derivative * other.value,
            )
        c = _scalar(other)
        return Jet1(self.value * c, self.derivative * c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """(v + eps*d)^k = v^k + eps*k*v^(k-1)*d, and 1 for k = 0."""
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("jet power must be a non-negative integer")
        if k == 0:
            return Jet1(self.value ** 0, self.derivative * 0)
        # with 0**0 = 1 the closed form is eps*d for v = 0, k = 1 and 0 for
        # v = 0, k >= 2
        below = self.value ** (k - 1)
        return Jet1(below * self.value, below * self.derivative * k)

    def __bool__(self):
        # bare bool() of a SparsePoly is always True; comparing with 0 works
        # for both rings
        return self.value != 0 or self.derivative != 0

    def inverse(self) -> "Jet1":
        """Inverse when the value part is an invertible scalar (Leibniz-exact)."""
        if not self.value.is_constant:
            raise InvalidInput("jet inversion needs a constant value part")
        v = self.value.constant_value()
        if v == 0:
            raise InvalidInput("jet with zero value part is not invertible")
        inv = 1 / v
        return Jet1(
            SparsePoly.constant(self.value.vars, inv),
            self.derivative * (-inv * inv),
        )

    def __eq__(self, other):
        if not isinstance(other, Jet1):
            return NotImplemented
        return self.value == other.value and self.derivative == other.derivative

    def __repr__(self):
        return f"Jet1({self.value} + eps*({self.derivative}))"


def restrict_to_line_jets(f: SparsePoly, point_jets: Sequence[tuple]) -> list[Jet1]:
    """Line-restriction coefficients when the base point is a jet.

    `point_jets` holds one (value, derivative) Fraction pair per affine
    coordinate.  Substitutes t0 = 1, t_i = y_i + lam*z_i with y_i the given
    jet scalars and symbolic z, and returns the list of lam^k coefficients
    as Jet1 over z1..zn.  The pairs are scaled to Jet1 with int parts by
    their common denominator and run through the substitution loop of the
    plain restriction.
    """
    n = len(f.vars) - 1
    if len(point_jets) != n:
        raise InvalidInput(f"need {n} jet coordinates")
    d = f.homogeneous_degree()
    y = [(Fraction(v), Fraction(dv)) for v, dv in point_jets]
    nums, den = _cleared([c for pair in y for c in pair])
    linear = [(Jet1(v, dv), den) for v, dv in zip(nums[::2], nums[1::2])]
    out, divisor = _expand_line(f, d, linear, den, symbolic=True)
    if not linear:  # f = c*t0^d: nothing substituted, the coefficient stays an int
        out = {key: Jet1(c, 0) for key, c in out.items()}
    values = _by_z_degree({key: c.value for key, c in out.items()}, divisor, n, d)
    slopes = _by_z_degree({key: c.derivative for key, c in out.items()}, divisor, n, d)
    return [Jet1(v, s) for v, s in zip(values, slopes)]
