"""First-order jets in vector mode: value + sum_s eps_s*derivative[s], eps_s*eps_t = 0.

Jet1 is the one dual-number class (vector forward-mode differentiation,
Griewank and Walther, *Evaluating Derivatives*, ch. 3).  Its derivative
is a tuple with one slot per direction, so one pass of an exact rational
pipeline yields the derivative along every direction and pays for the
value arithmetic once.  Value and slots live in one commutative ring:
int or Fraction scalars, or SparsePoly forms in one variable list (the
half-square recursion).  Jets mix with jets of as many slots, a jet of
forms with a jet of scalars too, and with int or Fraction scalars.
`variation.dmu_jet`, the oracle for the closed-form `dmu_formula`,
replays the pipeline of `vmrt_equations` once at a jet base point with
one slot per coordinate direction.  It shares two pieces with
`vmrt_equations`, which define the map being differentiated: the
substitution loop of the line restriction and the half-square recursion
`eco._half_square`, run over Jet1 up to the lowest tail.
tests/test_kernels.py checks each against a reference of its own (a
term-by-term expansion; the composed certificate polynomial A_{m+1}).
The oracle and the formula both run `_half_square`, the definition of
the map, and share nothing else: the oracle touches no graded parts,
partials, inverse series or `build_family`, so a mistake in the
hand-derived formula cannot reappear in the oracle.

The jet restriction clears the point and all tangents with one
`poly._cleared` and runs `unipoly._substitute`, the loop of
`unipoly.restrict_to_line`, once on int images with the tangents as its
first-order variables: the loop keeps eps-free and first-order terms
apart and never multiplies two first-order terms, whose product is zero,
so no Jet1 and no zero slot enters it.  The coefficients become Jet1s
over forms only at the end.

The library raises no jet to a power and inverts only scalar jets.
`Jet1.__pow__` (the closed form (v + eps*d)^k = v^k + eps*k*v^(k-1)*d,
slot by slot) and the constant-form branch of `Jet1.inverse` serve the
tests' generic substitution `test_poly.reference_compose`, which pushes
jets through the certificate tail A_{m+1} in tests/test_kernels.py.  Both
stay: they are public, and tests check them directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput
from .poly import SparsePoly, _cleared
from .unipoly import _by_z_degree, _line_images, _substitute


def _scalar(other):
    """An int or Fraction operand of a jet operation; anything else is rejected."""
    if isinstance(other, (int, Fraction)):
        return other
    raise InvalidInput(f"cannot mix Jet1 with {type(other).__name__}")


class Jet1:
    """Truncated first-order jet value + sum_s eps_s*derivative[s] with parts in one ring.

    `+`, `-` and `*` of jets with different slot counts raise ValueError.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative: tuple):
        if type(derivative) is not tuple:
            raise InvalidInput("jet derivative must be a tuple of slots")
        if isinstance(value, SparsePoly):
            one_ring = all(isinstance(d, SparsePoly) and d.vars == value.vars for d in derivative)
        else:
            one_ring = SparsePoly not in map(type, derivative)
        if not one_ring:
            raise InvalidInput("jet parts must be all or none SparsePoly forms, in one variable list")
        self.value = value
        self.derivative = derivative

    def __add__(self, other):
        if isinstance(other, Jet1):
            slots = zip(self.derivative, other.derivative, strict=True)
            return Jet1(self.value + other.value, tuple([d + e for d, e in slots]))
        return Jet1(self.value + _scalar(other), self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet1):
            slots = zip(self.derivative, other.derivative, strict=True)
            return Jet1(self.value - other.value, tuple([d - e for d, e in slots]))
        return Jet1(self.value - _scalar(other), self.derivative)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            v, w = self.value, other.value
            slots = zip(self.derivative, other.derivative, strict=True)
            return Jet1(v * w, tuple([v * e + d * w for d, e in slots]))
        c = _scalar(other)
        return Jet1(self.value * c, tuple([d * c for d in self.derivative]))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """(v + eps*d)^k = v^k + eps*k*v^(k-1)*d per slot, and 1 for k = 0."""
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("jet power must be a non-negative integer")
        if k == 0:
            return Jet1(self.value ** 0, tuple([d * 0 for d in self.derivative]))
        # with 0**0 = 1 the closed form is eps*d for v = 0, k = 1 and 0 for
        # v = 0, k >= 2
        below = self.value ** (k - 1)
        return Jet1(below * self.value, tuple([below * d * k for d in self.derivative]))

    def __bool__(self):
        # bare bool() of a SparsePoly is always True; comparing with 0 works
        # for both rings
        return self.value != 0 or any(d != 0 for d in self.derivative)

    def inverse(self) -> "Jet1":
        """1/v + eps*(-d/v^2) per slot, for an int or Fraction value v or a constant form v != 0."""
        v = self.value
        if isinstance(v, SparsePoly):
            if not v.is_constant:
                raise InvalidInput("jet inversion needs a constant value part")
            v = v.constant_value()
        if v == 0:
            raise InvalidInput("jet with zero value part is not invertible")
        inv = 1 / Fraction(v)
        value = SparsePoly.constant(self.value.vars, inv) if isinstance(self.value, SparsePoly) else inv
        return Jet1(value, tuple([d * (-inv * inv) for d in self.derivative]))

    def __eq__(self, other):
        if not isinstance(other, Jet1):
            return NotImplemented
        return self.value == other.value and self.derivative == other.derivative

    def __repr__(self):
        return f"Jet1({self.value} + eps*({', '.join(map(str, self.derivative))}))"


def restrict_to_line_jets(f: SparsePoly, point: Sequence, tangents: Sequence[Sequence]) -> list[Jet1]:
    """Line-restriction coefficients at the jet base point y = point + sum_s eps_s*tangents[s].

    Substitutes t0 = 1, t_i = y_i + lam*z_i with symbolic z, and returns
    the list of lam^k coefficients as Jet1 over z1..zn with one slot per
    tangent (value-only jets for `tangents == []`).  The point and the
    tangents are scaled to ints by their common denominator and run once
    through the substitution loop of the plain restriction, the tangents
    as its first-order variables.
    """
    n = len(f.vars) - 1
    if len(point) != n:
        raise InvalidInput(f"point must have {n} coordinates")
    if any(len(t) != n for t in tangents):
        raise InvalidInput(f"every tangent must have {n} coordinates")
    d, r = f.homogeneous_degree(), len(tangents)
    nums, den = _cleared([Fraction(v) for v in point] + [Fraction(v) for t in tangents for v in t])
    # nums holds the point, then tangent after tangent: slot s of y_i is nums[i + n*(s+1)]
    slopes = [(0,) * r] + [tuple(nums[i + n :: n]) for i in range(n)]
    out, firsts = _substitute(f, d, _line_images(den, nums[:n]), slopes)
    divisor = f.den * den**d
    values = _by_z_degree(out, divisor, n, d)
    derivatives = [_by_z_degree(first, divisor, n, d) for first in firsts]
    return [Jet1(v, tuple(forms[k] for forms in derivatives)) for k, v in enumerate(values)]
