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
That count is first certified mod the prime P = 2^61 - 1: the resultant
is evaluated at 13 points over GF(P) by Euclid, interpolated and tested
for degree and squarefreeness there by one more resultant (Collins
1971).  A certified answer is exact; only when the certificate declines
does the resultant over the integer polynomials run, with Yun's
squarefree test of its dehomogenization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .eco import EcoCertificate, _half_square, certify
from .errors import (
    BasePointOnBranch,
    InvalidInput,
    ResultantDegenerate,
)
from .linalg import _P
from .poly import SparsePoly, _sum_of_products
from .sampling import rand_homogeneous, rand_invertible
from .unipoly import UniPoly, _by_z_degree, _substitute, is_perfect_square, restrict_to_line
from .unipoly import _integer_coeffs_in, resultant, squarefree_factorization


def _as_fractions(values: Sequence, what: str, length: int) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != length:
        raise InvalidInput(f"{what} must have {length} coordinates")
    return vals


class Hypersurface:
    """Hypersurface of even degree 2m in projective n-space, f in t0..tn.

    The private slot `_line` memoizes the last numeric line restriction
    (`_moved_parts`), which the certificate and the square oracle share.
    """

    __slots__ = ("n", "m", "f", "_line")

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
        self._line = None  # (f, y, z, parts) of the last numeric restriction

    def affine_value(self, point: Sequence) -> Fraction:
        """f(1, y_1, ..., y_n)."""
        y = _as_fractions(point, "point", self.n)
        return self.f.evaluate((Fraction(1),) + y)

    def graded_parts(self) -> list[SparsePoly]:
        """[f_0, ..., f_2m] in z1..zn with f = sum t0^(2m-k) f_k, f_k of degree k."""
        # f is homogeneous, so a term's z-degree is 2m minus its t0-degree
        return _by_z_degree({exp[1:]: k for exp, k in self.f.nums.items()}, self.f.den, self.n, 2 * self.m)

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
    den = lcm(*(part.den for part in parts))
    nums = {(d - k,) + exp: c * (den // part.den) for k, part in enumerate(parts) for exp, c in part.nums.items()}
    return Hypersurface(SparsePoly._from_ints(tuple(f"t{i}" for i in range(n + 1)), nums, den))


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


def _moved_parts(hyp: Hypersurface, y: Sequence, z: Sequence | None = None) -> tuple:
    """(a_0/a_0, ..., a_2m/a_0) for the restriction f(1, y + lam*z) = sum a_k lam^k.

    Fractions along a rational direction z; with z None, forms a_k/a_0 of
    degree k in z1..zn, the graded parts of f moved to y.  Raises
    BasePointOnBranch when a_0 = f(1, y) vanishes.

    A numeric result is memoized in `hyp._line`, keyed on the identity of
    hyp.f and the values of y and z, so a certificate and a square oracle
    on one line restrict it once.  Symbolic results are not: no caller
    repeats one, and a hypersurface kept for a whole run would hold it.
    """
    y = _as_fractions(y, "point", hyp.n)
    if z is not None:
        z = _as_fractions(z, "direction", hyp.n)
        if all(c == 0 for c in z):
            raise InvalidInput("direction must be nonzero")
        memo = hyp._line
        if memo is not None and memo[0] is hyp.f and memo[1] == y and memo[2] == z:
            return memo[3]
    rest = restrict_to_line(hyp.f, y, z)
    a0 = rest[0] if z is not None else rest[0].constant_value()  # the restriction at lam = 0
    if a0 == 0:
        raise BasePointOnBranch(f"f(1, {', '.join(map(str, y))}) = 0")
    inv = 1 / a0
    parts = tuple(a * inv for a in rest)
    if z is not None:
        hyp._line = (hyp.f, y, z, parts)
    return parts


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
    Q(1, y) != 0 by `SparsePoly.evaluate`), L_j a basis of linear forms
    vanishing on the line through y with direction z, and R_j random of
    degree 2m-1.  Restricted to that line f is (Q restricted)^2, a perfect
    square.  f is one integer sum of products (`poly._sum_of_products`)
    over the numerators of Q, the L_j and the R_j.
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
    at_y = (1, *y)
    while True:
        q = rand_homogeneous(rng, tvars, m)
        if q.evaluate(at_y) != 0:
            break
    pairs = [(q, q)] + [(form, rand_homogeneous(rng, tvars, 2 * m - 1)) for form in linear_forms]
    return Hypersurface(_sum_of_products(tvars, pairs))


def _linear_change(p: SparsePoly, rows: Sequence[Sequence[int]]) -> SparsePoly:
    """p(M*w) in p's variables for the integer matrix M with these rows, through `unipoly._substitute`."""
    images = [(0, tuple(row)) for row in rows]
    return SparsePoly._from_ints(p.vars, _substitute(p, max(p.total_degree(), 0), images)[0], p.den)


def _resultant_mod_p(u: Sequence[int], v: Sequence[int]) -> int:
    """Res(u, v) mod P of ascending integer coefficient lists whose last entries are nonzero mod P.

    Euclid over GF(P) on the reduced lists (Collins 1971; von zur Gathen
    and Gerhard, *Modern Computer Algebra*, ch. 6): for r = u mod v,
    Res(u, v) = (-1)^(deg u*deg v) * lc(v)^(deg u - deg r) * Res(v, r),
    Res(u, c) = c^deg u for a constant c, and the result is 0 once a
    remainder vanishes.  u and v are left as they are.
    """
    u, v = [x % _P for x in u], [x % _P for x in v]
    res = 1
    while len(v) > 1:
        inv, r = pow(v[-1], -1, _P), u
        while len(r) >= len(v):
            f, s = r[-1] * inv % _P, len(r) - len(v)
            r = r[:s] + [(c - f * b) % _P for c, b in zip(r[s:-1], v)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return 0
        sign = -1 if (len(u) - 1) * (len(v) - 1) % 2 else 1
        res = sign * res * pow(v[-1], len(u) - len(r), _P) % _P
        u, v = v, r
    return res * pow(v[0], len(u) - 1, _P) % _P


def _count_certified(c3: SparsePoly, c4: SparsePoly) -> bool:
    """Whether arithmetic mod P proves that the exact count of c3, c4 is (d*e, True).

    Let R_Z be the resultant in z3 of the integer numerators
    (`_integer_coeffs_in`) of the forms c3 and c4, of degrees d and e in z3:
    a binary form in z1, z2, homogeneous of degree d*e, and a nonzero
    rational multiple of resultant(c3, c4, "z3") when it is nonzero.  The
    z3-leading coefficients are constants; the answer is False when one of
    them is a multiple of P.  Otherwise both stay units mod P at every
    point, and there evaluating and reducing commute with the resultant: at
    (z1, z2) = (a, 1), R_Z(a, 1) mod P is the resultant over GF(P) of the
    evaluated coefficient lists (`_resultant_mod_p`).  Its values at
    a = 0..d*e give R(z1) = R_Z(z1, 1) mod P by Newton interpolation.  The
    answer is True exactly when deg R >= d*e - 1 and Res(R, R') != 0 mod P,
    that is, gcd(R, R') = 1 over GF(P): the leading coefficient of R' is
    deg R * lc R, a unit because P > d*e.

    A True answer is exact.  R is nonzero, so R_Z is nonzero.  If R_Z had a
    repeated primitive factor G (a nonconstant form), the reduction of G
    would be a nonzero form of the same degree whose square divides the
    reduction of R_Z as a binary form.  That square is not a power of z2,
    since deg R >= d*e - 1 leaves z2^2 out of the reduction, so it would
    give a repeated factor of R, against gcd(R, R') = 1.  So R_Z is
    squarefree and z2^2 does not divide it: the dehomogenization at z2 = 1
    that `count_vmrt_points` hands to Yun is squarefree and loses at most
    one degree, and the form has degree d*e.
    """
    pc, qc = _integer_coeffs_in(c3, "z3"), _integer_coeffs_in(c4, "z3")
    if not all(sum(c[-1].values()) % _P for c in (pc, qc)):
        return False
    d, e = len(pc) - 1, len(qc) - 1
    top = d * e
    r = []
    for a in range(top + 1):
        u, v = ([sum(k * a ** exp[0] for exp, k in c.items()) for c in cs] for cs in (pc, qc))
        r.append(_resultant_mod_p(u, v))
    # divided differences on the nodes 0..top, whose spacing j inverts to pow(j, -1, P)
    for j in range(1, top + 1):
        inv = pow(j, -1, _P)
        for i in range(top, j - 1, -1):
            r[i] = (r[i] - r[i - 1]) * inv % _P
    # Newton form to ascending coefficients: R = R*(z1 - k) + r[k], k = top-1 .. 0
    poly = [r[top]]
    for k in range(top - 1, -1, -1):
        poly = [(lo - k * hi) % _P for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + r[k]) % _P
    while poly and not poly[-1]:
        poly.pop()
    return len(poly) >= top and _resultant_mod_p(poly, [i * c for i, c in enumerate(poly)][1:]) != 0


def count_vmrt_points(hyp: Hypersurface, point: Sequence, seed: int) -> tuple[int, bool]:
    """Length of the zero-dimensional tangent variety for (n, m) = (3, 2).

    Applies a random invertible integer coordinate change (`_linear_change`,
    retried while a leading coefficient in z3 still vanishes), eliminates z3
    by a resultant of the two equations and returns (degree of the binary
    form, squarefree?).
    Generic inputs give degree 12 = 3*4.  Raises ResultantDegenerate when
    the equations share a positive-dimensional component.

    The resultant and its squarefree test are first certified mod P
    (`_count_certified`), which settles (12, True) exactly.  Only when
    that certificate declines does the exact route run: the Sylvester
    resultant over the integer polynomials and Yun's test of its
    dehomogenization.
    """
    if (hyp.n, hyp.m) != (3, 2):
        raise InvalidInput("point count is implemented for n=3, m=2")
    system = vmrt_equations(hyp, point)
    b3, b4 = system.equations
    if b3.is_zero or b4.is_zero:
        raise ResultantDegenerate("an equation vanishes identically")
    rng = random.Random(seed)
    for _ in range(32):
        rows = rand_invertible(rng, 3)
        c3, c4 = _linear_change(b3, rows), _linear_change(b4, rows)
        if c3.coefficient((0, 0, 3)) != 0 and c4.coefficient((0, 0, 4)) != 0:
            break
    else:
        raise ResultantDegenerate("no coordinate change exposed leading coefficients")
    if _count_certified(c3, c4):
        return 3 * 4, True
    res = resultant(c3, c4, "z3")
    if res.is_zero:
        raise ResultantDegenerate("resultant vanishes identically")
    degree = res.homogeneous_degree()
    # squarefreeness of the binary form, read off the dehomogenization at z2=1
    coeffs = [0] * (degree + 1)
    for exp, k in res.nums.items():
        coeffs[exp[0]] += k
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
