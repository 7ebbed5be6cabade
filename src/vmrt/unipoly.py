"""Univariate polynomial tools: restrictions, Yun factorization, resultants.

UniPoly is a dense polynomial in an abstract parameter (printed as `lam`)
with Fraction coefficients by ascending power; trailing zeros are never
stored.  It is the ring of the Yun squarefree factorization and the
square oracle.

Line restriction returns a plain list of the lam^0..lam^d coefficients of
f(1, y + lam*z): Fractions for a numeric direction, SparsePoly forms in
z1..zn for a symbolic one.  All three flavours (these two and the jet
restriction in `jets`) run through one substitution loop, `_expand_line`,
that keeps an integer polynomial over one common denominator, like FLINT's
fmpq_poly (https://flintlib.org/doc/fmpq_poly.html).  The caller clears
the denominators of the point (and direction) once, the loop substitutes
one variable at a time and the caller divides each output coefficient by
the common denominator at the end, so one gcd reduction is paid per
coefficient instead of one per product and sum.  The loop is generic over
the ring of the point coordinates: Python ints, or dual integers
a + eps*b for a jet base point.  The accumulator key is the lam-degree for
a numeric direction and the tuple of z-exponents for a symbolic one; a
power-table entry stores the key increment (j, or the 1-tuple (j,)), so
substituting a variable is `key + increment` in both cases.

Resultants are taken over the multivariate ring: both inputs are viewed
as polynomials in the eliminated variable with SparsePoly coefficients,
and the Sylvester determinant is expanded by fraction-free (Bareiss)
elimination.  Convention: coefficient rows in ascending-power layout,
first argument's rows on top; only vanishing and degree of the result
carry meaning downstream, the sign is fixed for reproducibility.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Sequence

from .errors import InvalidInput
from .poly import SparsePoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UniPoly:
    """Dense univariate polynomial, Fraction coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (trailing zeros are never stored)."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else _ZERO

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("exponent must be a non-negative integer")
        result = UniPoly([_ONE])
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> "UniPoly":
        c = Fraction(c)
        return UniPoly([x * c for x in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def monic(self) -> "UniPoly":
        lc = self.leading()
        return self.scale(1 / lc)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*lam")
            else:
                parts.append(f"{c}*lam^{k}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"UniPoly({self})"


def _divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    if b.is_zero:
        raise InvalidInput("division by the zero polynomial")
    db = b.degree()
    inv = 1 / b.leading()
    rem = list(a.coeffs)
    quot = [_ZERO] * max(len(rem) - db, 1)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv
        if c == 0:
            continue
        quot[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * b.coeffs[j]
    return UniPoly(quot), UniPoly(rem[:db])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero:
        a, b = b, _divmod(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


def squarefree_factorization(p: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Yun decomposition p = content * prod(factor_i ^ i).

    Factors are monic, squarefree and pairwise coprime; the content is the
    leading coefficient.  Constants give (value, []).  Exact throughout.
    """
    if p.is_zero:
        raise InvalidInput("zero polynomial has no squarefree factorization")
    if p.degree() == 0:
        return p.coeffs[0], []
    content = p.leading()
    pm = p.monic()
    g = poly_gcd(pm, pm.derivative())
    factors: list[tuple[UniPoly, int]] = []
    if g.degree() == 0:
        return content, [(pm, 1)]
    w = _divmod(pm, g)[0]
    y = _divmod(pm.derivative(), g)[0]
    z = y - w.derivative()
    i = 1
    while w.degree() > 0:
        h = poly_gcd(w, z)
        if h.degree() > 0:
            factors.append((h, i))
            w = _divmod(w, h)[0]
            y = _divmod(z, h)[0]
        else:
            y = z
        z = y - w.derivative()
        i += 1
    return content, factors


def _rational_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_perfect_square(p: UniPoly) -> tuple[bool, UniPoly | None]:
    """Whether p equals q^2 for a rational q; returns the root when it does.

    Decided through the squarefree factorization: every nonconstant factor
    must appear with even multiplicity and the content must be a rational
    square.  The root is normalized so q(0) > 0 when q(0) != 0, otherwise
    so its leading coefficient is positive.
    """
    if p.is_zero:
        raise InvalidInput("zero polynomial")
    content, factors = squarefree_factorization(p)
    if any(mult % 2 for _, mult in factors):
        return False, None
    root_c = _rational_sqrt(content)
    if root_c is None:
        return False, None
    q = UniPoly([root_c])
    for factor, mult in factors:
        for _ in range(mult // 2):
            q = q * factor
    c0 = q.coeff(0)
    if (c0 != 0 and c0 < 0) or (c0 == 0 and q.leading() < 0):
        q = -q
    return True, q


def _expand_line(f: SparsePoly, d: int, linear: Sequence[tuple], t0: int, symbolic: bool) -> tuple[dict, int]:
    """The one substitution loop: F(t0, a_1 + b_1*w_1, ..., a_n + b_n*w_n) with F = L*f.

    f is homogeneous of degree d and L clears its denominators.  `linear`
    holds one pair (a_i, b_i) per affine coordinate; b_i and t0 are ints and
    a_i lives in any ring with +, *, ** and a truth value (ints, or the dual
    integers of the jet restriction).  With `symbolic` false every w_i is the
    one parameter lam and the result maps lam-degrees to coefficients; with
    `symbolic` true w_i = lam*z_i and it maps z-exponent tuples (whose sum
    is the lam-degree).  Returns that map and the divisor L*t0^d.
    """
    den_f = lcm(*(c.denominator for c in f.terms.values()))
    # a power-table entry stores the key increment of w_i^j: the 1-tuple (j,)
    # appends the z_i exponent, j adds to the lam-degree
    zero_key, incs = ((), [(j,) for j in range(d + 1)]) if symbolic else (0, range(d + 1))
    # acc maps the exponents of the variables not yet substituted to the
    # coefficients gathered so far, by key; substituting t_i merges the
    # terms that agree on the remaining exponents
    acc: dict[tuple, dict] = {
        exp[1:]: {zero_key: c.numerator * (den_f // c.denominator) * t0 ** exp[0]}
        for exp, c in f.terms.items()
    }
    for a, b in linear:
        # e -> the nonzero (increment of w_i^j, coefficient) of (a + b*w_i)^e
        powers: dict[int, tuple] = {}
        nxt: dict[tuple, dict] = {}
        for rest, cur in acc.items():
            tgt = nxt.get(rest[1:])
            if tgt is None:
                tgt = nxt[rest[1:]] = {}
            e = rest[0]
            fac = powers.get(e)
            if fac is None:
                fac = tuple(
                    (incs[j], v) for j in range(e + 1) if (v := comb(e, j) * a ** (e - j) * b ** j)
                )
                powers[e] = fac
            get = tgt.get
            for key, ck in cur.items():
                for inc, cj in fac:
                    k = key + inc
                    tgt[k] = get(k, 0) + ck * cj
        acc = nxt
    return acc[()], den_f * t0 ** d


def _by_z_degree(out: dict, den: int, n: int, d: int) -> list[SparsePoly]:
    """Integers keyed by z-exponents, over den, as the forms of degree 0..d in z1..zn."""
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    buckets: list[dict] = [{} for _ in range(d + 1)]
    for zexp, v in out.items():
        if v:
            buckets[sum(zexp)][zexp] = Fraction(v, den)
    return [SparsePoly(zvars, b) for b in buckets]


def restrict_to_line(f: SparsePoly, point: Sequence, direction: Sequence | None = None) -> list:
    """Coefficients of lam^0..lam^d in f(1, y + lam*z) for a form f of degree d.

    Substitutes t0 = 1, t_i = point[i-1] + lam * z_i.  With a rational
    `direction` the z_i are evaluated and the entries are Fractions; with
    direction None the z_i stay symbolic and entry k is a SparsePoly
    homogeneous of degree k in z1..zn.  The list always has d + 1 entries,
    vanishing ones included.
    """
    n = len(f.vars) - 1
    if len(point) != n:
        raise InvalidInput(f"point must have {n} coordinates")
    d = f.homogeneous_degree()
    y = [Fraction(v) for v in point]
    # Clear denominators once: y = Y/D with Y integral, and by homogeneity
    # f(1, y + lam*z) = F(t0, E*Y + lam*D*Z) / (L * t0^d), where t0 = D*E for
    # a rational direction z = Z/E, and t0 = D, E = 1, Z = z for the
    # symbolic one.
    den_y = lcm(*(v.denominator for v in y))
    if direction is None:
        linear = [(v.numerator * (den_y // v.denominator), den_y) for v in y]
        out, den = _expand_line(f, d, linear, den_y, symbolic=True)
        return _by_z_degree(out, den, n, d)
    if len(direction) != n:
        raise InvalidInput(f"direction must have {n} coordinates")
    z = [Fraction(v) for v in direction]
    t0 = den_y * lcm(*(v.denominator for v in z))
    linear = [
        (yi.numerator * (t0 // yi.denominator), zi.numerator * (t0 // zi.denominator))
        for yi, zi in zip(y, z)
    ]
    out, den = _expand_line(f, d, linear, t0, symbolic=False)
    return [Fraction(out.get(k, 0), den) for k in range(d + 1)]


# -- resultants ---------------------------------------------------------------


def _coeff_list_in(p: SparsePoly, var: str) -> list[SparsePoly]:
    """Ascending coefficients of p in one variable, entries over the full ring."""
    i = p._var_index(var)
    d = p.degree_in(var)
    buckets: list[dict] = [dict() for _ in range(max(d, 0) + 1)]
    for exp, c in p.terms.items():
        e = exp[i]
        rest = exp[:i] + (0,) + exp[i + 1:]
        buckets[e][rest] = buckets[e].get(rest, _ZERO) + c
    return [SparsePoly(p.vars, b) for b in buckets]


def _bareiss_det(matrix: list[list[SparsePoly]], vars_) -> SparsePoly:
    """Fraction-free determinant over the polynomial ring."""
    n = len(matrix)
    if n == 0:
        return SparsePoly.constant(vars_, 1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = SparsePoly.constant(vars_, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SparsePoly.zero(vars_)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = elt.exact_div(prev)
            m[i][k] = SparsePoly.zero(vars_)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(p: SparsePoly, q: SparsePoly, var: str) -> SparsePoly:
    """Sylvester resultant of p and q with respect to one variable.

    Rows hold ascending coefficient lists, p's rows first.  Vanishes exactly
    when p and q share a root over the closure (for nonzero inputs of
    positive degree in `var`); for generic homogeneous ternary forms of
    degrees d and e the result is a binary form of degree d*e.
    """
    if p.vars != q.vars:
        raise InvalidInput("resultant operands must share a variable list")
    if p.is_zero or q.is_zero:
        raise InvalidInput("resultant of a zero polynomial")
    pc = _coeff_list_in(p, var)
    qc = _coeff_list_in(q, var)
    d, e = len(pc) - 1, len(qc) - 1
    if d == 0 and e == 0:
        raise InvalidInput("neither operand involves the eliminated variable")
    size = d + e
    zero = SparsePoly.zero(p.vars)
    rows: list[list[SparsePoly]] = []
    for i in range(e):
        row = [zero] * size
        for j, cj in enumerate(pc):
            row[i + j] = cj
        rows.append(row)
    for i in range(d):
        row = [zero] * size
        for j, cj in enumerate(qc):
            row[i + j] = cj
        rows.append(row)
    return _bareiss_det(rows, p.vars)
