"""Univariate polynomial tools: restrictions, Yun factorization, resultants.

UniPoly stores coefficients by ascending power of an abstract parameter
(printed as `lam`).  Two flavors share the class: scalar coefficients
(Fraction) for restrictions along a concrete line, and SparsePoly
coefficients for restrictions with a symbolic direction.  The polynomial
flavor may carry a nominal degree bound so trailing zero coefficients
stay addressable (a restriction of a degree-2m form keeps slots 0..2m
even when the top coefficients vanish).

Both restriction flavours run through one integer kernel that keeps an
integer polynomial over one common denominator, like FLINT's fmpq_poly
(https://flintlib.org/doc/fmpq_poly.html).  It clears the denominators of
f, the point and (when numeric) the direction once, substitutes one
variable at a time in Python ints, and divides each output coefficient by
the common denominator at the end, so one gcd reduction is paid per
coefficient instead of one per product and sum.  The flavours differ only
in the key of the integer accumulator: the lam-degree for a numeric
direction, the tuple of z-exponents for a symbolic one.  A power table
entry stores the key increment (j, or the 1-tuple (j,)), so substituting a
variable is `key + increment` in both cases.

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


def _is_zero_coeff(c) -> bool:
    return c.is_zero if isinstance(c, SparsePoly) else c == 0


class UniPoly:
    """Dense univariate polynomial, coefficients ascending by power."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: Sequence, bound: int | None = None):
        cs = list(coeffs)
        if bound is None:
            while cs and _is_zero_coeff(cs[-1]):
                cs.pop()
            self.coeffs = tuple(Fraction(c) if isinstance(c, (int, Fraction)) else c for c in cs)
        else:
            if len(cs) > bound + 1 and any(not _is_zero_coeff(c) for c in cs[bound + 1:]):
                raise InvalidInput("coefficients exceed the declared degree bound")
            cs = cs[: bound + 1]
            if cs and isinstance(cs[0], SparsePoly):
                pad = SparsePoly.zero(cs[0].vars)
            else:
                pad = _ZERO
            cs += [pad] * (bound + 1 - len(cs))
            self.coeffs = tuple(cs)
        self.bound = bound

    @classmethod
    def from_scalars(cls, values: Sequence) -> "UniPoly":
        return cls([Fraction(v) for v in values])

    @property
    def is_zero(self) -> bool:
        return all(_is_zero_coeff(c) for c in self.coeffs)

    @property
    def is_scalar(self) -> bool:
        return all(not isinstance(c, SparsePoly) for c in self.coeffs)

    def degree(self) -> int:
        """Degree ignoring trailing zeros; -1 for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not _is_zero_coeff(self.coeffs[i]):
                return i
        return -1

    def coeff(self, k: int):
        if k < len(self.coeffs):
            return self.coeffs[k]
        if self.coeffs and isinstance(self.coeffs[0], SparsePoly):
            return SparsePoly.zero(self.coeffs[0].vars)
        return _ZERO

    def leading(self):
        d = self.degree()
        if d < 0:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[d]

    # scalar-flavor arithmetic ------------------------------------------------

    def _require_scalar(self):
        if not self.is_scalar:
            raise InvalidInput("operation requires rational (scalar) coefficients")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], bound=self.bound)

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
        return UniPoly([x * c for x in self.coeffs], bound=self.bound)

    def derivative(self) -> "UniPoly":
        self._require_scalar()
        return UniPoly([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def monic(self) -> "UniPoly":
        lc = self.leading()
        return self.scale(1 / lc)

    def evaluate(self, x) -> Fraction:
        self._require_scalar()
        x = Fraction(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self):
        d = self.degree()
        return hash(tuple(self.coeffs[: d + 1]))

    def __str__(self):
        d = self.degree()
        if d < 0:
            return "0"
        parts = []
        for k in range(d + 1):
            c = self.coeffs[k]
            if _is_zero_coeff(c):
                continue
            if isinstance(c, SparsePoly):
                body = f"({c})"
            else:
                body = str(c)
            if k == 0:
                parts.append(body)
            elif k == 1:
                parts.append(f"{body}*lam")
            else:
                parts.append(f"{body}*lam^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly({self})"


def _divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    a._require_scalar(), b._require_scalar()
    if b.is_zero:
        raise InvalidInput("division by the zero polynomial")
    db = b.degree()
    inv = 1 / b.leading()
    rem = list(a.coeffs[: a.degree() + 1])
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
    p._require_scalar()
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


def restrict_to_line(f: SparsePoly, point: Sequence, direction: Sequence | None = None) -> UniPoly:
    """Restrict a homogeneous form f(t0..tn) to the line through an affine point.

    Substitutes t0 = 1, t_i = point[i-1] + lam * z_i.  With a rational
    `direction` the z_i are evaluated and the result has Fraction
    coefficients; with direction None the z_i stay symbolic and the lam^k
    coefficient is a SparsePoly homogeneous of degree k in z1..zn.  Either
    way the nominal degree bound equals deg f.  Both flavours expand over
    the integers after clearing denominators (see the module notes).
    """
    n = len(f.vars) - 1
    if len(point) != n:
        raise InvalidInput(f"point must have {n} coordinates")
    d = f.homogeneous_degree()
    y = [Fraction(v) for v in point]
    # Clear denominators once: f = F/L and y = Y/D with F, Y integral.  By
    # homogeneity f(1, y + lam*z) = F(t0, E*Y + lam*D*Z) / (L * t0^d), where
    # t0 = D*E for a rational direction z = Z/E, and t0 = D, E = 1, Z = z for
    # the symbolic one.  The expansion runs over the integers and one
    # division per output coefficient remains at the end.
    den_f = lcm(*(c.denominator for c in f.terms.values()))
    den_y = lcm(*(v.denominator for v in y))
    if direction is None:
        # key: the z-exponents substituted so far; the power table of
        # (Y_i + D*z_i)^e stores the increment (j,) of z_i^j
        t0, zero_key, incs = den_y, (), [(j,) for j in range(d + 1)]
        linear = [(v.numerator * (den_y // v.denominator), den_y) for v in y]
    else:
        if len(direction) != n:
            raise InvalidInput(f"direction must have {n} coordinates")
        z = [Fraction(v) for v in direction]
        # key: the lam-degree; the power table of (a + lam*b)^e stores j
        t0, zero_key, incs = den_y * lcm(*(v.denominator for v in z)), 0, range(d + 1)
        linear = [
            (yi.numerator * (t0 // yi.denominator), zi.numerator * (t0 // zi.denominator))
            for yi, zi in zip(y, z)
        ]
    # acc maps the exponents of the variables not yet substituted to the
    # integer coefficients gathered so far, by key; substituting t_i merges
    # the terms that agree on the remaining exponents
    acc: dict[tuple, dict] = {
        exp[1:]: {zero_key: c.numerator * (den_f // c.denominator) * t0 ** exp[0]}
        for exp, c in f.terms.items()
    }
    for a, b in linear:
        # e -> the nonzero (increment of z_i^j or lam^j, coefficient) of (a + b*.)^e
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
    den = den_f * t0 ** d
    out = acc[()]
    if direction is not None:
        return UniPoly([Fraction(out.get(k, 0), den) for k in range(d + 1)], bound=d)
    # bucket the z-monomials by degree: the lam^k coefficient has degree k
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    buckets: list[dict] = [{} for _ in range(d + 1)]
    for zexp, v in out.items():
        if v:
            buckets[sum(zexp)][zexp] = Fraction(v, den)
    return UniPoly([SparsePoly(zvars, b) for b in buckets], bound=d)


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
