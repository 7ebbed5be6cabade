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

The squarefree factorization is Yun's (1976): a chain of gcds with the
derivative.  Each gcd runs over the integers: both operands are cleared to
primitive integer polynomials and the primitive pseudo-remainder sequence
(Knuth, TAOCP vol. 2, 4.6.1, Algorithm E) divides out the content of every
remainder, so the coefficients stay at the size of the subresultants
instead of growing through a Fraction Euclid; only the final gcd is made
monic in Fractions.  The monic gcd is unique, so the factors are the ones
Euclid over Q gives.

Resultants are taken over the multivariate ring: both inputs are viewed
as polynomials in the eliminated variable whose coefficients are
polynomials in the other variables.  Each input is scaled by the lcm of
its denominators (L_p, L_q), the Sylvester determinant of the integer
coefficients is expanded by fraction-free elimination over Z[z] (Bareiss
1968), every division by the previous pivot being an exact division with
integer divmod, and the determinant is divided once by L_p^e * L_q^d
(e, d the degrees of q and p in the eliminated variable).  Convention:
coefficient rows in ascending-power layout, first argument's rows on top;
only vanishing and degree of the result carry meaning downstream, the sign
is fixed for reproducibility.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add
from typing import Sequence

from .errors import InvalidInput
from .poly import SparsePoly, grevlex_key

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


def _primitive(cs: list[int]) -> list[int]:
    """Integer coefficients divided by their content (the gcd of all of them)."""
    g = gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _primitive_part(p: UniPoly) -> list[int]:
    """The primitive integer polynomial with the roots of p: clear denominators, drop the content."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _pseudo_remainder(u: list[int], v: list[int]) -> list[int]:
    """The remainder of u by v over Q times a nonzero integer (ascending ints, len(u) >= len(v) >= 2).

    Each step scales the remainder by lc(v)/g and subtracts c/g times a
    shift of v, g = gcd(lc(v), c) for the top coefficient c, so the top
    cancels in integers without the full factor lc(v)^(deg u - deg v + 1).
    """
    lv, dv = v[-1], len(v) - 1
    r = list(u)
    for s in range(len(r) - 1 - dv, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(lv, c)
        a, b = lv // g, c // g
        if a != 1:
            r = [a * x for x in r]
        for j in range(dv):
            r[s + j] -= b * v[j]
    while r and not r[-1]:
        r.pop()
    return r


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals, by the primitive PRS over the integers.

    Both operands are cleared to primitive integer polynomials; each
    pseudo-remainder is made primitive again before the next step (Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm E), so the coefficients stay near the
    size of the subresultants.  The last nonzero remainder, made monic, is
    the unique monic gcd, the value Euclid's algorithm over Q would give.
    """
    if a.is_zero or b.is_zero:
        rest = b if a.is_zero else a
        return rest if rest.is_zero else rest.monic()
    u, v = _primitive_part(a), _primitive_part(b)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_remainder(u, v)
        if not r:
            return UniPoly([Fraction(c, v[-1]) for c in v])
        u, v = v, _primitive(r)
    return UniPoly([_ONE])


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


def _integer_coeffs_in(p: SparsePoly, var: str) -> tuple[list[dict], int]:
    """Ascending coefficients of L*p in one variable as integer term dicts, and L.

    L is the lcm of p's denominators; the eliminated variable's slot of
    every exponent is set to 0, so entries live over the full ring.
    """
    i = p._var_index(var)
    den = lcm(*(c.denominator for c in p.terms.values()))
    buckets: list[dict] = [{} for _ in range(p.degree_in(var) + 1)]
    for exp, c in p.terms.items():
        buckets[exp[i]][exp[:i] + (0,) + exp[i + 1:]] = c.numerator * (den // c.denominator)
    return buckets, den


def _cross_difference(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a*b - c*d for integer polynomials keyed by exponent tuples, zeros dropped."""
    acc: dict = {}
    get = acc.get
    for sign, left, right in ((1, a, b), (-1, c, d)):
        for e1, k1 in left.items():
            k1 *= sign
            for e2, k2 in right.items():
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + k1 * k2
    return {e: k for e, k in acc.items() if k}


def _exact_quotient(num: dict, den: dict) -> dict:
    """num / den for integer polynomials keyed by exponent tuples.

    Divides the grevlex-leading term of the remainder by that of den with
    integer divmod, one quotient term at a time; raises ArithmeticError
    when a step leaves a remainder, and ZeroDivisionError for den = 0.  The
    remainder's exponents wait in a sorted queue keyed once per term (each
    subtraction only adds terms below the current one), and the quotient
    terms come out grevlex-descending.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    d_exp = max(den, key=grevlex_key)
    d_coeff = den[d_exp]
    rest = [(e, k) for e, k in den.items() if e != d_exp]
    rem = dict(num)
    # (-degree, reversed exponents) is smallest for the grevlex-largest term
    queue = sorted((-sum(e), e[::-1], e) for e in rem)
    quot: dict = {}
    while queue:
        r_exp = queue.pop(0)[2]
        val = rem.pop(r_exp, 0)
        if not val:
            continue  # cancelled after it was queued
        diff = tuple(a - b for a, b in zip(r_exp, d_exp))
        c, r = divmod(val, d_coeff)
        if r or min(diff) < 0:
            raise ArithmeticError("polynomial division is not exact")
        quot[diff] = c
        for exp, k in rest:
            tgt = tuple(map(add, diff, exp))
            if tgt in rem:
                rem[tgt] -= c * k
            else:
                rem[tgt] = -c * k
                insort(queue, (-sum(tgt), tgt[::-1], tgt))
    return quot


def _bareiss_det(m: list[list[dict]]) -> dict:
    """Determinant of a square matrix of integer polynomials, fraction-free.

    Bareiss (1968): after step k every entry of the trailing block is a
    (k+1)-minor, so dividing each 2x2 cross difference by the previous
    pivot is exact over Z[z].  Rows are swapped for a zero pivot; the
    matrix is overwritten.
    """
    n = len(m)
    sign = 1
    prev: dict | None = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return {}
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                elt = _cross_difference(pivot, row[j], lead, row_k[j])
                row[j] = elt if prev is None else _exact_quotient(elt, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else {e: -k for e, k in det.items()}


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
    pc, lp = _integer_coeffs_in(p, var)
    qc, lq = _integer_coeffs_in(q, var)
    d, e = len(pc) - 1, len(qc) - 1
    if d == 0 and e == 0:
        raise InvalidInput("neither operand involves the eliminated variable")
    size = d + e
    rows = [[{}] * i + pc + [{}] * (e - 1 - i) for i in range(e)]
    rows += [[{}] * i + qc + [{}] * (d - 1 - i) for i in range(d)]
    det = _bareiss_det(rows)
    if size > 1:
        # the quotient order of the last Bareiss step, also when no step divided
        det = dict(sorted(det.items(), key=lambda t: grevlex_key(t[0]), reverse=True))
    # the rows of p were scaled by lp, those of q by lq
    den = lp ** e * lq ** d
    return SparsePoly(p.vars, {exp: Fraction(k, den) for exp, k in det.items()})
