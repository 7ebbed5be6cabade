"""Univariate polynomial tools: restrictions, Yun factorization, resultants.

UniPoly is a dense polynomial in an abstract parameter (printed as `lam`)
in the layout of `SparsePoly`: int `nums` by ascending power, no trailing
zero, over one positive `den` (FLINT's fmpq_poly), built by
`UniPoly._from_ints`; `coeffs` is a Fraction view.  It is the ring of the
Yun squarefree factorization and the square oracle.

Line restriction returns a plain list of the lam^0..lam^d coefficients of
f(1, y + lam*z): Fractions for a numeric direction, SparsePoly forms in
z1..zn for a symbolic one.  All three flavours (these two and the jet
restriction in `jets`) and the coordinate change of `lines.count_vmrt_points`
run one linear-substitution loop, `_substitute`: t_i -> a_i + sum_j b_ij*w_j
over k new variables, on f's integer numerators and int images.  A
numeric direction has k = 0: each image is the one integer a_i + b_i*2^B
(Kronecker substitution, Harvey, J. Symb. Comput. 44, 2009), so the loop
evaluates F at one integer point and the lam^k coefficients are read
back as B-bit digits.  A symbolic direction or a jet point has k = n
and w_i = lam*z_i, the coordinate change a_i = 0 and b the drawn
matrix.  A jet point adds sum_s e_is*eps_s to each image, with
first-order variables eps_s (eps_s*eps_t = 0) that the loop carries in
an accumulator of their own.  Denominators are cleared once
(`poly._cleared`) and divided out per output coefficient, like FLINT's
fmpq_poly (https://flintlib.org/doc/fmpq_poly.html).  The keys are packed
ints, one field per w_j that never carries, so a key step is one addition;
the packing is the product loop's (`poly._packing`).

The squarefree factorization is Yun's (1976): a chain of gcds with the
derivative, and exact divisions by them through `_exact_quotient`, the
division of the resultant's Bareiss steps, all on integer numerators.
Each gcd is the primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2,
4.6.1, Algorithm E), which divides out the content of every remainder, so
the coefficients stay at the size of the subresultants instead of growing
through a Fraction Euclid.  The monic gcd is unique, so the factors are
the ones Euclid over Q gives.

Resultants are taken over the multivariate ring: both inputs are viewed
as polynomials in the eliminated variable whose coefficients are
polynomials in the other variables.  Each input is read as its integer
numerators over its denominator (L_p, L_q), the Sylvester determinant of
the integers is expanded over Z[z] by `linalg._bareiss`, the fraction-free
elimination (Bareiss 1968) that the rank fallback runs over Z, and the
determinant is divided once by L_p^e * L_q^d (e, d the degrees of q and
p in the eliminated variable).  The ring operations passed to it are
`_cross_difference`, whose products run through `poly._products`, the
product loop of `SparsePoly.__mul__`, and `_exact_quotient`, an exact
division with integer divmod.  Convention:
coefficient rows in ascending-power layout, first argument's rows on top;
only vanishing and degree of the result carry meaning downstream, the sign
is fixed for reproducibility.  `_sylvester_rows` lays out those rows for
this exact resultant only; the mod-P point-count certificate of `lines`
runs Euclid on evaluated coefficient lists instead.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import add
from typing import Sequence

from .errors import InvalidInput
from .linalg import _bareiss
from .poly import SparsePoly, _cleared, _packing, _products, _unpacked, grevlex_key


class UniPoly:
    """Dense univariate polynomial: int `nums` ascending by power over a positive `den`, gcd(den, *nums) == 1."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence):
        p = UniPoly._from_ints(*_cleared([Fraction(c) for c in coeffs]))
        self.nums, self.den = p.nums, p.den

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int) -> "UniPoly":
        """The polynomial sum nums[k]/den * lam^k, den nonzero: trailing zeros dropped, content and sign divided out."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        p = cls.__new__(cls)
        p.nums, p.den = tuple(k // g for k in nums), den // g
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fraction coefficients ascending by power, built afresh on each access."""
        return tuple(Fraction(k, self.den) for k in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (trailing zeros are never stored)."""
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k] if k < len(self.nums) else 0, self.den)

    def leading(self) -> Fraction:
        if not self.nums:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return UniPoly._from_ints([s * a + t * b for a, b in zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __sub__(self, other):
        return self + -other if isinstance(other, UniPoly) else NotImplemented

    def __neg__(self) -> "UniPoly":
        return UniPoly._from_ints([-k for k in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return UniPoly._from_ints([k * c.numerator for k in self.nums], self.den * c.denominator)
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return UniPoly._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("exponent must be a non-negative integer")
        result = UniPoly._from_ints([1], 1)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly._from_ints([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "UniPoly":
        if not self.nums:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return UniPoly._from_ints(self.nums, self.nums[-1])  # p / (nums[-1]/den)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

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


def _quotient(a: UniPoly, b: UniPoly) -> UniPoly:
    """a / b = (A/B) * db/da for a = A/da and a primitive b = B/db dividing a over Q.

    A/B is `_exact_quotient` of the numerators, exact over Z by Gauss's
    lemma; it raises ArithmeticError when b does not divide a.
    """
    q = _exact_quotient({(k,): c for k, c in enumerate(a.nums) if c}, {(k,): c for k, c in enumerate(b.nums) if c})
    return UniPoly._from_ints([q.get((k,), 0) * b.den for k in range(len(a.nums) - len(b.nums) + 1)], a.den)


def _primitive(cs: list[int]) -> list[int]:
    """Integer coefficients divided by their content (the gcd of all of them)."""
    g = gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


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

    The PRS starts from the integer numerators of both operands; each
    pseudo-remainder is made primitive again before the next step (Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm E), so the coefficients stay near the
    size of the subresultants.  The last nonzero remainder, made monic, is
    the unique monic gcd, the value Euclid's algorithm over Q would give.
    """
    if a.is_zero or b.is_zero:
        rest = b if a.is_zero else a
        return rest if rest.is_zero else rest.monic()
    u, v = a.nums, b.nums
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_remainder(u, v)
        if not r:
            return UniPoly._from_ints(v, v[-1])
        u, v = v, _primitive(r)
    return UniPoly._from_ints([1], 1)


def squarefree_factorization(p: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Yun decomposition p = content * prod(factor_i ^ i).

    Factors are monic, squarefree and pairwise coprime; the content is the
    leading coefficient.  Constants give (value, []).  Exact throughout,
    in integers: every divisor g, h of the chain is monic, so its nums
    are primitive (their content divides nums[-1] == den, and
    gcd(den, *nums) == 1), and by Gauss's lemma it divides its dividend's
    numerators over Z, as `_quotient` needs.
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
    w = _quotient(pm, g)
    y = _quotient(pm.derivative(), g)
    z = y - w.derivative()
    i = 1
    while w.degree() > 0:
        if i > p.degree():  # no factor has a larger multiplicity
            raise ArithmeticError("Yun's loop ran past the degree: a quotient or gcd is wrong")
        h = poly_gcd(w, z)
        if h.degree() > 0:
            factors.append((h, i))
            w = _quotient(w, h)
            y = _quotient(z, h)
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


def _substitute(f: SparsePoly, d: int, images: Sequence[tuple], slopes: Sequence[tuple] = ()) -> tuple[dict, list]:
    """The one substitution loop: F(a_0 + b_0.w + e_0.eps, ..., a_n + b_n.w + e_n.eps) for F = f.nums.

    `images` holds one (a_i, b_i) of ints per variable of f, b_i a tuple
    of k for w = (w_1..w_k).  With k = 0 (every b_i = ()) each image is
    the integer a_i: each group of the loop then holds one integer, and
    values is {(): F(a_0, ..., a_n)} ({} when every group cancels).
    `slopes` is empty, or holds one tuple e_i of r ints per variable for
    the first-order variables eps_1..eps_r: the images are then a jet
    base point (forward-mode differentiation, Griewank and Walther,
    *Evaluating Derivatives*, ch. 3).  d bounds the total degree of f.  Returns (values, firsts): values maps w-exponent
    tuples to the eps-free coefficients, firsts[s] to those of eps_s.

    eps_s*eps_t = 0, so an eps-free accumulator and a first-order one are
    kept apart, and each step forms eps-free times eps-free and the two
    products of eps-free and first-order terms, never first-order times
    first-order: that product is zero, and forming it is the waste of a
    Jet1 whose zero slots are multiplied.  With no slopes the first-order
    half stays empty and costs nothing.  A power of an image is
    L^p + p*L^(p-1)*E for L = a + b.w and E = e.eps.  A key packs w^alpha
    by the packing of the product loop (`poly._packing`, one field of
    `size` bytes per w_j, 256^size > d), so multiplying monomials is one
    int addition.  A first-order key adds s * 256^(size*k) for its eps_s,
    which a product with an eps-free key keeps.  Keys are unpacked once,
    by `poly._unpacked`.
    """
    k = len(images[0][1])
    weights, size = _packing(k, d)
    slot = 256 ** (size * k)
    no_eps = [()] * (d + 1)

    def powers(a, b, e):
        # (key, coefficient) pairs of L^p and of p*L^(p-1)*E, p = 0..d, L by repeated products
        linear = [(key, c) for key, c in zip([0, *weights], [a, *b]) if c]
        table = [[(0, 1)]]
        for _ in range(d):
            power: dict[int, int] = {}
            for key, c in table[-1]:
                for inc, v in linear:
                    power[key + inc] = power.get(key + inc, 0) + c * v
            table.append([item for item in power.items() if item[1]])
        eps = [(s * slot, c) for s, c in enumerate(e) if c]
        if not eps:
            return table, no_eps
        return table, [[]] + [[(key + ks, p * c * v) for key, c in table[p - 1] for ks, v in eps] for p in range(1, d + 1)]

    def spread(out, src, factors):
        # out += src times the power of the next image that each group's first exponent picks
        for exps, cur in src:
            fac = factors[exps[0]]
            if not fac:
                continue
            tgt = out.setdefault(exps[1:], {})
            get = tgt.get
            for key, ck in cur.items():
                for inc, cj in fac:
                    at = key + inc
                    tgt[at] = get(at, 0) + ck * cj
        return out

    # acc and acc_eps map the exponents of the variables not yet substituted to the eps-free and
    # the first-order coefficients by packed key; the first image (t0 in a restriction) is applied
    # as they are built
    e_first, *e_rest = slopes or [()] * len(images)
    (a, b), *rest = images
    table, table_eps = powers(a, b, e_first)
    acc: dict[tuple, dict] = {}
    for exp, c in f.nums.items():
        tgt = acc.setdefault(exp[1:], {})
        for key, v in table[exp[0]]:
            tgt[key] = tgt.get(key, 0) + c * v
    # no restriction moves t0, so this is empty there
    acc_eps = spread({}, [(exp, {0: c}) for exp, c in f.nums.items()], table_eps) if any(table_eps) else {}
    for (a, b), e in zip(rest, e_rest):
        table, table_eps = powers(a, b, e)
        nxt = spread({}, acc.items(), table)
        acc_eps = spread(spread({}, acc_eps.items(), table), acc.items(), table_eps) if acc_eps or any(table_eps) else {}
        acc = nxt

    # f in t0 alone has the one key ()
    by_slot: list[dict] = [{} for _ in e_first]
    for key, v in acc_eps.get((), {}).items():
        s, key = divmod(key, slot)
        by_slot[s][key] = v
    return _unpacked(acc.get((), {}), k, size), [_unpacked(part, k, size) for part in by_slot]


def _line_images(den: int, coords: Sequence) -> list[tuple]:
    """Images t0 -> den, t_i -> coords[i] + den*w_i: the line y + lam*z for y = coords/den, w_i = lam*z_i."""
    n = len(coords)
    return [(den, (0,) * n)] + [(a, (0,) * i + (den,) + (0,) * (n - 1 - i)) for i, a in enumerate(coords)]


def _by_z_degree(out: dict, den: int, n: int, d: int) -> list[SparsePoly]:
    """Integers keyed by z-exponents, over den, as the forms of degree 0..d in z1..zn."""
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    buckets: list[dict] = [{} for _ in range(d + 1)]
    for zexp, v in out.items():
        buckets[sum(zexp)][zexp] = v
    return [SparsePoly._from_ints(zvars, b, den) for b in buckets]


def restrict_to_line(f: SparsePoly, point: Sequence, direction: Sequence | None = None) -> list:
    """Coefficients of lam^0..lam^d in f(1, y + lam*z) for a form f of degree d.

    Substitutes t0 = 1, t_i = point[i-1] + lam * z_i.  With a rational
    `direction` the z_i are evaluated and the entries are Fractions; with
    direction None the z_i stay symbolic and entry k is a SparsePoly
    homogeneous of degree k in z1..zn.  The list always has d + 1 entries,
    vanishing ones included.

    A rational direction is a Kronecker substitution.  With the integer
    images t_i -> a_i + lam*b_i below, F(a + lam*b) = sum c_k lam^k, and
    one evaluation at lam = 2^B gives V = sum c_k 2^(B*k).  Take
    B = bitlen(S) + d*bitlen(M) + 1 for S = sum |F's coefficients| and
    M = max_i (|a_i| + |b_i|).  Proof that the d + 1 balanced B-bit digits
    of V are the c_k: (1) sum_k |c_k| <= sum_e |c_e| * prod_i (|a_i| +
    |b_i|)^e_i <= S*M^d, since every monomial of F has degree d; (2) S <
    2^bitlen(S) and M^d < 2^(d*bitlen(M)) (M^0 = 1 = 2^0 when d = 0), so
    |c_k| < 2^(B-1); (3) a digit in [-2^(B-1), 2^(B-1)) is fixed by V mod
    2^B, and V minus it is divisible by 2^B, so each c_k is read off
    exactly from the bottom.
    """
    n = len(f.vars) - 1
    if len(point) != n:
        raise InvalidInput(f"point must have {n} coordinates")
    d = f.homogeneous_degree()
    y = [Fraction(v) for v in point]
    # Clear denominators once: y = Y/D with Y integral (ys over den_y), and by
    # homogeneity f(1, y + lam*z) = F(t0, E*Y + lam*D*Z) / (L * t0^d), where
    # t0 = D*E for a rational direction z = Z/E (zs over den_z), and t0 = D,
    # E = 1, Z = z for the symbolic one.
    ys, den_y = _cleared(y)
    if direction is None:
        return _by_z_degree(_substitute(f, d, _line_images(den_y, ys))[0], f.den * den_y**d, n, d)
    if len(direction) != n:
        raise InvalidInput(f"direction must have {n} coordinates")
    zs, den_z = _cleared([Fraction(v) for v in direction])
    pairs = [(den_y * den_z, 0)] + [(k * den_z, j * den_y) for k, j in zip(ys, zs)]
    reach = max(abs(a) + abs(b) for a, b in pairs)  # M of the bound above
    bits = sum(map(abs, f.nums.values())).bit_length() + d * reach.bit_length() + 1
    value = _substitute(f, d, [(a + (b << bits), ()) for a, b in pairs])[0].get((), 0)
    den = f.den * (den_y * den_z) ** d
    out = []
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    for _ in range(d + 1):  # the balanced digits of value, lowest first
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        out.append(Fraction(digit, den))
        value = (value - digit) >> bits
    return out


# -- resultants ---------------------------------------------------------------


def _integer_coeffs_in(p: SparsePoly, var: str) -> list[dict]:
    """Ascending coefficients of p.den*p in one variable as integer term dicts.

    p.den*p has the integer coefficients p.nums; the eliminated
    variable's slot of every exponent is set to 0, so entries live over the
    full ring.
    """
    i = p._var_index(var)
    buckets: list[dict] = [{} for _ in range(p.degree_in(var) + 1)]
    for exp, k in p.nums.items():
        buckets[exp[i]][exp[:i] + (0,) + exp[i + 1:]] = k
    return buckets


def _sylvester_rows(pc: list[dict], qc: list[dict]) -> list[list[dict]]:
    """Sylvester matrix of the ascending coefficient lists pc and qc, padded with the zero polynomial {}.

    With d = len(pc) - 1 and e = len(qc) - 1: e shifted copies of pc on
    top of d shifted copies of qc, each row d + e long.
    """
    d, e = len(pc) - 1, len(qc) - 1
    rows = [[{}] * i + pc + [{}] * (e - 1 - i) for i in range(e)]
    return rows + [[{}] * i + qc + [{}] * (d - 1 - i) for i in range(d)]


def _cross_difference(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a*b - c*d for integer polynomials keyed by exponent tuples, zeros dropped."""
    nvars = len(next(iter(a or c), ()))  # any exponent of a left factor; none if neither has a term
    return {e: k for e, k in _products(nvars, [(a, b, 1), (c, d, -1)]).items() if k}


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
    pc, qc = _integer_coeffs_in(p, var), _integer_coeffs_in(q, var)
    d, e = len(pc) - 1, len(qc) - 1
    if d == 0 and e == 0:
        raise InvalidInput("neither operand involves the eliminated variable")
    size = d + e
    rows = _sylvester_rows(pc, qc)
    rank, sign = _bareiss(rows, size, _cross_difference, _exact_quotient)
    det = rows[-1][-1] if rank == size else {}
    if sign < 0:
        det = {exp: -k for exp, k in det.items()}
    if size > 1:
        # the quotient order of the last Bareiss step, also when no step divided
        det = dict(sorted(det.items(), key=lambda t: grevlex_key(t[0]), reverse=True))
    # the rows of p were scaled by p.den, those of q by q.den
    return SparsePoly._from_ints(p.vars, det, p.den ** e * q.den ** d)
