"""Exact sparse multivariate polynomials over the rationals.

A polynomial is stored as its variable names, integer numerators `nums`
(exponent tuple, one slot per variable, to a nonzero int) and one
positive denominator `den` that shares no factor with all of them:
FLINT's `fmpq_mpoly` layout, a content times an integer polynomial
(https://flintlib.org/doc/fmpq_mpoly.html).  The form is canonical, so
`==` and `hash` compare it directly, except that a constant equals and
hashes as its scalar value; `terms` builds the Fraction coefficients
afresh on each access.  The canonical term order for
printing, coefficient bases and leading-term logic is graded reverse
lexicographic (grevlex), highest term first; it is fixed globally so
every printed or serialized polynomial is deterministic.

The integer kernels and the text layer (`parse_poly`, `format_poly`) read
and write `nums` and `den` directly; each builds its result through
`SparsePoly._from_ints`, the one constructor that drops zeros and divides
out the content.  `_products` is the one integer product loop, a sum
s_1*a_1*b_1 + ... of integer term dicts in one accumulation on packed
exponents (Monagan and Pearce, CASC 2007; FLINT's `fmpz_mpoly`) by
`_packing` and `_unpacked`, which `unipoly._substitute` shares.  It runs
`SparsePoly.__mul__`, `_sum_of_products` (the f of `lines.eco_witness`)
and the resultant's cross products.  Packing pays where products merge:
a seed-1 pass of the benchmark's `tangent_equations` workload takes
70,240 term products onto 13,160 terms in its 195 products of two forms
of 4 or more terms, one of `variation` 170,244 onto 71,280 in 2,178.
With an operand of at most one term (4,116 products of that `variation`
pass, mainly the orbit forms z_i * dh/dz_j) nothing merges, so `__mul__`
shifts exponents instead.  `_cleared`
clears the other rational inputs: the Fractions of the public constructors
(`constant`, `from_terms`, `variation.explicit_family`, `UniPoly`, which
keeps this layout in one variable), and the points, directions and jet
tangents of the line restrictions.

Text format (whitespace-insensitive, round-trips through parse/format):

    t0^4 + 2*t1^2*t2^2 - 1/3*t3^4

Terms are joined by '+'/'-', a rational coefficient is attached with '*',
exponents use '^'.  Variables are families like t0..tn or z1..zn; the
parser rejects symbols outside the declared (or inferred) family.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from sys import byteorder
from typing import Collection, Iterable, Mapping, Sequence

from .errors import InvalidInput, ParseError, VariableMismatch

Exponent = tuple  # tuple[int, ...], one entry per variable

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grevlex_key(exp: Exponent):
    """Sort key realizing grevlex: compare total degree, then reversed-negated exponents."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _packing(nvars: int, degree: int) -> tuple[list[int], int]:
    """(weights, size): one field of `size` bytes per variable, 256^size > degree.

    An exponent packs to sum(map(mul, exp, weights)).  No field of a
    monomial of degree at most `degree` carries into the next, so
    multiplying monomials is one int addition.
    """
    size = next(s for s in (1, 2, 4, 8) if degree < 256**s)
    return [256 ** (size * j) for j in range(nvars)], size


def _unpacked(packed: dict, nvars: int, size: int) -> dict:
    """`packed` with each key unpacked to its exponent tuple: the keys' bytes, read as native fields of `size` bytes."""
    fields = memoryview(b"".join([key.to_bytes(size * nvars, byteorder) for key in packed]))
    exps = zip(*[iter(fields.cast("BH_I___Q"[size - 1]))] * nvars) if nvars else [()]
    return dict(zip(exps, packed.values()))


def _products(nvars: int, triples: Sequence[tuple[dict, dict, int]]) -> dict:
    """sum s*a*b over the (a, b, s) of integer term dicts keyed by exponent tuples of nvars entries.

    Exponents are packed for the largest deg a + deg b and unpacked once.
    A square pair (a is b) takes each cross product once and doubles it.
    Terms come out in the order of their first product, zeros included.
    """
    degree = max((max(map(sum, a)) + max(map(sum, b)) for a, b, _ in triples if a and b), default=0)
    weights, size = _packing(nvars, degree)
    acc: dict[int, int] = {}
    get = acc.get
    for a, b, s in triples:
        right = [(sum(map(mul, exp, weights)), k) for exp, k in b.items()]
        for i, (exp, k) in enumerate(a.items()):
            ka, ca, rest = sum(map(mul, exp, weights)), k * s, right
            if a is b:
                key = ka + right[i][0]
                acc[key] = get(key, 0) + ca * right[i][1]
                ca, rest = 2 * ca, right[i + 1:]
            for kb, cb in rest:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
    return _unpacked(acc, nvars, size)


def _sum_of_products(variables: Sequence[str], pairs: Sequence[tuple[SparsePoly, SparsePoly]]) -> SparsePoly:
    """sum a_i*b_i for SparsePoly pairs over `variables`: `_products` on their nums, over the lcm of the a.den*b.den."""
    den = lcm(*(a.den * b.den for a, b in pairs))
    nums = _products(len(variables), [(a.nums, b.nums, den // (a.den * b.den)) for a, b in pairs])
    return SparsePoly._from_ints(variables, nums, den)


def _cleared(values: Collection) -> tuple[list[int], int]:
    """(nums, den): integer numerators over the least common denominator of ints and Fractions.

    values[i] == Fraction(nums[i], den); `_cleared([]) == ([], 1)`.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, grevlex-descending.

    Memoized: samplers and monomial bases ask for the same few (nvars,
    degree) pairs over and over.  The result is a tuple, so the cached
    list cannot be changed by a caller.
    """
    if nvars < 1 or degree < 0:
        raise InvalidInput("need nvars >= 1 and degree >= 0")
    out: list[Exponent] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


class SparsePoly:
    """Immutable sparse polynomial: nonzero int `nums` over a positive `den`, gcd(den, *nums) == 1."""

    __slots__ = ("vars", "nums", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction]):
        # reduced fractions over their lcm already share no factor with it
        fractions = terms.values()
        nums, self.den = _cleared(fractions)
        self.vars = tuple(variables)
        self.nums = {e: k for e, k in zip(terms, nums) if k}

    @classmethod
    def _from_ints(cls, variables: Sequence[str], nums: Mapping[Exponent, int], den: int) -> "SparsePoly":
        """The polynomial sum nums[e]/den * t^e for a positive den: zeros dropped, content divided out."""
        nums = {e: k for e, k in nums.items() if k}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: k // g for e, k in nums.items()}
            den //= g
        p = cls.__new__(cls)
        p.vars, p.nums, p.den = tuple(variables), nums, den
        return p

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A fresh dict of the Fraction coefficients; changing it leaves the polynomial as it is."""
        den = self.den
        return {e: Fraction(k, den) for e, k in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls._from_ints(variables, {}, 1)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "SparsePoly":
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls._from_ints(variables, {tuple(exp): 1}, 1)

    @classmethod
    def from_terms(cls, variables: Sequence[str], items: Iterable[tuple[Exponent, Fraction]]) -> "SparsePoly":
        acc: dict[Exponent, Fraction] = {}
        nv = len(tuple(variables))
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != nv or any(e < 0 for e in exp):
                raise InvalidInput(f"bad exponent tuple {exp} for {nv} variables")
            acc[exp] = acc.get(exp, _ZERO) + Fraction(c)
        return cls(variables, acc)

    # -- predicates and accessors ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise InvalidInput("polynomial is not constant")
        return self.coefficient((0,) * len(self.vars))

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        return max(map(sum, self.nums), default=-1)

    def homogeneous_degree(self) -> int:
        """Common total degree of all terms; raises if inhomogeneous or zero."""
        if not self.nums:
            raise InvalidInput("zero polynomial has no homogeneous degree")
        degs = {sum(e) for e in self.nums}
        if len(degs) != 1:
            raise InvalidInput(f"polynomial is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if all terms share one total degree (the zero poly passes any)."""
        if not self.nums:
            return True
        degs = {sum(e) for e in self.nums}
        if len(degs) != 1:
            return False
        return degree is None or degs.pop() == degree

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; -1 for the zero polynomial."""
        i = self._var_index(name)
        return max((e[i] for e in self.nums), default=-1)

    def coefficient(self, exp: Exponent) -> Fraction:
        return Fraction(self.nums.get(tuple(exp), 0), self.den)

    def _var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableMismatch(f"unknown variable {name!r}") from None

    def _check_vars(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"variable lists differ: {self.vars} vs {other.vars}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_vars(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        acc = {e: k * s for e, k in self.nums.items()}
        get = acc.get
        for e, k in other.nums.items():
            acc[e] = get(e, 0) + k * t
        return SparsePoly._from_ints(self.vars, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._from_ints(self.vars, {e: -k for e, k in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Product with a scalar or with a polynomial over the same variables.

        A factor 1 returns self, which is immutable.  Two polynomials are
        multiplied as integer polynomials over the product of their
        denominators, and the content is divided out once at the end.  With
        an operand of at most one term no two products merge, so the other
        operand's exponents are shifted; otherwise `_products` runs.  Terms
        come out in the order of their first product.
        """
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            c = Fraction(other)
            nums = {e: k * c.numerator for e, k in self.nums.items()}
            return SparsePoly._from_ints(self.vars, nums, self.den * c.denominator)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_vars(other)
        left, right = self.nums, other.nums
        if len(left) < 2 or len(right) < 2:
            nums = {tuple(map(add, e1, e2)): k1 * k2 for e1, k1 in left.items() for e2, k2 in right.items()}
        else:
            nums = _products(len(self.vars), [(left, right, 1)])
        return SparsePoly._from_ints(self.vars, nums, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("exponent must be a non-negative integer")
        result = SparsePoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its scalar value, so it hashes as that value
        if len(self.nums) <= 1 and self.is_constant:
            return hash(Fraction(self.nums.get((0,) * len(self.vars), 0), self.den))
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    # -- calculus and substitution -------------------------------------------

    def partial(self, name: str) -> "SparsePoly":
        """Exact formal partial derivative with respect to one variable."""
        i = self._var_index(name)
        nums = {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: k * exp[i] for exp, k in self.nums.items() if exp[i]}
        return SparsePoly._from_ints(self.vars, nums, self.den)

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate at rational arguments, one per variable."""
        return self.compose([Fraction(v) for v in values])

    def compose(self, args: Sequence):
        """Substitute one ring element per variable (Fraction, SparsePoly, Jet1, ...).

        Arguments only need +, * and integer powers, plus multiplication by
        int and Fraction: the same code evaluates (`evaluate`, its one caller
        in the library), composes with polynomials, or pushes jets through,
        giving the value and the whole gradient over Jet1.  Terms take their
        integer numerators and the sum is divided by `den` once.  Each power
        of each argument is taken once and each term costs one product per
        variable it contains, so a polynomial with many terms (such as the
        A_k) is dear to substitute into: the equations and both differentials
        run `eco._half_square` instead, and linear substitutions
        `unipoly._substitute`.
        """
        if len(args) != len(self.vars):
            raise InvalidInput("wrong number of substitution arguments")
        if not self.nums:
            return args[0] * 0 if args else _ZERO
        pows: list[dict[int, object]] = [dict() for _ in args]

        def power(i, e):
            cache = pows[i]
            if e not in cache:
                cache[e] = args[i] ** e
            return cache[e]

        total = None
        one = args[0] ** 0 if args else _ONE
        for exp, k in self.nums.items():
            term = one
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            term = term * k
            total = term if total is None else total + term
        return total * Fraction(1, self.den)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"SparsePoly({format_poly(self)!r}, vars={self.vars})"


# -- text format --------------------------------------------------------------

_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")
_NUMBER_RE = re.compile(r"^\d+(/\d+)?$")
_FAMILY_RE = re.compile(r"^([tz])(\d+)$")
_TERM_SPLIT_RE = re.compile(r"([+-])")


def format_poly(p: SparsePoly) -> str:
    """Canonical text form: grevlex-descending terms, '+'/'-' separated, each nums[e]/den in lowest terms."""
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for exp in sorted(p.nums, key=grevlex_key, reverse=True):
        k = p.nums[exp]
        g = gcd(k, p.den)
        mag = str(abs(k) // g) if g == p.den else f"{abs(k) // g}/{p.den // g}"
        powers = [v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exp) if e]
        body = "*".join(powers if powers and mag == "1" else [mag, *powers])
        sign = ("+ " if k > 0 else "- ") if chunks else ("" if k > 0 else "-")
        chunks.append(sign + body)
    return " ".join(chunks)


def _infer_variables(names: set[str]) -> tuple[str, ...]:
    if not names:
        raise ParseError("cannot infer variables from a constant polynomial")
    letters = set()
    indices = []
    for nm in sorted(names):
        mt = _FAMILY_RE.match(nm)
        if not mt:
            raise ParseError(f"unknown symbol {nm!r} (expected t0..tn or z1..zn)")
        letters.add(mt.group(1))
        indices.append(int(mt.group(2)))
    if len(letters) != 1:
        raise ParseError("mixed variable families; pass an explicit variable list")
    letter = letters.pop()
    start = 0 if letter == "t" else 1
    return tuple(f"{letter}{i}" for i in range(start, max(indices) + 1))


def parse_poly(text: str, variables: Sequence[str] | None = None) -> SparsePoly:
    """Parse the textual polynomial format; inverse of format_poly.

    When `variables` is omitted the list is inferred: symbols must form a
    single family t0..tn (projective coordinates) or z1..zn (directions).
    """
    compact = text.replace("**", "^")
    compact = "".join(compact.split())
    if not compact:
        raise ParseError("empty polynomial text")
    # split into signed terms at top level (no parentheses in this format);
    # numbers are \d+(/\d+)?, so '+' and '-' only ever separate terms
    sign = 1
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        compact = compact[1:]
    parts = _TERM_SPLIT_RE.split(compact)  # body, sign, body, ..., sign, body
    signs = [sign] + [-1 if s == "-" else 1 for s in parts[1::2]]
    terms = list(zip(signs, parts[::2]))
    if not all(body for _, body in terms):
        raise ParseError(f"dangling sign in {text!r}")

    raw: list[tuple[dict[str, int], int, int]] = []
    seen: set[str] = set()
    for sgn, body in terms:
        num, den = sgn, 1
        powers: dict[str, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {body!r}")
            if _NUMBER_RE.match(factor):
                top, _, bottom = factor.partition("/")
                try:
                    num *= int(top)
                    den *= int(bottom or 1)
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"number too long: {factor[:20]!r}...") from None
                if not den:
                    raise ParseError(f"zero denominator in {factor!r}")
                continue
            mt = _FACTOR_RE.match(factor)
            if not mt:
                raise ParseError(f"bad factor {factor!r}")
            try:
                name, exp = mt.group(1), int(mt.group(2) or 1)
            except ValueError:
                raise ParseError(f"exponent too long: {factor[:20]!r}...") from None
            powers[name] = powers.get(name, 0) + exp
            seen.add(name)
        raw.append((powers, num, den))

    if variables is None:
        variables = _infer_variables(seen)
    variables = tuple(variables)
    unknown = seen - set(variables)
    if unknown:
        raise ParseError(f"unknown symbols {sorted(unknown)}; variables are {list(variables)}")

    # each term is num/den; sum them as integers over the lcm of the dens
    common = lcm(*(den for _, _, den in raw))
    acc: dict[Exponent, int] = {}
    for powers, num, den in raw:
        exp = tuple(powers.get(v, 0) for v in variables)
        acc[exp] = acc.get(exp, 0) + num * (common // den)
    return SparsePoly._from_ints(variables, acc, common)
