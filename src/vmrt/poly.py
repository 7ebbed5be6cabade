"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples (one slot per variable) to
nonzero Fraction coefficients, together with an ordered tuple of variable
names.  All arithmetic is exact and zero coefficients are never stored.
The canonical term order for printing, coefficient bases and leading-term
logic is graded reverse lexicographic (grevlex), highest term first; it is
fixed globally so every printed or serialized polynomial is deterministic.

Products are taken over the integers: `_add_products` is the integer
product loop on exponent tuples, run by `SparsePoly.__mul__` on operands
cleared to a common denominator and by the resultant on its integer
Sylvester entries.  `_sum_of_products` takes a whole sum a_1*b_1 + ...
of cleared operands in one accumulation over one denominator, with each
exponent packed into one int (Monagan and Pearce, CASC 2007; FLINT's
packed `fmpz_mpoly` exponents); `lines.eco_witness` builds its f with
it.  Packing pays only where many products merge into few terms, about
25,000 products onto 1,287 terms for a witness at (n, m) = (5, 4).  In
`__mul__` and the resultant most products have an operand of at most
three terms and about as many terms come out as products go in, so
packing and unpacking the keys would be pure overhead there.
`_cleared` is the one step that clears denominators, for every integer
kernel: the product here, the line restriction, the gcd and the
resultant in `unipoly`, the jet restriction and `QMatrix.rank`.

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
from math import lcm
from operator import add, mul
from typing import Collection, Iterable, Mapping, Sequence

from .errors import InvalidInput, ParseError, VariableMismatch

Exponent = tuple  # tuple[int, ...], one entry per variable

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grevlex_key(exp: Exponent):
    """Sort key realizing grevlex: compare total degree, then reversed-negated exponents."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _add_products(acc: dict, left: Iterable[tuple], right: Collection[tuple]) -> None:
    """Add the product of every (exponent, int) term of `left` with every one of `right` into acc.

    Products are keyed by the exponent sum; `right` is walked once per
    term of `left`, so a new exponent enters acc at its first product.
    """
    get = acc.get
    for e1, k1 in left:
        for e2, k2 in right:
            exp = tuple(map(add, e1, e2))
            acc[exp] = get(exp, 0) + k1 * k2


def _sum_of_products(variables: Sequence[str], pairs: Sequence[tuple[tuple, tuple]]) -> "SparsePoly":
    """sum a_i*b_i for operands cleared as (terms, den): (exponent, int) terms over a positive den.

    One accumulation over the lcm of the da*db.  Each exponent is packed
    into one int in base 1 + max(deg a + deg b), so no field of a product
    carries into the next and multiplying monomials is one int addition;
    keys are unpacked once per surviving term.  Terms come out in the
    order of their first product.  `SparsePoly.__mul__` and the resultant
    stay on `_add_products`: their products rarely merge (module docstring).
    """

    def degree(terms):
        return max((sum(exp) for exp, _ in terms), default=0)

    def packed(terms, scale=1):
        return [(sum(map(mul, exp, weights)), k * scale) for exp, k in terms]

    den = lcm(*(da * db for (_, da), (_, db) in pairs))
    base = 1 + max((degree(a) + degree(b) for (a, _), (b, _) in pairs), default=0)
    weights = [base**i for i in range(len(variables))]
    acc: dict[int, int] = {}
    get = acc.get
    for (a, da), (b, db) in pairs:
        right = packed(b)
        for ka, ca in packed(a, den // (da * db)):
            for kb, cb in right:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
    return SparsePoly(
        variables, {tuple(key // w % base for w in weights): Fraction(v, den) for key, v in acc.items() if v}
    )


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
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction]):
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "SparsePoly":
        c = Fraction(value)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): _ONE})

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
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return _ZERO
        if not self.is_constant:
            raise InvalidInput("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int:
        """Common total degree of all terms; raises if inhomogeneous or zero."""
        if not self.terms:
            raise InvalidInput("zero polynomial has no homogeneous degree")
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise InvalidInput(f"polynomial is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if all terms share one total degree (the zero poly passes any)."""
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs.pop() == degree

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; -1 for the zero polynomial."""
        i = self._var_index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), _ZERO)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical grevlex-descending order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

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
        acc = dict(self.terms)
        for exp, c in other.terms.items():
            acc[exp] = acc.get(exp, _ZERO) + c
        return SparsePoly(self.vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

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

        Two polynomials are multiplied as integer polynomials over a common
        denominator (FLINT's fmpq_poly representation): each operand is
        cleared to its own least denominator, the integer products are
        accumulated per exponent, and each surviving term is reduced once.
        Terms come out in the order of their first product.
        """
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return SparsePoly.zero(self.vars)
            return SparsePoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_vars(other)
        n1, l1 = _cleared(self.terms.values())
        n2, l2 = _cleared(other.terms.values())
        acc: dict[Exponent, int] = {}
        _add_products(acc, zip(self.terms, n1), list(zip(other.terms, n2)))
        den = l1 * l2
        return SparsePoly(self.vars, {e: Fraction(v, den) for e, v in acc.items() if v})

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def partial(self, name: str) -> "SparsePoly":
        """Exact formal partial derivative with respect to one variable."""
        i = self._var_index(name)
        acc: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = exp[:i] + (e - 1,) + exp[i + 1:]
            acc[new] = acc.get(new, _ZERO) + c * e
        return SparsePoly(self.vars, acc)

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate at rational arguments, one per variable."""
        return self.compose([Fraction(v) for v in values])

    def compose(self, args: Sequence):
        """Substitute one ring element per variable (Fraction, SparsePoly, Jet1, ...).

        Arguments only need +, * and integer powers, plus multiplication by
        Fraction, so the same code evaluates coefficients numerically,
        composes with polynomials (the coordinate change of
        `count_vmrt_points`, the tail partials in `dmu_formula`), or pushes
        first-order jets through.  Each power of each argument is taken
        once and every term costs one product per variable it contains, so
        substituting into a polynomial with many terms (such as the
        certificate polynomials A_k) is dear; the equations and the jet
        differential avoid it by running the half-square recursion of
        `eco` on their inputs instead.
        """
        if len(args) != len(self.vars):
            raise InvalidInput("wrong number of substitution arguments")
        if not self.terms:
            return args[0] * 0 if args else _ZERO
        pows: list[dict[int, object]] = [dict() for _ in args]

        def power(i, e):
            cache = pows[i]
            if e not in cache:
                cache[e] = args[i] ** e
            return cache[e]

        total = None
        one = args[0] ** 0 if args else _ONE
        for exp, c in self.terms.items():
            term = one
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            term = term * c
            total = term if total is None else total + term
        return total

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
    """Canonical text form: grevlex-descending terms, '+'/'-' separated."""
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for exp, c in p.sorted_terms():
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exp) if e
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
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

    raw: list[tuple[int, dict[str, int], Fraction]] = []
    seen: set[str] = set()
    for sgn, body in terms:
        coeff = _ONE
        powers: dict[str, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {body!r}")
            if _NUMBER_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {factor!r}") from None
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"number too long: {factor[:20]!r}...") from None
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
        raw.append((sgn, powers, coeff))

    if variables is None:
        variables = _infer_variables(seen)
    variables = tuple(variables)
    unknown = seen - set(variables)
    if unknown:
        raise ParseError(f"unknown symbols {sorted(unknown)}; variables are {list(variables)}")

    items = []
    for sgn, powers, coeff in raw:
        exp = tuple(powers.get(v, 0) for v in variables)
        items.append((exp, sgn * coeff))
    return SparsePoly.from_terms(variables, items)
