"""Multivariate polynomial kernel: arithmetic, calculus, grading, text format."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

import vmrt

from vmrt import (
    Hypersurface,
    InvalidInput,
    ParseError,
    SparsePoly,
    VariableMismatch,
    format_poly,
    monomials_of_degree,
    parse_poly,
)
from vmrt import poly, unipoly
from vmrt.lines import _from_graded_parts
from vmrt.poly import _FACTOR_RE, _NUMBER_RE, _TERM_SPLIT_RE, _infer_variables, grevlex_key
from vmrt.unipoly import _exact_quotient

Z2 = ("z1", "z2")
Z4 = ("z1", "z2", "z3", "z4")
T4 = ("t0", "t1", "t2", "t3", "t4")


def integral(p):
    """p times the lcm of its denominators."""
    return p * lcm(*(c.denominator for c in p.terms.values()))


def int_terms(p):
    """The terms of a polynomial with integer coefficients, as ints."""
    assert all(c.denominator == 1 for c in p.terms.values())
    return {e: int(c) for e, c in p.terms.items()}


def reference_compose(p, args):
    """p with one ring element substituted per variable (Fraction, SparsePoly, Jet1, ...).

    The generic substitution the library used before its integer
    `SparsePoly.evaluate`: arguments need only + and *, with each other and
    with int and Fraction, so one loop evaluates, composes with polynomials
    or pushes jets through.  Terms take their integer numerators, each power
    of each argument is built once by repeated multiplication, and the sum
    is divided by den.
    """
    if len(args) != len(p.vars):
        raise InvalidInput("wrong number of substitution arguments")
    if not p.nums:
        return args[0] * 0 if args else Fraction(0)
    pows = [[None, x] for x in args]  # pows[i][e] = args[i]^e

    def power(i, e):
        while len(pows[i]) <= e:
            pows[i].append(pows[i][-1] * args[i])
        return pows[i][e]

    total = None
    one = args[0] * 0 + 1 if args else Fraction(1)
    for exp, k in p.nums.items():
        term = one
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        term = term * k
        total = term if total is None else total + term
    return total * Fraction(1, p.den)


def reference_parse_poly(text, variables=None):
    """The parser the library used before its one-pass `parse_poly`, kept as the tests' reference.

    Each term collects a dict of powers by name, every factor is matched
    again wherever it occurs, and the exponent tuple is read from that dict
    by variable name; the terms are summed as integers over the lcm of
    their denominators.
    """
    compact = text.replace("**", "^")
    compact = "".join(compact.split())
    if not compact:
        raise ParseError("empty polynomial text")
    sign = 1
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        compact = compact[1:]
    parts = _TERM_SPLIT_RE.split(compact)  # body, sign, body, ..., sign, body
    signs = [sign] + [-1 if s == "-" else 1 for s in parts[1::2]]
    terms = list(zip(signs, parts[::2]))
    if not all(body for _, body in terms):
        raise ParseError(f"dangling sign in {text!r}")

    raw = []
    seen = set()
    for sgn, body in terms:
        num, den = sgn, 1
        powers = {}
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

    common = lcm(*(den for _, _, den in raw))
    acc = {}
    for powers, num, den in raw:
        exp = tuple(powers.get(v, 0) for v in variables)
        acc[exp] = acc.get(exp, 0) + num * (common // den)
    return SparsePoly._from_ints(variables, acc, common)


def rand_poly(rng, variables, max_degree=4, terms=6):
    items = []
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_degree) for _ in variables)
        items.append((exp, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return SparsePoly.from_terms(variables, items)


class TestArith:
    def test_difference_of_squares(self):
        z1 = SparsePoly.variable(Z2, "z1")
        z2 = SparsePoly.variable(Z2, "z2")
        assert (z1 + z2) * (z1 - z2) == z1 * z1 - z2 * z2

    def test_mul_by_zero_annihilates(self):
        p = parse_poly("z1^2 + 3*z2", Z2)
        assert (p * SparsePoly.zero(Z2)).is_zero

    def test_monomial_product(self):
        t1sq = parse_poly("t1^2", ("t1",))
        assert t1sq * t1sq == parse_poly("t1^4", ("t1",))

    def test_variable_mismatch_rejected(self):
        p = SparsePoly.variable(Z2, "z1")
        q = SparsePoly.variable(("z1", "z2", "z3"), "z1")
        with pytest.raises(VariableMismatch):
            p + q

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b, c = (rand_poly(rng, Z2) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(0), Fraction(5), Fraction(-2, 3)])
    def test_constant_polynomials_hash_as_their_scalar_values(self, value):
        for p in (SparsePoly.constant(("z1",), value), SparsePoly.constant(Z4, value)):
            assert p == value and value == p
            assert hash(p) == hash(value)
            assert len({p, value}) == 1
        assert SparsePoly.zero(Z2) == 0 and hash(SparsePoly.zero(Z2)) == hash(0)
        # a term of positive degree keeps the polynomial apart from the scalar
        p = SparsePoly.constant(Z2, value) + SparsePoly.variable(Z2, "z1")
        assert p != value and len({p, value}) == 2


class TestPartial:
    def test_power_rule(self):
        p = parse_poly("t1^3 + t2^3", ("t1", "t2"))
        assert p.partial("t1") == parse_poly("3*t1^2", ("t1", "t2"))

    def test_constant_kills(self):
        assert SparsePoly.constant(Z2, 7).partial("z1").is_zero

    def test_product_monomial(self):
        p = parse_poly("t1*t2*t3*t4", T4[1:])
        assert p.partial("t3") == parse_poly("t1*t2*t4", T4[1:])

    def test_unknown_variable(self):
        with pytest.raises(VariableMismatch):
            SparsePoly.constant(Z2, 1).partial("t9")


class TestGradedParts:
    """The split f = sum t0^(d-k) f_k of `Hypersurface.graded_parts`, parts in z1..zn."""

    def test_fermat_split(self):
        parts = Hypersurface(parse_poly("t0^4 + t1^4", ("t0", "t1"))).graded_parts()
        assert parts[0] == SparsePoly.constant(("z1",), 1)
        assert all(parts[k].is_zero for k in (1, 2, 3))
        assert parts[4] == parse_poly("z1^4", ("z1",))

    def test_explicit_family_cubic_part(self):
        # m=2 family: the t0^1 stratum is b*(t1^3 + ... + tn^3)
        from vmrt import explicit_family

        hyp = explicit_family(4, 2, Fraction(5, 7), 1)
        parts = hyp.graded_parts()
        expected = parse_poly("z1^3 + z2^3 + z3^3 + z4^3", Z4) * Fraction(5, 7)
        assert parts[3] == expected

    def test_single_mixed_term(self):
        parts = Hypersurface(parse_poly("t0^2*t1*t2", ("t0", "t1", "t2"))).graded_parts()
        assert parts[2] == parse_poly("z1*z2", Z2)
        assert all(parts[k].is_zero for k in (0, 1, 3, 4))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InvalidInput):
            Hypersurface(parse_poly("t0^2 + t1", ("t0", "t1"))).graded_parts()

    def test_reassembly_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            items = []
            for exp in monomials_of_degree(3, 6):
                c = rng.randint(-5, 5)
                if c:
                    items.append((exp, Fraction(c)))
            if not items:
                continue
            f = SparsePoly.from_terms(("t0", "t1", "t2"), items)
            hyp = Hypersurface(f)
            parts = hyp.graded_parts()
            assert [p.vars for p in parts] == [Z2] * 7
            assert all(p.is_homogeneous(k) for k, p in enumerate(parts))
            # f = sum t0^(6-k) * f_k, with f_k lifted back to t0..t2
            t0 = SparsePoly.variable(f.vars, "t0")
            rebuilt = SparsePoly.zero(f.vars)
            for k, part in enumerate(parts):
                lifted = SparsePoly(f.vars, {(0,) + e: c for e, c in part.terms.items()})
                rebuilt = rebuilt + t0 ** (6 - k) * lifted
            assert rebuilt == f
            assert _from_graded_parts(parts) == hyp


class TestTextFormat:
    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(40):
            p = rand_poly(rng, ("t0", "t1", "t2"))
            assert parse_poly(format_poly(p), p.vars) == p

    def test_whitespace_insensitive(self):
        a = parse_poly("t0^4+2*t1^2*t2^2-t3^4")
        b = parse_poly("  t0^4 + 2 * t1^2 * t2 ^2 - t3^4 ")
        assert a == b

    def test_double_star_alias(self):
        assert parse_poly("t1**3", ("t0", "t1")) == parse_poly("t1^3", ("t0", "t1"))

    def test_rational_coefficients(self):
        p = parse_poly("1/2*t1 - 3/4", ("t1",))
        assert p.coefficient((1,)) == Fraction(1, 2)
        assert p.coefficient((0,)) == Fraction(-3, 4)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("t0 + q1")
        with pytest.raises(ParseError):
            parse_poly("z1 + z5", ("z1", "z2"))

    def test_empty_and_garbage_rejected(self):
        for text in ("", "   ", "t1 +", "2*^3", "t1^^2"):
            with pytest.raises(ParseError):
                parse_poly(text, ("t1",))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("t0^4 + 1/0*t1^4 + t2^4 + t3^4")

    def test_overlong_numbers_rejected(self):
        # more digits than int() converts by default
        with pytest.raises(ParseError, match="exponent too long"):
            parse_poly("t0^" + "9" * 5000 + " + t1^4")
        with pytest.raises(ParseError, match="number too long"):
            parse_poly("9" * 5000 + "*t0^4 + t1^4")
        with pytest.raises(ParseError, match="number too long"):
            parse_poly("1/" + "9" * 5000 + "*t0^4 + t1^4")

    def test_zero_denominator_in_a_later_factor_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("2*1/0*t0^2")

    def test_inferred_families(self):
        assert parse_poly("t2 + t0").vars == ("t0", "t1", "t2")
        assert parse_poly("z3").vars == ("z1", "z2", "z3")
        with pytest.raises(ParseError):
            parse_poly("t1 + z1")

    def test_unknown_symbol_message_ignores_the_hash_seed(self):
        # the inferred family names the first unknown symbol in sorted order,
        # not in the per-process iteration order of a set of strings
        code = (
            "from vmrt import ParseError, parse_poly\n"
            "try:\n    parse_poly('tt3+t')\n"
            "except ParseError as exc:\n    print(exc)\n"
        )
        src = str(Path(vmrt.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        messages = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "3")
        }
        assert messages == {"unknown symbol 't' (expected t0..tn or z1..zn)\n"}


def rand_text(rng):
    """A seeded polynomial text and variable list (None: inferred) in the shapes users and format_poly write.

    Factors come in any order, with several numbers per term, repeated
    variables, '^' or '**' with stray blanks, denominators up to 10^30,
    terms that cancel, and explicit lists in any order with unused names.
    """
    letter = rng.choice("tz")
    start = 0 if letter == "t" else 1
    names = [f"{letter}{i}" for i in range(start, start + rng.randint(1, 4))]

    def number():
        top = rng.choice([rng.randint(0, 9), rng.randint(1, 10**6), rng.randint(10**29, 10**30)])
        if rng.random() < 0.5:
            return str(top)
        return f"{top}/{rng.choice([rng.randint(1, 9), rng.randint(10**6, 10**7), rng.randint(10**29, 10**30)])}"

    def variable():
        name, e = rng.choice(names), rng.randint(0, 3)
        return name if e == 1 and rng.random() < 0.5 else f"{name}{rng.choice(['^', '**', ' ^ '])}{e}"

    bodies = []
    for _ in range(rng.randint(1, 6)):
        factors = [number() for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))]
        factors += [variable() for _ in range(rng.randint(0, 4))]
        rng.shuffle(factors)
        bodies.append(rng.choice(["*", " * ", "*  "]).join(factors or [number()]))
    signs = [rng.choice("+-") for _ in bodies]
    if rng.random() < 0.3:  # a term and its negative
        i = rng.randrange(len(bodies))
        bodies.append(bodies[i])
        signs.append("-" if signs[i] == "+" else "+")
    if not any(_FACTOR_RE.match(f.replace(" ", "")) for b in bodies for f in b.replace("**", "^").split("*")):
        bodies.append(names[0])
        signs.append("+")
    lead = rng.choice(["", "+", "-", " -", "+ "]) if signs[0] == "+" else "-"
    text = lead + bodies[0] + "".join(f" {s} {b}" for s, b in zip(signs[1:], bodies[1:]))
    if rng.random() < 0.5:
        return text, None
    extra = [f"{letter}{i}" for i in range(start + len(names), start + len(names) + rng.randint(0, 2))]
    variables = names + extra
    rng.shuffle(variables)
    return text, tuple(variables)


def parsed(parse, text, variables=None):
    """What a parser makes of a text: its vars, den and (exponent, numerator) pairs in order, or its error."""
    try:
        p = parse(text, variables)
    except ParseError as exc:
        return type(exc), str(exc)
    return p.vars, p.den, list(p.nums.items())


class TestParserAgainstReference:
    def test_matches_the_reference_on_seeded_texts(self):
        rng = random.Random(29)
        cases = [rand_text(rng) for _ in range(400)]
        for text, variables in cases:
            assert parsed(parse_poly, text, variables) == parsed(reference_parse_poly, text, variables), text
        # the texts parse, some to zero, some with denominators near 10^30
        results = [parse_poly(text, variables) for text, variables in cases]
        assert sum(p.is_zero for p in results) >= 10
        assert sum(p.den.bit_length() > 90 for p in results) >= 50

    @pytest.mark.parametrize(
        "text,variables",
        [
            ("   ", None),  # empty text
            ("t0 +", None),  # dangling sign
            ("-", None),
            ("t0 - + t1", None),
            ("2*t0*", None),  # empty factor
            ("t0 * * t1", None),
            ("1/0*t0", None),  # zero denominator
            ("2*3/0*t0", None),
            ("9" * 5000 + "*t0", None),  # number too long
            ("t0*1/" + "9" * 5000, None),
            ("t0^" + "9" * 5000, None),  # exponent too long
            ("t0^^2", None),  # bad factor
            ("2*^3", ("t1",)),
            ("t0*t0 + t0^x", None),  # bad factor after table hits
            ("3/4", None),  # constant: no family to infer
            ("t0 + q1", None),  # unknown symbol while inferring
            ("tt3 + t", None),
            ("t1 + z1", None),  # mixed families
            ("z1 + z5", ("z1", "z2")),  # unknown symbols of an explicit list
            ("t0*q1 + t0*1/0", None),  # which error wins: the loop's before the family's
            ("t0^^2 + 1/0*t1", None),
            ("1/0*t0 + t0 +", None),
            ("q1*t0 + t0*t0^x", ("t0",)),
        ],
    )
    def test_errors_match_the_reference(self, text, variables):
        error = parsed(reference_parse_poly, text, variables)
        assert error[0] is ParseError
        assert parsed(parse_poly, text, variables) == error

    def test_repeated_variable_factors_add_their_exponents(self):
        assert parse_poly("t0*t0").nums == {(2,): 1}
        assert parse_poly("t0*t1*t0^2 + t1*t1", ("t0", "t1")).nums == {(3, 1): 1, (0, 2): 1}

    def test_leading_sign_applies_to_the_first_term(self):
        assert parse_poly("-t0 + t1").nums == {(1, 0): -1, (0, 1): 1}
        assert parse_poly("- 2*t0 - t1").nums == {(1, 0): -2, (0, 1): -1}

    def test_a_factor_repeated_across_terms_counts_in_each(self):
        p = parse_poly("t0*t1 + t0*t2 - t2^2*t0", ("t2", "t1", "t0"))
        assert p.nums == {(0, 1, 1): 1, (1, 0, 1): 1, (2, 0, 1): -1}


class TestSubstitution:
    def test_evaluate_matches_compose(self):
        rng = random.Random(9)
        for _ in range(10):
            p = rand_poly(rng, Z2)
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in Z2]
            plain = sum(c * prod(v**e for v, e in zip(point, exp)) for exp, c in p.terms.items())
            assert p.evaluate(point) == plain == reference_compose(p, point)
        with pytest.raises(InvalidInput):
            p.evaluate(point[:1])
        assert SparsePoly.constant((), 5).evaluate(()) == 5

    def test_evaluate_matches_reference_on_seeded_polynomials(self):
        # inhomogeneous, zero, constant and zero-variable polynomials at int, Fraction,
        # str and float values with denominators up to about 10^30
        rng = random.Random(27)
        for trial in range(300):
            nv = trial % 5
            variables = tuple(f"t{i}" for i in range(nv))
            terms = [
                (tuple(rng.randint(0, 4) for _ in variables), Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)))
                for _ in range(rng.randint(0, 7))
            ]
            p = SparsePoly.from_terms(variables, terms)
            values = [
                rng.choice([
                    rng.randint(-10**12, 10**12),
                    Fraction(rng.randint(-10**30, 10**30), rng.randint(10**29, 10**30)),
                    f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}",
                    rng.uniform(-3, 3),
                ])
                for _ in variables
            ]
            value = p.evaluate(values)
            assert type(value) is Fraction
            assert value == reference_compose(p, [Fraction(v) for v in values])
        assert SparsePoly.zero(Z2).evaluate([3, 4]) == 0 and type(SparsePoly.zero(Z2).evaluate([3, 4])) is Fraction
        assert SparsePoly.zero(()).evaluate([]) == 0
        assert SparsePoly.constant((), Fraction(-7, 3)).evaluate(()) == Fraction(-7, 3)
        assert SparsePoly.constant(Z2, 5).evaluate([Fraction(1, 10**30), 2]) == 5
        assert parse_poly("z1^3 + z2 - 1/2", Z2).evaluate(["1/2", 0.5]) == Fraction(1, 8)

    def test_evaluate_converts_every_value_before_checking_the_count(self):
        p = parse_poly("z1^2 - z2", Z2)
        for values in ([1], [1, 2, 3], [], ()):
            with pytest.raises(InvalidInput, match="wrong number of substitution arguments"):
                p.evaluate(values)
        with pytest.raises(ValueError):
            p.evaluate(["x"])
        with pytest.raises(TypeError):
            p.evaluate([None, 1, 2])
        with pytest.raises(ZeroDivisionError):
            SparsePoly.zero(Z2).evaluate(["1/0"])

    def test_evaluate_runs_neither_the_substitution_loop_nor_the_product_loop(self, monkeypatch):
        # test_kernels.interpolated_restriction rests on evaluate as a reference that
        # shares no code with the Kronecker line restriction
        def refuse(*args):
            raise AssertionError("evaluate used a restriction or product kernel")

        monkeypatch.setattr(unipoly, "_substitute", refuse)
        monkeypatch.setattr(poly, "_products", refuse)
        p = parse_poly("t0^4 - 3*t1^2*t2^2 + 1/5*t3*t0^3", ("t0", "t1", "t2", "t3"))
        assert p.evaluate([1, 2, Fraction(1, 3), -4]) == 1 - 3 * 4 * Fraction(1, 9) + Fraction(-4, 5)

    def test_compose_with_polynomials(self):
        p = parse_poly("z1^2 - z2", Z2)
        z1 = SparsePoly.variable(Z2, "z1")
        z2 = SparsePoly.variable(Z2, "z2")
        assert reference_compose(p, [z2, z1]) == parse_poly("z2^2 - z1", Z2)

    def test_exact_division(self):
        # the resultant's integer exact division gives back each factor of a product
        rng = random.Random(13)
        for _ in range(15):
            a = rand_poly(rng, Z2, max_degree=3, terms=4)
            b = rand_poly(rng, Z2, max_degree=3, terms=4)
            if a.is_zero or b.is_zero:
                continue
            a, b = integral(a), integral(b)
            quot = _exact_quotient(int_terms(a * b), int_terms(b))
            assert quot == int_terms(a)
            assert list(quot) == sorted(a.nums, key=grevlex_key, reverse=True)

    def test_inexact_division_raises(self):
        z1 = int_terms(parse_poly("z1", Z2))
        with pytest.raises(ArithmeticError):
            _exact_quotient(int_terms(parse_poly("z1^2 + z2", Z2)), z1)
        with pytest.raises(ArithmeticError):
            _exact_quotient(int_terms(parse_poly("3*z1^2", Z2)), int_terms(parse_poly("2*z1", Z2)))
        with pytest.raises(ArithmeticError):
            _exact_quotient(z1, {})


def test_monomials_of_degree_count_and_order():
    from math import comb

    monos = monomials_of_degree(3, 4)
    assert len(monos) == comb(3 + 4 - 1, 4)
    assert len(set(monos)) == len(monos)
    # graded reverse lexicographic, descending: first pure power of the first
    # variable, last pure power of the last
    assert monos[0] == (4, 0, 0)
    assert monos[-1] == (0, 0, 4)
