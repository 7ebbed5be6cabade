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
from vmrt.poly import grevlex_key
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
    `SparsePoly.evaluate`: arguments need only +, *, integer powers and
    multiplication by int and Fraction, so one loop evaluates, composes with
    polynomials or pushes jets through.  Terms take their integer numerators,
    each power of each argument is taken once, and the sum is divided by den.
    """
    if len(args) != len(p.vars):
        raise InvalidInput("wrong number of substitution arguments")
    if not p.nums:
        return args[0] * 0 if args else Fraction(0)
    pows = [{} for _ in args]

    def power(i, e):
        if e not in pows[i]:
            pows[i][e] = args[i] ** e
        return pows[i][e]

    total = None
    one = args[0] ** 0 if args else Fraction(1)
    for exp, k in p.nums.items():
        term = one
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        term = term * k
        total = term if total is None else total + term
    return total * Fraction(1, p.den)


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
