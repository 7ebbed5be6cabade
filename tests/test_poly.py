"""Multivariate polynomial kernel: arithmetic, calculus, grading, text format."""

import random
from fractions import Fraction
from math import lcm

import pytest

from vmrt import (
    InvalidInput,
    ParseError,
    SparsePoly,
    VariableMismatch,
    format_poly,
    graded_parts,
    monomials_of_degree,
    parse_poly,
)
from vmrt.unipoly import _exact_quotient

Z2 = ("z1", "z2")
T4 = ("t0", "t1", "t2", "t3", "t4")


def integral(p):
    """p times the lcm of its denominators."""
    return p * lcm(*(c.denominator for c in p.terms.values()))


def int_terms(p):
    """The terms of a polynomial with integer coefficients, as ints."""
    assert all(c.denominator == 1 for c in p.terms.values())
    return {e: int(c) for e, c in p.terms.items()}


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
    def test_fermat_split(self):
        f = parse_poly("t0^4 + t1^4", ("t0", "t1"))
        parts = graded_parts(f, "t0")
        assert parts[0] == SparsePoly.constant(("t1",), 1)
        assert all(parts[k].is_zero for k in (1, 2, 3))
        assert parts[4] == parse_poly("t1^4", ("t1",))

    def test_explicit_family_cubic_part(self):
        # m=2 family: the t0^1 stratum is b*(t1^3 + ... + tn^3)
        from vmrt import explicit_family

        hyp = explicit_family(4, 2, Fraction(5, 7), 1)
        parts = graded_parts(hyp.f, "t0")
        expected = parse_poly("t1^3 + t2^3 + t3^3 + t4^3", T4[1:]) * Fraction(5, 7)
        assert parts[3] == expected

    def test_single_mixed_term(self):
        f = parse_poly("t0^2*t1*t2", ("t0", "t1", "t2"))
        parts = graded_parts(f, "t0")
        assert parts[2] == parse_poly("t1*t2", ("t1", "t2"))
        assert all(parts[k].is_zero for k in (0, 1, 3, 4))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InvalidInput):
            graded_parts(parse_poly("t0^2 + t1", ("t0", "t1")), "t0")

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
            parts = graded_parts(f, "t0")
            # f = sum t0^(6-k) * f_k, with f_k lifted back to t0..t2
            t0 = SparsePoly.variable(f.vars, "t0")
            rebuilt = SparsePoly.zero(f.vars)
            for k, part in enumerate(parts):
                lifted = SparsePoly(f.vars, {(0,) + e: c for e, c in part.terms.items()})
                rebuilt = rebuilt + t0 ** (6 - k) * lifted
            assert rebuilt == f


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

    def test_inferred_families(self):
        assert parse_poly("t2 + t0").vars == ("t0", "t1", "t2")
        assert parse_poly("z3").vars == ("z1", "z2", "z3")
        with pytest.raises(ParseError):
            parse_poly("t1 + z1")


class TestSubstitution:
    def test_evaluate_matches_compose(self):
        rng = random.Random(9)
        for _ in range(10):
            p = rand_poly(rng, Z2)
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in Z2]
            assert p.evaluate(point) == p.compose(point)

    def test_compose_with_polynomials(self):
        p = parse_poly("z1^2 - z2", Z2)
        z1 = SparsePoly.variable(Z2, "z1")
        z2 = SparsePoly.variable(Z2, "z2")
        assert p.compose([z2, z1]) == parse_poly("z2^2 - z1", Z2)

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
            assert list(quot) == [e for e, _ in a.sorted_terms()]

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
