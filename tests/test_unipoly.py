"""Univariate tools: line restriction, Yun factorization, squares, resultants."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from vmrt import (
    Hypersurface,
    InvalidInput,
    SparsePoly,
    UniPoly,
    build_converse,
    is_eco_line,
    is_perfect_square,
    parse_poly,
    resultant,
    restrict_to_line,
    squarefree_factorization,
)
from vmrt import unipoly
from vmrt.sampling import rand_homogeneous, rand_point
from vmrt.unipoly import _quotient, _rational_sqrt, poly_gcd


def U(*coeffs):
    return UniPoly(coeffs)


class TestRestriction:
    def test_binomial_expansion_single_variable(self):
        f = parse_poly("t1^2", ("t0", "t1"))
        for y1 in (Fraction(3, 2), Fraction(-1), Fraction(0)):
            rest = restrict_to_line(f, [y1])
            assert rest[0] == SparsePoly.constant(("z1",), y1 * y1)
            assert rest[1] == parse_poly("z1", ("z1",)) * (2 * y1)
            assert rest[2] == parse_poly("z1^2", ("z1",))

    def test_numeric_direction_matches_symbolic(self):
        rng = random.Random(2)
        tvars = ("t0", "t1", "t2", "t3")
        f = rand_homogeneous(rng, tvars, 4)
        y = rand_point(rng, 3)
        z = rand_point(rng, 3)
        sym = restrict_to_line(f, y)
        num = restrict_to_line(f, y, z)
        for k in range(5):
            assert sym[k].evaluate(z) == num[k]

    def test_converse_restriction_at_origin(self):
        b3 = parse_poly("z1^3 - z2^3 + z1*z2*z3", ("z1", "z2", "z3"))
        b4 = parse_poly("z1^4 + 2*z3^4", ("z1", "z2", "z3"))
        hyp = build_converse([b3, b4])
        rest = restrict_to_line(hyp.f, [0, 0, 0])
        assert rest[0] == SparsePoly.constant(("z1", "z2", "z3"), 1)
        assert rest[1].is_zero and rest[2].is_zero
        assert rest[3] == b3
        assert rest[4] == b4

    def test_pure_t0_power_restricts_to_one(self):
        f = parse_poly("t0^4", ("t0", "t1", "t2"))
        rest = restrict_to_line(f, [Fraction(1, 3), Fraction(-2)])
        assert rest[0] == SparsePoly.constant(("z1", "z2"), 1)
        assert all(c.is_zero for c in rest[1:])
        # all 2m+1 slots stay addressable, vanishing ones included
        assert len(rest) == 5

    def test_dimension_mismatch(self):
        f = parse_poly("t0^2", ("t0", "t1"))
        with pytest.raises(InvalidInput):
            restrict_to_line(f, [1, 2])

    def test_coefficients_homogeneous_in_direction(self):
        rng = random.Random(8)
        tvars = ("t0", "t1", "t2", "t3")
        for _ in range(5):
            f = rand_homogeneous(rng, tvars, 4)
            y = rand_point(rng, 3)
            rest = restrict_to_line(f, y)
            for k in range(5):
                assert rest[k].is_homogeneous(k)

    def test_top_coefficient_is_infinity_value(self):
        # the lam^2m coefficient equals f(0, z): independent of the base point
        rng = random.Random(21)
        tvars = ("t0", "t1", "t2", "t3")
        f = rand_homogeneous(rng, tvars, 4)
        zvars = ("z1", "z2", "z3")
        at_infinity = SparsePoly(
            zvars,
            {exp[1:]: c for exp, c in f.terms.items() if exp[0] == 0},
        )
        for _ in range(4):
            y = rand_point(rng, 3)
            assert restrict_to_line(f, y)[4] == at_infinity


class TestSquarefree:
    def test_two_factor_example(self):
        p = U(1, 1) * U(1, 1) * U(2, 1)  # (lam+1)^2 (lam+2)
        content, factors = squarefree_factorization(p)
        assert content == 1
        assert sorted(factors, key=lambda t: t[1]) == [(U(2, 1), 1), (U(1, 1), 2)]

    def test_squarefree_quartic(self):
        p = U(1, 0, 0, 0, 1)  # 1 + lam^4
        # independent oracle: Euclid on (p, p') has constant gcd
        assert poly_gcd(p, p.derivative()).degree() == 0
        assert squarefree_factorization(p) == (Fraction(1), [(p, 1)])

    def test_constant(self):
        assert squarefree_factorization(U(5)) == (Fraction(5), [])

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            squarefree_factorization(U())

    def test_reconstruction(self):
        rng = random.Random(17)
        for _ in range(25):
            p = U(Fraction(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3)):
                factor = U(rng.randint(-4, 4), 1)
                p = p * factor ** rng.randint(1, 3)
            content, factors = squarefree_factorization(p)
            rebuilt = U(content)
            for factor, mult in factors:
                rebuilt = rebuilt * factor ** mult
            assert rebuilt == p

    def test_wrong_quotient_raises_instead_of_looping(self, monkeypatch):
        # a "quotient" that returns its dividend never shrinks w, so an
        # unbounded loop would spin; the multiplicity bound stops it
        monkeypatch.setattr(unipoly, "_quotient", lambda a, b: a)
        with pytest.raises(ArithmeticError):
            squarefree_factorization(U(1, 1) * U(1, 1) * U(2, 1))
        with pytest.raises(ArithmeticError):
            is_perfect_square(U(1, 6, 13, 12, 4))
        # restricted to the t1 axis, f is (1 + lam^2)^2, so Yun enters its loop
        hyp = Hypersurface(parse_poly("t0^4 + 2*t0^2*t1^2 + t1^4 + t2^4 + t3^4"))
        with pytest.raises(ArithmeticError):
            is_eco_line(hyp, [0, 0, 0], [1, 0, 0])


class TestPerfectSquare:
    def test_worked_example(self):
        ok, root = is_perfect_square(U(1, 6, 13, 12, 4))
        assert ok and root == U(1, 3, 2)

    def test_squarefree_is_not_square(self):
        assert is_perfect_square(U(1, 0, 0, 0, 1)) == (False, None)

    def test_constant_square(self):
        ok, root = is_perfect_square(U(9))
        assert ok and root == U(3)

    def test_non_square_content(self):
        assert is_perfect_square(U(0, 0, 2))[0] is False  # 2*lam^2
        assert is_perfect_square(U(-9))[0] is False

    def test_root_sign_normalization(self):
        ok, root = is_perfect_square(U(4, -4, 1))  # (2 - lam)^2
        assert ok and root == U(2, -1)
        ok, root = is_perfect_square(U(0, 0, 1))  # lam^2: root has positive lead
        assert ok and root == U(0, 1)

    def test_random_squares_and_perturbations(self):
        rng = random.Random(23)
        for _ in range(500):
            deg = rng.randint(0, 8)
            q = U(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)))
            if q.is_zero:
                continue
            ok, root = is_perfect_square(q * q)
            assert ok and (root == q or root == -q)
            j = rng.randint(0, 2 * max(q.degree(), 1))
            bumped = (q * q) + U(*([0] * j + [1]))
            if bumped.is_zero:
                continue
            content, factors = squarefree_factorization(bumped)
            genuinely_square = (
                all(m % 2 == 0 for _, m in factors) and _rational_sqrt(content) is not None
            )
            assert is_perfect_square(bumped)[0] is genuinely_square


class TestResultant:
    def test_linear_sign_convention(self):
        vars3 = ("lam", "a", "b")
        p = parse_poly("lam - a", vars3)
        q = parse_poly("lam - b", vars3)
        assert resultant(p, q, "lam") == parse_poly("b - a", vars3)

    def test_substitution_case(self):
        zv = ("z1", "z2", "z3")
        p = parse_poly("z3^2 - z1*z2", zv)
        q = parse_poly("z3 - z1", zv)
        assert resultant(p, q, "z3") == parse_poly("z1^2 - z1*z2", zv)

    def test_vanishes_iff_common_root(self):
        # a shared factor must involve the eliminated variable to force a
        # common root over the coefficient field
        zv = ("z1", "z2", "z3")
        rng = random.Random(29)
        hits = 0
        while hits < 10:
            common = rand_homogeneous(rng, zv, 1)
            if common.degree_in("z3") < 1:
                continue
            p = common * rand_homogeneous(rng, zv, 1)
            q = common * rand_homogeneous(rng, zv, 2)
            assert resultant(p, q, "z3").is_zero
            hits += 1

    def test_nonzero_without_common_factor(self):
        zv = ("z1", "z2", "z3")
        p = parse_poly("z3^2 - z1*z2", zv)
        q = parse_poly("z3^2 + z1^2 + z2^2", zv)
        assert not resultant(p, q, "z3").is_zero

    def test_generic_degree_is_product(self):
        zv = ("z1", "z2", "z3")
        rng = random.Random(31)
        p = rand_homogeneous(rng, zv, 2)
        q = rand_homogeneous(rng, zv, 3)
        res = resultant(p, q, "z3")
        assert res.homogeneous_degree() == 6

    def test_zero_operand_rejected(self):
        zv = ("z1", "z2")
        with pytest.raises(InvalidInput):
            resultant(SparsePoly.zero(zv), parse_poly("z1", zv), "z1")
        with pytest.raises(InvalidInput):
            resultant(parse_poly("z2", zv), parse_poly("z2^2", zv), "z1")


def test_unipoly_degree_strips_trailing_zeros():
    p = UniPoly([1, 2, 0, 0])
    assert len(p.coeffs) == 2 and p.degree() == 1
    assert p.coeff(7) == 0


def assert_canonical(p):
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


class TestLayout:
    def test_equal_inputs_give_one_form(self):
        a, b = UniPoly([Fraction(1, 2), 1]), UniPoly([Fraction(2, 4), Fraction(3, 3)])
        assert a == b and hash(a) == hash(b)
        assert (a.nums, a.den) == ((1, 2), 2)

    def test_canonical_after_every_operation(self):
        p = U(Fraction(3, 4), -6, Fraction(-9, 2))
        for q in (p, p * Fraction(-2, 3), -p, p.monic(), p.derivative(), p + p, p - U(1), p * p, p**3):
            assert_canonical(q)
        # the leading coefficient is negative: monic divides by it, sign included
        assert p.monic().coeffs == (Fraction(-1, 6), Fraction(4, 3), Fraction(1))
        assert (p.monic().nums, p.monic().den) == ((-1, 8, 6), 6)

    def test_coeffs_is_a_fraction_view(self):
        p = U(Fraction(3, 4), -6, Fraction(-9, 2), 0)
        assert type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)
        assert p.coeffs == (Fraction(3, 4), Fraction(-6), Fraction(-9, 2))

    def test_zero(self):
        for z in (UniPoly([0, 0]), U(Fraction(1, 2), 1) - U(Fraction(1, 2), 1), U(Fraction(1, 3)) * 0):
            assert z.is_zero and z.nums == () and z.den == 1 and z.degree() == -1
        with pytest.raises(InvalidInput):
            UniPoly([0, 0]).monic()

    def test_quotient_is_exact(self):
        b, c = U(Fraction(1, 2), 1), U(Fraction(2, 3), -5)
        assert _quotient(b * c, b) == c
        with pytest.raises(ArithmeticError):
            _quotient(U(1, 0, 1), U(1, 1))


@pytest.mark.parametrize(
    "op, other",
    [
        (operator.add, 1),
        (operator.add, Fraction(1, 2)),
        (operator.sub, 1),
        (operator.sub, Fraction(1, 2)),
        (operator.mul, "x"),
        (operator.mul, 1.5),
        (operator.mul, SparsePoly.constant(("z1",), 2)),
    ],
)
def test_foreign_operands_raise_type_error(op, other):
    p = UniPoly([1, 2])
    with pytest.raises(TypeError):
        op(p, other)
    with pytest.raises(TypeError):
        op(other, p)


def test_scalar_products():
    p = UniPoly([1, 2])
    assert p * 2 == 2 * p == p + p
    assert p * Fraction(-1, 2) == Fraction(-1, 2) * p == U(Fraction(-1, 2), -1)
