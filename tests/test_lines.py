"""Even-contact lines, defining equations, converse construction, point count.

The point count's certificate mod 2^61 - 1 is checked against the exact
route it replaces, made to run by a certificate that always declines.  Its
retry loop is driven by a drawn matrix that hides a leading coefficient.
"""

import random
from fractions import Fraction

import pytest

from vmrt import (
    BasePointOnBranch,
    Hypersurface,
    InvalidInput,
    ResultantDegenerate,
    SparsePoly,
    UniPoly,
    build_converse,
    count_vmrt_points,
    eco_witness,
    format_poly,
    is_eco_line,
    line_certificate,
    parse_poly,
    recenter,
    resultant,
    squarefree_factorization,
    vmrt_equations,
)
from vmrt import eco, lines, selftest
from vmrt.cli import main
from vmrt.sampling import (
    rand_direction,
    rand_homogeneous,
    rand_point,
    rand_point_off_branch,
)
from vmrt.selftest import _rng

ZV3 = ("z1", "z2", "z3")


def zvars(n):
    return tuple(f"z{i}" for i in range(1, n + 1))


def tvars(n):
    return tuple(f"t{i}" for i in range(n + 1))


class TestHypersurface:
    def test_infers_dimensions(self):
        hyp = Hypersurface(parse_poly("t0^4 + t1^4 + t2^4 + t3^4"))
        assert (hyp.n, hyp.m) == (3, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            Hypersurface(SparsePoly.zero(tvars(3)))
        with pytest.raises(InvalidInput):
            Hypersurface(parse_poly("t0^3 + t1^3", ("t0", "t1")))  # odd degree
        with pytest.raises(InvalidInput):
            Hypersurface(parse_poly("t0^2 + t1", ("t0", "t1")))  # inhomogeneous
        with pytest.raises(InvalidInput):
            Hypersurface(parse_poly("z1^2 + z2^2", ("z1", "z2")))  # wrong family


class TestVmrtEquations:
    def test_converse_equations_at_origin(self):
        rng = random.Random(61)
        b3 = rand_homogeneous(rng, ZV3, 3)
        b4 = rand_homogeneous(rng, ZV3, 4)
        hyp = build_converse([b3, b4])
        system = vmrt_equations(hyp, [0, 0, 0])
        assert system.equations == (b3, b4)

    def test_global_square_gives_zero_system(self):
        # f = (t0^2 + ... + t3^2)^2 restricts to a square on every line
        q = parse_poly("t0^2 + t1^2 + t2^2 + t3^2")
        hyp = Hypersurface(q * q)
        rng = random.Random(67)
        for _ in range(3):
            y = rand_point_off_branch(rng, hyp)
            system = vmrt_equations(hyp, y)
            assert all(eq.is_zero for eq in system.equations)

    def test_point_on_branch_rejected(self):
        hyp = Hypersurface(parse_poly("t0^4 - t1^4", ("t0", "t1", "t2", "t3")))
        with pytest.raises(BasePointOnBranch):
            vmrt_equations(hyp, [1, 0, 0])

    def test_wrong_point_length(self):
        hyp = Hypersurface(parse_poly("t0^4 + t1^4 + t2^4 + t3^4"))
        with pytest.raises(InvalidInput):
            vmrt_equations(hyp, [1, 2])

    def test_equations_homogeneous_of_expected_degree(self):
        rng = random.Random(71)
        for n, m in ((3, 2), (4, 3)):
            f = rand_homogeneous(rng, tvars(n), 2 * m)
            hyp = Hypersurface(f)
            y = rand_point_off_branch(rng, hyp)
            system = vmrt_equations(hyp, y)
            assert len(system.equations) == m
            for k, eq in zip(range(m + 1, 2 * m + 1), system.equations):
                assert eq.is_homogeneous(k)

    def test_system_evaluation_matches_line_certificate(self):
        rng = random.Random(73)
        f = rand_homogeneous(rng, tvars(3), 4)
        hyp = Hypersurface(f)
        y = rand_point_off_branch(rng, hyp)
        system = vmrt_equations(hyp, y)
        for _ in range(5):
            z = rand_direction(rng, 3)
            assert system.evaluate(z) == line_certificate(hyp, y, z).residuals


class TestEcoLinePredicate:
    def test_fermat_axis_line_is_not_eco(self):
        hyp = Hypersurface(parse_poly("t0^4 + t1^4 + t2^4 + t3^4"))
        assert not is_eco_line(hyp, [0, 0, 0], [1, 0, 0])

    def test_line_meeting_only_infinity(self):
        # restriction is the constant 1: even contact concentrated at infinity
        hyp = Hypersurface(parse_poly("t0^4 + t1^4", ("t0", "t1", "t2", "t3")))
        assert is_eco_line(hyp, [0, 0, 0], [0, 0, 1])

    def test_zero_direction_rejected(self):
        hyp = Hypersurface(parse_poly("t0^4 + t1^4 + t2^4 + t3^4"))
        with pytest.raises(InvalidInput):
            is_eco_line(hyp, [0, 0, 0], [0, 0, 0])

    def test_scaling_direction_is_irrelevant(self):
        rng = random.Random(79)
        y = rand_point(rng, 3)
        z = rand_direction(rng, 3)
        hyp = eco_witness(3, 2, y, z, seed=97)
        for s in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
            assert is_eco_line(hyp, y, [s * c for c in z])
            assert line_certificate(hyp, y, [s * c for c in z]).passed

    def test_predicate_equivalence(self):
        # oracle route vs simultaneous vanishing of the defining equations,
        # on designed-true witnesses and on random (generically false) lines
        rng = random.Random(83)
        plan = (((3, 2), 80), ((4, 2), 60), ((4, 3), 40), ((5, 4), 20))
        for (n, m), count in plan:
            for _ in range(count):
                y = rand_point(rng, n)
                z = rand_direction(rng, n)
                hyp = eco_witness(n, m, y, z, seed=rng.randrange(2**32))
                cert = line_certificate(hyp, y, z)
                assert cert.passed and all(r == 0 for r in cert.residuals)
                assert is_eco_line(hyp, y, z)
        for (n, m), count in plan:
            for _ in range(count):
                f = rand_homogeneous(rng, tvars(n), 2 * m)
                hyp = Hypersurface(f)
                y = rand_point_off_branch(rng, hyp)
                z = rand_direction(rng, n)
                oracle = is_eco_line(hyp, y, z)
                equations = line_certificate(hyp, y, z).passed
                assert oracle == equations


class TestConverse:
    def test_shape_of_constructed_polynomial(self):
        b3 = parse_poly("z1^3 + z2^3 + z3^3", ZV3)
        b4 = parse_poly("z1^4 + z2^4 + z3^4", ZV3)
        hyp = build_converse([b3, b4])
        expected = parse_poly(
            "t0^4 + t0*t1^3 + t0*t2^3 + t0*t3^3 + t1^4 + t2^4 + t3^4"
        )
        assert hyp.f == expected

    def test_round_trip_random(self):
        rng = random.Random(89)
        for n, m in ((3, 2), (4, 2), (4, 3)):
            zv = zvars(n)
            b = [rand_homogeneous(rng, zv, k) for k in range(m + 1, 2 * m + 1)]
            hyp = build_converse(b)
            assert list(vmrt_equations(hyp, (0,) * n).equations) == b

    def test_m1_rejected(self):
        with pytest.raises(InvalidInput):
            build_converse([parse_poly("z1^2 + z2^2", ("z1", "z2"))])

    def test_degree_mismatch_rejected(self):
        b_wrong = [
            parse_poly("z1^3", ZV3),
            parse_poly("z1^3*z2^2", ZV3),  # degree 5, expected 4
        ]
        with pytest.raises(InvalidInput):
            build_converse(b_wrong)
        with pytest.raises(InvalidInput):
            build_converse([parse_poly("z1^3", ZV3), SparsePoly.zero(ZV3)])


class TestWitness:
    def test_distinct_seeds_give_distinct_surfaces(self):
        y, z = (Fraction(1), Fraction(2), Fraction(3)), (Fraction(1), Fraction(0), Fraction(1))
        a = eco_witness(3, 2, y, z, seed=1)
        b = eco_witness(3, 2, y, z, seed=2)
        assert a.f != b.f

    def test_pure_square_makes_every_line_eco(self):
        rng = random.Random(91)
        q = rand_homogeneous(rng, tvars(3), 2)
        hyp = Hypersurface(q * q)
        for _ in range(5):
            y = rand_point_off_branch(rng, hyp)
            z = rand_direction(rng, 3)
            assert is_eco_line(hyp, y, z)

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidInput):
            eco_witness(3, 2, [0, 0, 0], [0, 0, 0], seed=1)

    def test_seeded_witness_is_pinned(self):
        # zero coordinates of y and z off index 0: the pivot row is skipped
        # and the vanishing coefficients of the linear forms are dropped
        small = eco_witness(2, 1, [Fraction(1, 2), 0], [3, 0], seed=5)
        assert format_poly(small.f) == (
            "361/25*t0^2 + 19/15*t0*t1 + 1/36*t1^2 + 2111/20*t0*t2 - 38/3*t1*t2 + 325/2*t2^2"
        )
        quartic = eco_witness(3, 2, [2, 0, Fraction(-1, 3)], [1, -2, 0], seed=5)
        assert format_poly(quartic.f) == (
            "476/25*t0^4 + 13/5*t0^3*t1 + 16499/180*t0^2*t1^2 + 509/18*t0*t1^3 + 475/3*t1^4"
            " + 203/24*t0^3*t2 - 3011/60*t0^2*t1*t2 + 4021/36*t0*t1^2*t2 - 530/3*t1^3*t2"
            " + 1799/240*t0^2*t2^2 - 230/9*t0*t1*t2^2 - 368/9*t1^2*t2^2 - 559/84*t0*t2^3"
            " + 164/9*t1*t2^3 + 97/36*t2^4 + 2713/135*t0^3*t3 - 2521/990*t0^2*t1*t3"
            " + 143531/2970*t0*t1^2*t3 + 385/18*t1^3*t3 + 1591/600*t0^2*t2*t3"
            " - 8838/385*t0*t1*t2*t3 - 141647/3780*t1^2*t2*t3 - 1391/60*t0*t2^2*t3"
            " + 6424/945*t1*t2^2*t3 + 562/105*t2^3*t3 - 9301/252*t0^2*t3^2"
            " + 7831/504*t0*t1*t3^2 - 55108/405*t1^2*t3^2 - 4441/189*t0*t2*t3^2"
            " + 4193/90*t1*t2*t3^2 + 3109/150*t2^2*t3^2 - 4013/135*t0*t3^3"
            " - 1681/360*t1*t3^3 + 649/45*t2*t3^3 + 227/9*t3^4"
        )


class TestCount:
    def test_generic_quartic_counts_twelve(self):
        rng = random.Random(95)
        b3 = rand_homogeneous(rng, ZV3, 3)
        b4 = rand_homogeneous(rng, ZV3, 4)
        hyp = build_converse([b3, b4])
        y = rand_point_off_branch(rng, hyp)
        degree, squarefree = count_vmrt_points(hyp, y, seed=11)
        assert degree == 12
        assert squarefree

    def test_global_square_is_degenerate(self):
        q = parse_poly("t0^2 + 2*t1^2 - t2^2 + t3^2")
        hyp = Hypersurface(q * q)
        with pytest.raises(ResultantDegenerate):
            count_vmrt_points(hyp, [1, 1, 1], seed=3)

    def test_branch_point_rejected(self):
        hyp = Hypersurface(parse_poly("t0^4 - t1^4", ("t0", "t1", "t2", "t3")))
        with pytest.raises(BasePointOnBranch):
            count_vmrt_points(hyp, [1, 0, 0], seed=3)

    def test_wrong_shape_rejected(self):
        hyp = Hypersurface(parse_poly("t0^4 + t1^4 + t2^4 + t3^4 + t4^4"))
        with pytest.raises(InvalidInput):
            count_vmrt_points(hyp, [0, 0, 0, 0], seed=3)


    # third column (0, 0, 1): the change sends z3 to a zero of b3 below, so
    # c3 has no z3^3 term
    HIDING = [[2, 1, 0], [-1, 3, 0], [4, 5, 1]]

    @staticmethod
    def _system_vanishing_at_z3():
        """A generic converse (3,2) system whose b3 vanishes at (0:0:1); its equations at the origin are b3, b4."""
        rng = random.Random(95)
        b3 = rand_homogeneous(rng, ZV3, 3)
        b3 = b3 - SparsePoly.from_terms(ZV3, [((0, 0, 3), b3.coefficient((0, 0, 3)))])
        return build_converse([b3, rand_homogeneous(rng, ZV3, 4)])

    def test_retries_a_change_that_hides_a_leading_coefficient(self, monkeypatch):
        draws = []
        draw = lines.rand_invertible

        def first_hides(rng, size):
            draws.append(size)
            return self.HIDING if len(draws) == 1 else draw(rng, size)

        monkeypatch.setattr(lines, "rand_invertible", first_hides)
        assert count_vmrt_points(self._system_vanishing_at_z3(), [0, 0, 0], seed=11) == (12, True)
        assert draws == [3, 3]

    def test_raises_when_no_change_exposes_the_leading_coefficients(self, monkeypatch):
        monkeypatch.setattr(lines, "rand_invertible", lambda rng, size: self.HIDING)
        with pytest.raises(ResultantDegenerate, match="no coordinate change exposed leading coefficients"):
            count_vmrt_points(self._system_vanishing_at_z3(), [0, 0, 0], seed=11)

    def test_makes_no_compose_call(self, monkeypatch):
        # the equations come from the half-square recursion, not from composing the
        # certificate family; that SparsePoly has no compose at all is a test_package check
        rng = random.Random(95)
        hyp = build_converse([rand_homogeneous(rng, ZV3, 3), rand_homogeneous(rng, ZV3, 4)])
        y = rand_point_off_branch(rng, hyp)

        def refuse(*args):
            raise AssertionError("count_vmrt_points called build_family")

        monkeypatch.setattr(eco, "build_family", refuse)
        assert count_vmrt_points(hyp, y, seed=11) == (12, True)

class TestBezoutEnumeration:
    """Independent count oracle: fully decomposable equations.

    With b3 = z1*z2*z3 and b4 a product of four pairwise independent linear
    forms, every solution is the intersection of one line from each factor
    set, computable by cross products.  The resultant route must agree.
    """

    LIN3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    LIN4 = ((1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1))

    @staticmethod
    def _form(c):
        return SparsePoly.from_terms(
            ZV3, [((1, 0, 0), Fraction(c[0])), ((0, 1, 0), Fraction(c[1])), ((0, 0, 1), Fraction(c[2]))]
        )

    @staticmethod
    def _cross(a, b):
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    def test_twelve_enumerated_points_match_resultant_count(self):
        b3 = parse_poly("z1*z2*z3", ZV3)
        b4 = SparsePoly.constant(ZV3, 1)
        for c in self.LIN4:
            b4 = b4 * self._form(c)
        points = [self._cross(a, b) for a in self.LIN3 for b in self.LIN4]
        normalized = set()
        for p in points:
            assert any(p)
            assert b3.evaluate(p) == 0 and b4.evaluate(p) == 0
            lead = next(x for x in p if x)
            normalized.add(tuple(Fraction(x, lead) for x in p))
        assert len(normalized) == 12
        hyp = build_converse([b3, b4])
        degree, squarefree = count_vmrt_points(hyp, [0, 0, 0], seed=2)
        assert degree == 12
        assert squarefree  # 12 distinct transverse points, generic projection


def tangent_system_with_a_double_line():
    """b3 = z1*z2*z3 and b4 with the double line z1 = z3: the length stays 12, not reduced."""
    b4 = parse_poly("z1 - z3", ZV3) ** 2 * parse_poly("z1 + z2 + z3", ZV3) * parse_poly("z1 + 2*z2 + 3*z3", ZV3)
    return build_converse([parse_poly("z1*z2*z3", ZV3), b4])


def tangent_system_with_one_double_point():
    """b3 = z1*z2*z3 and b4 four lines, one through the node (0:0:1) of b3: 12 points, one of them double."""
    lines4 = ("z1 + z2", "z1 + 3*z2 + z3", "z1 + 2*z2 + 3*z3", "2*z1 - z2 + 5*z3")
    b4 = SparsePoly.constant(ZV3, 1)
    for text in lines4:
        b4 = b4 * parse_poly(text, ZV3)
    return build_converse([parse_poly("z1*z2*z3", ZV3), b4])


def certificate_answers(monkeypatch):
    """The list that records each answer of the mod-P count certificate from now on."""
    answers = []
    certified = lines._count_certified

    def spy(c3, c4):
        answers.append(certified(c3, c4))
        return answers[-1]

    monkeypatch.setattr(lines, "_count_certified", spy)
    return answers


def count_both_ways(monkeypatch, hyp, point, seed):
    """(certified count, exact count, the certificate's answers) of one input."""
    answers = certificate_answers(monkeypatch)
    fast = count_vmrt_points(hyp, point, seed)
    monkeypatch.setattr(lines, "_count_certified", lambda c3, c4: False)
    exact = count_vmrt_points(hyp, point, seed)
    monkeypatch.undo()
    return fast, exact, answers


class TestCountCertificate:
    """The mod-P certificate of count_vmrt_points against the exact route it replaces."""

    def test_random_converse_systems(self, monkeypatch):
        for seed in range(30):
            rng = random.Random(7000 + seed)
            hyp = build_converse([rand_homogeneous(rng, ZV3, 3), rand_homogeneous(rng, ZV3, 4)])
            fast, exact, answers = count_both_ways(monkeypatch, hyp, rand_point_off_branch(rng, hyp), seed)
            assert fast == exact
            assert answers == [fast == (12, True)]

    def test_selftest_criterion_seven_trials(self, monkeypatch):
        # the draws of selftest.criterion_point_count at seed 42
        rng = _rng(42, 7)
        for _ in range(10):
            hyp = build_converse([rand_homogeneous(rng, ZV3, 3), rand_homogeneous(rng, ZV3, 4)])
            y = rand_point_off_branch(rng, hyp)
            fast, exact, _ = count_both_ways(monkeypatch, hyp, y, rng.randrange(2**32))
            assert fast == exact

    def test_bezout_enumeration_system(self, monkeypatch):
        b4 = SparsePoly.constant(ZV3, 1)
        for c in TestBezoutEnumeration.LIN4:
            b4 = b4 * TestBezoutEnumeration._form(c)
        hyp = build_converse([parse_poly("z1*z2*z3", ZV3), b4])
        fast, exact, answers = count_both_ways(monkeypatch, hyp, [0, 0, 0], 2)
        assert fast == exact == (12, True)
        assert answers == [True]

    @pytest.mark.parametrize("seed", [2, 5, 9])
    def test_double_line_declines_and_the_fallback_counts_twelve_not_squarefree(self, monkeypatch, seed):
        fast, exact, answers = count_both_ways(monkeypatch, tangent_system_with_a_double_line(), [0, 0, 0], seed)
        assert fast == exact == (12, False)
        assert answers == [False]

    def test_one_double_point_declines_and_the_fallback_counts_twelve_not_squarefree(self, monkeypatch):
        # gcd(p, p') of the dehomogenized resultant has degree exactly 1 here, 3 for the double line
        fast, exact, answers = count_both_ways(monkeypatch, tangent_system_with_one_double_point(), [0, 0, 0], 2)
        assert fast == exact == (12, False)
        assert answers == [False]

    def test_shared_line_declines_and_the_fallback_raises(self, monkeypatch):
        line = parse_poly("z1 + z2 - z3", ZV3)
        hyp = build_converse([line * parse_poly("z1*z2 + z3^2", ZV3), line * parse_poly("z1^3 - z2^2*z3", ZV3)])
        answers = certificate_answers(monkeypatch)
        with pytest.raises(ResultantDegenerate, match="resultant vanishes"):
            count_vmrt_points(hyp, [0, 0, 0], 4)
        assert answers == [False]

    def test_tangency_over_z2_zero_declines(self):
        # both curves pass through (1:0:0) with tangent z2 = 0, so z2^2 divides
        # the resultant: its dehomogenization is squarefree but of degree 10
        c3 = parse_poly("z3^3 + z1^2*z2 + 2*z2^3 - z1*z3^2 + 3*z2^2*z3 + z1*z2*z3", ZV3)
        c4 = parse_poly("z3^4 + z1^3*z2 - z2^4 + 2*z1^2*z3^2 - z2*z3^3 + 5*z1*z2^2*z3 + z1^2*z2^2", ZV3)
        res = resultant(c3, c4, "z3")
        coeffs = [Fraction(0)] * 13
        for exp, c in res.terms.items():
            coeffs[exp[0]] += c
        _, factors = squarefree_factorization(UniPoly(coeffs))
        assert res.homogeneous_degree() == 12 and UniPoly(coeffs).degree() == 10
        assert [mult for _, mult in factors] == [1]
        assert not lines._count_certified(c3, c4)

    def test_global_square_raises_before_the_certificate(self, monkeypatch):
        def refuse(c3, c4):
            raise AssertionError("the certificate ran on an identically vanishing system")

        monkeypatch.setattr(lines, "_count_certified", refuse)
        TestCount().test_global_square_is_degenerate()


def test_count_certificate_declines_a_z3_leading_coefficient_that_is_a_multiple_of_p():
    # Euclid mod P needs both leading coefficients to be units there; these
    # forms certify with unit leads, and the exact route counts (12, True) at lead P
    P = (1 << 61) - 1
    tail3 = " + z1^3 - 2*z2^3 + z1*z2*z3 + 3*z1^2*z3"
    tail4 = " + z1^4 + z2^4 - z1*z2*z3^2 + 2*z2^3*z3"
    for lead3, lead4, certified in [(1, 1, True), (P + 1, 1, True), (P, 1, False), (1, 2 * P, False), (-P, 3, False)]:
        c3, c4 = parse_poly(f"{lead3}*z3^3" + tail3, ZV3), parse_poly(f"{lead4}*z3^4" + tail4, ZV3)
        assert lines._count_certified(c3, c4) is certified
    res = resultant(parse_poly(f"{P}*z3^3" + tail3, ZV3), parse_poly("z3^4" + tail4, ZV3), "z3")
    dehom = UniPoly([res.coefficient((k, 12 - k, 0)) for k in range(13)])
    assert res.homogeneous_degree() == 12 and dehom.degree() >= 11
    assert [mult for _, mult in squarefree_factorization(dehom)[1]] == [1]


class TestRecenter:
    def test_equations_translate(self):
        rng = random.Random(101)
        f = rand_homogeneous(rng, tvars(3), 4)
        hyp = Hypersurface(f)
        y = rand_point_off_branch(rng, hyp)
        moved = recenter(hyp, y)
        assert moved.affine_value([0, 0, 0]) == 1
        left = vmrt_equations(moved, [0, 0, 0])
        right = vmrt_equations(hyp, y)
        assert left.equations == right.equations

    def test_branch_point_rejected(self):
        hyp = Hypersurface(parse_poly("t0^4 - t1^4", ("t0", "t1", "t2", "t3")))
        with pytest.raises(BasePointOnBranch):
            recenter(hyp, [1, 0, 0])


@pytest.fixture
def restrictions(monkeypatch):
    """The directions of every line restriction `lines` makes, None for a symbolic one."""
    made = []
    real = lines.restrict_to_line

    def spy(f, y, z=None):
        made.append(z)
        return real(f, y, z)

    monkeypatch.setattr(lines, "restrict_to_line", spy)
    return made


class TestLineMemo:
    """Each numeric line is restricted once per hypersurface (`Hypersurface._line`)."""

    @staticmethod
    def witness():
        y, z = (1, -1, Fraction(1, 2)), (1, 2, -1)
        return eco_witness(3, 2, y, z, seed=7), y, z

    def test_certificate_and_oracle_share_one_restriction(self, restrictions):
        hyp, y, z = self.witness()
        assert line_certificate(hyp, y, z).passed and is_eco_line(hyp, y, z)
        assert len(restrictions) == 1
        hyp, y, z = self.witness()
        assert is_eco_line(hyp, y, z) and line_certificate(hyp, y, z).passed
        assert len(restrictions) == 2

    def test_a_different_line_restricts_again(self, restrictions):
        hyp, y, z = self.witness()
        line_certificate(hyp, y, z)
        for point, direction in [((0, 0, 0), z), (y, (0, 1, 1)), (y, [2 * c for c in z]), (y, z)]:
            is_eco_line(hyp, point, direction)
        assert len(restrictions) == 5
        # the memo holds the last line only, and its parts are immutable
        assert hyp._line[1:3] == (tuple(map(Fraction, y)), tuple(map(Fraction, z)))
        assert isinstance(hyp._line[3], tuple)

    def test_equal_values_of_other_types_hit(self, restrictions):
        hyp, y, z = self.witness()
        first = line_certificate(hyp, y, z)
        again = line_certificate(hyp, [Fraction(c) for c in y], (Fraction(1), 2, Fraction(-2, 2)))
        assert again == first and len(restrictions) == 1

    def test_reassigning_f_invalidates(self, restrictions):
        hyp, y, z = self.witness()
        assert is_eco_line(hyp, y, z)
        hyp.f = hyp.f + parse_poly("t1^4", tvars(3))
        assert not is_eco_line(hyp, y, z)
        assert hyp._line[0] is hyp.f
        # an equal polynomial in a new object is a new key too
        hyp.f = SparsePoly._from_ints(hyp.f.vars, dict(hyp.f.nums), hyp.f.den)
        assert not line_certificate(hyp, y, z).passed
        assert len(restrictions) == 3

    def test_symbolic_restrictions_are_not_memoized(self, restrictions):
        hyp, y, _ = self.witness()
        vmrt_equations(hyp, y)
        recenter(hyp, y)
        assert hyp._line is None and restrictions == [None, None]

    def test_branch_point_stores_nothing(self, restrictions):
        hyp = Hypersurface(parse_poly("t0^4 - t1^4", tvars(3)))
        for _ in range(2):
            with pytest.raises(BasePointOnBranch):
                line_certificate(hyp, [1, 0, 0], [0, 1, 0])
            assert hyp._line is None
        assert len(restrictions) == 2

    def test_equality_and_repr_ignore_the_memo(self):
        hyp, y, z = self.witness()
        fresh = Hypersurface(hyp.f)
        text = repr(hyp)
        is_eco_line(hyp, y, z)
        assert hyp == fresh and fresh == hyp
        assert repr(hyp) == repr(fresh) == text == f"Hypersurface(n=3, m=2, f={hyp.f})"

    def test_cli_eco_line_restricts_once(self, restrictions, tmp_path, capsys):
        hyp, y, z = self.witness()
        path = tmp_path / "witness.poly"
        path.write_text(format_poly(hyp.f))
        argv = ["eco-line", "--f", str(path), "--point", ",".join(map(str, y)), "--dir", ",".join(map(str, z))]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("eco_line: True\n")
        assert len(restrictions) == 1

    def test_witness_criterion_restricts_once_per_line(self, restrictions, monkeypatch):
        monkeypatch.setattr(selftest, "WITNESS_COMBOS", ((3, 2), (4, 2)))
        report = selftest.criterion_witness_vanishing(42)
        assert report["pass"] and report["instances"] == 100
        assert len(restrictions) == 100 and None not in restrictions
