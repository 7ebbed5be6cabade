"""Certificate recursion: families, certification, weighted homogeneity.

`certify` runs the half-square recursion on integers (the coefficients
rescaled by s^k, s = 4 * the lcm of their denominators).  Its reference is
the plain Fraction recursion it replaced, kept here, and the certificates
must be equal field by field.
"""

import random
from fractions import Fraction

import pytest

from vmrt import (
    EcoCertificate,
    InvalidInput,
    UniPoly,
    build_family,
    certify,
    is_perfect_square,
    is_weighted_homogeneous,
    parse_poly,
)
from vmrt.sampling import rand_fraction, rand_nonzero_fraction


def square_coeffs(sigma):
    """Coefficient vector a_1..a_2m of (1 + sigma_1 lam + ... + sigma_m lam^m)^2."""
    root = UniPoly([1] + list(sigma))
    sq = root * root
    return [sq.coeff(k) for k in range(1, 2 * len(sigma) + 1)]


class TestBuildFamily:
    def test_m2_root_polys(self):
        fam = build_family(2)
        t = ("t1", "t2")
        assert fam.root_polys[1] == parse_poly("1/2*t1", t)
        assert fam.root_polys[2] == parse_poly("1/2*t2 - 1/8*t1^2", t)

    def test_m2_tail_polys(self):
        fam = build_family(2)
        t = ("t1", "t2")
        assert fam.tail_polys[3] == parse_poly("1/2*t1*t2 - 1/8*t1^3", t)
        assert fam.tail_polys[4] == parse_poly("1/4*t2^2 - 1/8*t1^2*t2 + 1/64*t1^4", t)

    def test_m1_tail(self):
        fam = build_family(1)
        assert fam.tail_polys[2] == parse_poly("1/4*t1^2", ("t1",))

    def test_invalid_m(self):
        with pytest.raises(InvalidInput):
            build_family(0)

    def test_changing_a_returned_family_leaves_the_next_one_intact(self):
        fam = build_family(2)
        fam.tail_polys[3] = 0
        again = build_family(2)
        assert again is not fam
        assert again.tail_polys[3] == parse_poly("1/2*t1*t2 - 1/8*t1^3", ("t1", "t2"))


class TestCertify:
    def test_binomial_fourth_power(self):
        cert = certify([4, 6, 4, 1])
        assert cert.passed
        assert cert.sigma == (Fraction(2), Fraction(1))

    def test_squarefree_quartic_fails(self):
        cert = certify([0, 0, 0, 1])
        assert not cert.passed
        assert cert.residuals == (Fraction(0), Fraction(1))

    def test_worked_square(self):
        cert = certify([6, 13, 12, 4])
        assert cert.passed
        assert cert.sigma == (Fraction(3), Fraction(2))

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidInput):
            certify([1, 2, 3])
        with pytest.raises(InvalidInput):
            certify([])

    def test_soundness_square_reproduces_all_coefficients(self):
        rng = random.Random(41)
        for _ in range(50):
            m = rng.randint(1, 5)
            a = square_coeffs([rand_fraction(rng) for _ in range(m)])
            cert = certify(a)
            assert cert.passed
            assert square_coeffs(cert.sigma) == a

    def test_low_coefficients_always_match(self):
        # pass or fail, the certificate square agrees with a_1..a_m
        rng = random.Random(43)
        for _ in range(50):
            m = rng.randint(1, 5)
            a = [rand_fraction(rng) for _ in range(2 * m)]
            cert = certify(a)
            assert square_coeffs(cert.sigma)[:m] == a[:m]

    def test_oracle_equivalence_smoke(self):
        rng = random.Random(47)
        for _ in range(100):
            m = rng.randint(1, 6)
            if rng.random() < 0.5:
                a = square_coeffs([rand_fraction(rng) for _ in range(m)])
            else:
                a = [rand_fraction(rng) for _ in range(2 * m)]
            poly = UniPoly([1] + a)
            assert certify(a).passed == is_perfect_square(poly)[0]

    def test_scaling_equivariance(self):
        rng = random.Random(53)
        for _ in range(25):
            m = rng.randint(1, 5)
            a = [rand_fraction(rng) for _ in range(2 * m)]
            s = rand_nonzero_fraction(rng)
            base = certify(a)
            scaled = certify([s ** k * a[k - 1] for k in range(1, 2 * m + 1)])
            assert scaled.sigma == tuple(s ** k * v for k, v in enumerate(base.sigma, start=1))
            assert scaled.residuals == tuple(
                s ** k * r for k, r in enumerate(base.residuals, start=m + 1)
            )

    def test_degenerate_top_coefficient_accepted(self):
        # (1 + lam)^2 read as a degree-4 certificate: contact at infinity
        cert = certify([2, 1, 0, 0])
        assert cert.passed
        assert cert.sigma == (Fraction(1), Fraction(0))


def reference_certify(coeffs):
    """The half-square recursion in Fractions: sigma_k = (a_k - sum sigma_i*sigma_(k-i)) / 2, then the tails."""
    a = [Fraction(x) for x in coeffs]
    m = len(a) // 2
    sigma = [Fraction(1)]
    for k in range(1, m + 1):
        sigma.append((a[k - 1] - sum(sigma[i] * sigma[k - i] for i in range(1, k))) / 2)
    tails = [sum(sigma[ell] * sigma[k - ell] for ell in range(k - m, m + 1)) for k in range(m + 1, 2 * m + 1)]
    residuals = tuple(a[k - 1] - t for k, t in zip(range(m + 1, 2 * m + 1), tails))
    return EcoCertificate(tuple(sigma[1:]), residuals, all(r == 0 for r in residuals))


def big_fraction(rng):
    num = rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))
    den = rng.choice((1, rng.randint(1, 12), rng.randint(1, 10**30), 2**64, 3**40))
    return Fraction(num, den)


def assert_same_certificate(a):
    cert = certify(a)
    assert cert == reference_certify(a)
    assert all(type(x) is Fraction for x in cert.sigma + cert.residuals)
    assert type(cert.passed) is bool


class TestIntegerCertificate:
    def test_matches_the_fraction_recursion(self):
        rng = random.Random(59)
        for i in range(1200):
            m = rng.randint(1, 6)
            if i % 3 == 0:  # a square, whose residuals vanish
                a = square_coeffs([big_fraction(rng) for _ in range(m)])
            else:
                a = [big_fraction(rng) for _ in range(2 * m)]
            assert_same_certificate(a)

    def test_input_types(self):
        assert_same_certificate([4, 6, 4, 1])  # ints
        assert_same_certificate([-3, 0, 0, 10**30, 7, -1])
        assert_same_certificate([Fraction(1, 3), Fraction(-5, 2**64)])  # Fractions
        assert_same_certificate([2, Fraction(3, 4), 0, Fraction(9, 64)])  # mixed
        assert_same_certificate([0, 0])
        assert_same_certificate((Fraction(2), 1))  # a tuple

    def test_halving_is_exact_on_odd_numerators(self):
        # odd a_1 over an odd denominator: sigma_1 = a_1/2 needs the factor 4 of s
        cert = certify([Fraction(1, 3), Fraction(1, 36)])
        assert cert.sigma == (Fraction(1, 6),) and cert.passed


class TestWeightedHomogeneity:
    def test_tail_poly_example(self):
        fam = build_family(2)
        assert is_weighted_homogeneous(fam.tail_polys[4], 4, [1, 2])

    def test_mixed_weights_fail(self):
        p = parse_poly("t1 + t2", ("t1", "t2"))
        assert not any(is_weighted_homogeneous(p, k, [1, 2]) for k in range(0, 5))

    def test_constant(self):
        c = parse_poly("1", ("t1", "t2"))
        assert is_weighted_homogeneous(c, 0, [1, 2])
        assert not is_weighted_homogeneous(c, 3, [1, 2])

    def test_all_family_members_up_to_six(self):
        for m in range(1, 7):
            fam = build_family(m)
            weights = list(range(1, m + 1))
            for k in range(1, m + 1):
                assert is_weighted_homogeneous(fam.root_polys[k], k, weights)
            for k in range(m + 1, 2 * m + 1):
                assert is_weighted_homogeneous(fam.tail_polys[k], k, weights)

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidInput):
            is_weighted_homogeneous(parse_poly("1", ("t1",)), 0, [0])
