"""First-order jets: Leibniz-exact arithmetic and directional derivatives."""

import random
from fractions import Fraction

import pytest

from vmrt import InvalidInput, Jet1, SparsePoly, parse_poly
from vmrt.jets import restrict_to_line_jets
from vmrt.sampling import rand_homogeneous

ZV = ("z1", "z2", "z3")


def rand_poly(rng, variables, max_degree=3, terms=6):
    items = []
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_degree) for _ in variables)
        items.append((exp, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    return SparsePoly.from_terms(variables, items)


def test_product_rule():
    rng = random.Random(4)
    for _ in range(10):
        a = Jet1(rand_poly(rng, ZV), rand_poly(rng, ZV))
        b = Jet1(rand_poly(rng, ZV), rand_poly(rng, ZV))
        prod = a * b
        assert prod.value == a.value * b.value
        assert prod.derivative == a.value * b.derivative + a.derivative * b.value


def test_inverse_is_two_sided():
    rng = random.Random(6)
    for _ in range(10):
        j = Jet1(SparsePoly.constant(ZV, Fraction(rng.randint(1, 9), rng.randint(1, 5))), rand_poly(rng, ZV))
        one = j * j.inverse()
        assert one.value == SparsePoly.constant(ZV, 1)
        assert one.derivative.is_zero


def test_inverse_requires_constant_value():
    j = Jet1(parse_poly("z1", ZV), SparsePoly.zero(ZV))
    with pytest.raises(InvalidInput):
        j.inverse()
    with pytest.raises(InvalidInput):
        Jet1(SparsePoly.zero(ZV), SparsePoly.zero(ZV)).inverse()


def test_polynomial_at_jet_point_gives_value_and_partial():
    # evaluating p at y = eps*e_i recovers (p(0), dp/dy_i(0))
    rng = random.Random(12)
    variables = ("y1", "y2", "y3")
    for _ in range(12):
        p = rand_poly(rng, variables)
        i = rng.randrange(3)
        args = [
            Jet1.constant(variables, 0, 1 if j == i else 0) for j in range(3)
        ]
        jet = p.compose(args)
        origin = [Fraction(0)] * 3
        assert jet.value.constant_value() == p.evaluate(origin)
        assert jet.derivative.constant_value() == p.partial(variables[i]).evaluate(origin)


def test_jet_restriction_matches_plain_restriction_at_value_level():
    # derivative slots zero -> the jet restriction degenerates to the plain one
    from vmrt import restrict_to_line

    rng = random.Random(15)
    tvars = ("t0", "t1", "t2", "t3")
    f = rand_homogeneous(rng, tvars, 4)
    y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
    jets = restrict_to_line_jets(f, [(c, Fraction(0)) for c in y])
    plain = restrict_to_line(f, y)
    for k in range(5):
        assert jets[k].value == plain[k]
        assert jets[k].derivative.is_zero


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_power_matches_repeated_products(k):
    rng = random.Random(20 + k)
    one = Jet1.constant(ZV, 1)
    jets = [
        Jet1(rand_poly(rng, ZV, max_degree=2, terms=4), rand_poly(rng, ZV, max_degree=2, terms=4)),
        Jet1(SparsePoly.zero(ZV), rand_poly(rng, ZV, max_degree=2, terms=4)),  # eps^k = 0 for k >= 2
        Jet1(SparsePoly.constant(ZV, Fraction(-3, 2)), SparsePoly.zero(ZV)),
    ]
    for j in jets:
        expected = one
        for _ in range(k):
            expected = expected * j
        assert j ** k == expected


def test_power_rejects_negative_and_non_integer_exponents():
    j = Jet1.constant(ZV, 2, 1)
    with pytest.raises(InvalidInput):
        j ** -1
    with pytest.raises(InvalidInput):
        j ** Fraction(1, 2)


def test_polynomial_parts_must_share_variables():
    with pytest.raises(InvalidInput):
        Jet1(SparsePoly.zero(ZV), SparsePoly.zero(("z1", "z2")))


@pytest.mark.parametrize("other", [1.5, "x"])
def test_mixing_with_other_types_is_rejected(other):
    j = Jet1(parse_poly("z1 + 2", ZV), parse_poly("z2", ZV))
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j * other
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j + other


def test_product_rule_over_int_parts():
    rng = random.Random(30)
    for _ in range(20):
        a = Jet1(rng.randint(-9, 9), rng.randint(-9, 9))
        b = Jet1(rng.randint(-9, 9), rng.randint(-9, 9))
        prod = a * b
        assert (prod.value, prod.derivative) == (a.value * b.value, a.value * b.derivative + a.derivative * b.value)
        total = a + b
        assert (total.value, total.derivative) == (a.value + b.value, a.derivative + b.derivative)
        diff = a - b
        assert (diff.value, diff.derivative) == (a.value - b.value, a.derivative - b.derivative)


@pytest.mark.parametrize("k", range(6))
def test_power_over_int_parts_matches_repeated_products(k):
    # value-0 jets included: eps^k = 0 for k >= 2
    for j in (Jet1(3, -2), Jet1(0, 5), Jet1(-1, 0), Jet1(0, 0)):
        expected = Jet1(1, 0)
        for _ in range(k):
            expected = expected * j
        assert j ** k == expected
    assert Jet1(0, 5) ** k == Jet1(int(k == 0), 5 * int(k == 1))


def test_truth_value_over_both_rings():
    assert not Jet1(0, 0)
    assert Jet1(0, 3)
    assert Jet1(2, 0)
    zero = SparsePoly.zero(ZV)
    assert not Jet1(zero, zero)
    assert Jet1(zero, parse_poly("z1", ZV))


def test_scalars_act_on_both_parts_over_int_parts():
    j = Jet1(4, -6)
    assert 3 * j == j * 3 == Jet1(12, -18)
    assert j * Fraction(1, 2) == Fraction(1, 2) * j == Jet1(2, -3)
    assert j + 5 == 5 + j == Jet1(9, -6)
    assert j - Fraction(1, 2) == Jet1(Fraction(7, 2), -6)
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j * 1.5
