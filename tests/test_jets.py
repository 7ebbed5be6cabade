"""First-order jets: Leibniz-exact arithmetic and directional derivatives."""

import random
from fractions import Fraction
from functools import partial

import pytest

from vmrt import InvalidInput, Jet1, SparsePoly, parse_poly
from vmrt.jets import restrict_to_line_jets
from vmrt.sampling import rand_homogeneous

from test_poly import reference_compose

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
        a = Jet1(rand_poly(rng, ZV), (rand_poly(rng, ZV), rand_poly(rng, ZV)))
        b = Jet1(rand_poly(rng, ZV), (rand_poly(rng, ZV), rand_poly(rng, ZV)))
        prod = a * b
        assert prod.value == a.value * b.value
        for s in range(2):
            assert prod.derivative[s] == a.value * b.derivative[s] + a.derivative[s] * b.value


def test_inverse_is_two_sided():
    rng = random.Random(6)
    for _ in range(10):
        slots = tuple(rand_poly(rng, ZV) for _ in range(rng.randint(0, 3)))
        j = Jet1(SparsePoly.constant(ZV, Fraction(rng.randint(1, 9), rng.randint(1, 5))), slots)
        one = j * j.inverse()
        assert one.value == SparsePoly.constant(ZV, 1)
        assert len(one.derivative) == len(slots)
        assert all(d.is_zero for d in one.derivative)
    # int and Fraction values run through the same inversion
    for value in (2, -3, Fraction(5, 7), Fraction(-1, 4)):
        j = Jet1(value, (1, Fraction(-2, 3), 0))
        inv = j.inverse()
        assert inv.value == 1 / Fraction(value)
        assert inv.derivative == tuple(-d / Fraction(value) ** 2 for d in j.derivative)
        one = j * inv
        assert (one.value, one.derivative) == (1, (0, 0, 0))
    assert Jet1(2, ()).inverse() == Jet1(Fraction(1, 2), ())


def test_inverse_requires_constant_value():
    j = Jet1(parse_poly("z1", ZV), (SparsePoly.zero(ZV),))
    with pytest.raises(InvalidInput):
        j.inverse()
    with pytest.raises(InvalidInput):
        Jet1(SparsePoly.zero(ZV), (SparsePoly.zero(ZV),)).inverse()
    for zero in (0, Fraction(0)):
        with pytest.raises(InvalidInput):
            Jet1(zero, (1,)).inverse()


def test_polynomial_at_jet_point_gives_value_and_partial():
    # one compose at y = eps_1*e_1 + eps_2*e_2 + eps_3*e_3 recovers p(0) and
    # every dp/dy_i(0), over SparsePoly and over int parts
    rng = random.Random(12)
    variables = ("y1", "y2", "y3")
    origin = [Fraction(0)] * 3
    unit = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    constant = partial(SparsePoly.constant, variables)
    for _ in range(12):
        p = rand_poly(rng, variables)
        gradient = tuple(p.partial(v).evaluate(origin) for v in variables)
        jet = reference_compose(p, [Jet1(0, e) for e in unit])
        assert (jet.value, jet.derivative) == (p.evaluate(origin), gradient)
        jet = reference_compose(p, [Jet1(constant(0), tuple(map(constant, e))) for e in unit])
        assert jet.value == constant(p.evaluate(origin))
        assert jet.derivative == tuple(map(constant, gradient))


def test_jet_restriction_matches_plain_restriction_at_value_level():
    # derivative slots zero -> the jet restriction degenerates to the plain one
    from vmrt import restrict_to_line

    rng = random.Random(15)
    tvars = ("t0", "t1", "t2", "t3")
    f = rand_homogeneous(rng, tvars, 4)
    y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
    jets = restrict_to_line_jets(f, y, [[0] * 3, [0] * 3])
    plain = restrict_to_line(f, y)
    for k in range(5):
        assert jets[k].value == plain[k]
        assert len(jets[k].derivative) == 2
        assert all(d.is_zero for d in jets[k].derivative)
    # no tangents: value-only jets
    assert restrict_to_line_jets(f, y, []) == [Jet1(v, ()) for v in plain]


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_power_matches_repeated_products(k):
    rng = random.Random(20 + k)
    zero = SparsePoly.zero(ZV)
    one = Jet1(SparsePoly.constant(ZV, 1), (zero, zero))

    def poly():
        return rand_poly(rng, ZV, max_degree=2, terms=4)

    jets = [
        Jet1(poly(), (poly(), poly())),
        Jet1(zero, (poly(), poly())),  # eps^k = 0 for k >= 2
        Jet1(SparsePoly.constant(ZV, Fraction(-3, 2)), (zero, zero)),
        Jet1(poly(), (zero, poly())),
    ]
    for j in jets:
        expected = one
        for _ in range(k):
            expected = expected * j
        assert j ** k == expected


def test_power_rejects_negative_and_non_integer_exponents():
    j = Jet1(SparsePoly.constant(ZV, 2), (SparsePoly.constant(ZV, 1),))
    with pytest.raises(InvalidInput):
        j ** -1
    with pytest.raises(InvalidInput):
        j ** Fraction(1, 2)


def test_polynomial_parts_must_share_variables():
    with pytest.raises(InvalidInput):
        Jet1(SparsePoly.zero(ZV), (SparsePoly.zero(("z1", "z2")),))
    with pytest.raises(InvalidInput):
        Jet1(SparsePoly.zero(ZV), (SparsePoly.zero(ZV), SparsePoly.zero(("z1", "z2"))))


@pytest.mark.parametrize(
    "value,derivative",
    [
        (SparsePoly.zero(("z1",)), (0,)),
        (3, (SparsePoly.zero(("z1",)),)),
        (SparsePoly.zero(("z1",)), (SparsePoly.zero(("z1",)), Fraction(1, 2))),
        (Fraction(1, 2), (0, SparsePoly.zero(("z1",)))),
    ],
)
def test_parts_must_live_in_one_ring(value, derivative):
    with pytest.raises(InvalidInput, match="one variable list"):
        Jet1(value, derivative)


@pytest.mark.parametrize("derivative", [0, [1, 2], SparsePoly.zero(("z1",))])
def test_derivative_must_be_a_tuple(derivative):
    with pytest.raises(InvalidInput, match="tuple"):
        Jet1(0, derivative)


def test_jets_with_different_slot_counts_do_not_mix():
    a, b = Jet1(1, (2, 3)), Jet1(4, (5,))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError):
            op()


@pytest.mark.parametrize("other", [1.5, "x"])
def test_mixing_with_other_types_is_rejected(other):
    j = Jet1(parse_poly("z1 + 2", ZV), (parse_poly("z2", ZV),))
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j * other
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j + other


def test_product_rule_over_int_parts():
    rng = random.Random(30)
    for _ in range(20):
        r = rng.randint(0, 3)
        a = Jet1(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(r)))
        b = Jet1(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(r)))
        slots = list(zip(a.derivative, b.derivative))
        prod = a * b
        assert prod.value == a.value * b.value
        assert prod.derivative == tuple(a.value * e + d * b.value for d, e in slots)
        total = a + b
        assert (total.value, total.derivative) == (a.value + b.value, tuple(d + e for d, e in slots))
        diff = a - b
        assert (diff.value, diff.derivative) == (a.value - b.value, tuple(d - e for d, e in slots))


@pytest.mark.parametrize("k", range(6))
def test_power_over_int_parts_matches_repeated_products(k):
    # value-0 jets included: eps^k = 0 for k >= 2
    for j in (Jet1(3, (-2, 4)), Jet1(0, (5, -1)), Jet1(-1, (0, 0)), Jet1(0, (0, 0))):
        expected = Jet1(1, (0, 0))
        for _ in range(k):
            expected = expected * j
        assert j ** k == expected
    assert Jet1(0, (5,)) ** k == Jet1(int(k == 0), (5 * int(k == 1),))
    assert Jet1(2, ()) ** k == Jet1(2 ** k, ())


def test_truth_value_over_both_rings():
    assert not Jet1(0, (0, 0))
    assert not Jet1(0, ())
    assert Jet1(0, (0, 3))
    assert Jet1(2, (0,))
    assert Jet1(2, ())
    zero = SparsePoly.zero(ZV)
    assert not Jet1(zero, (zero, zero))
    assert Jet1(zero, (zero, parse_poly("z1", ZV)))


def test_scalars_act_on_both_parts_over_int_parts():
    j = Jet1(4, (-6, 2))
    assert 3 * j == j * 3 == Jet1(12, (-18, 6))
    assert j * Fraction(1, 2) == Fraction(1, 2) * j == Jet1(2, (-3, 1))
    assert j + 5 == 5 + j == Jet1(9, (-6, 2))
    assert j - Fraction(1, 2) == Jet1(Fraction(7, 2), (-6, 2))
    with pytest.raises(InvalidInput, match="cannot mix Jet1"):
        j * 1.5


def test_restriction_rejects_malformed_points_and_tangents():
    f = parse_poly("t0^2 + t1*t2")
    for point in ([1], [1, 2, 3]):
        with pytest.raises(InvalidInput, match="point must have 2 coordinates"):
            restrict_to_line_jets(f, point, [])
    for tangents in ([[1]], [[1, 2, 3]], [[1, 0], [0, 1, 0]], [[1, 0], [1]], [(1, 2, 3)]):
        with pytest.raises(InvalidInput, match="every tangent must have 2 coordinates"):
            restrict_to_line_jets(f, [0, 0], tangents)
