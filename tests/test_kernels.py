"""Integer kernels against term-by-term Fraction references.

The line restriction (numeric direction, symbolic direction and jet base
point), the sparse product, the gcd of the squarefree factorization and
the resultant clear denominators once and work over the integers.  The
reference functions below are plain Fraction loops (Euclid over Q for the
gcd, Bareiss over SparsePoly entries with a Fraction exact division for
the resultant); each fast result must equal its reference exactly,
coefficient by coefficient (and, for the product and the resultant, in
the same term order).
"""

import random
from fractions import Fraction
from itertools import product
from math import comb
from unittest import mock

import pytest

from vmrt import (
    BasePointOnBranch,
    Hypersurface,
    Jet1,
    SparsePoly,
    UniPoly,
    build_converse,
    count_vmrt_points,
    lines,
    parse_poly,
    restrict_to_line,
    restrict_to_line_jets,
    resultant,
    squarefree_factorization,
    unipoly,
    vmrt_equations,
)
from vmrt.poly import grevlex_key
from vmrt.sampling import rand_direction, rand_homogeneous, rand_point, rand_point_off_branch
from vmrt.selftest import WITNESS_COMBOS
from vmrt.unipoly import poly_gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_restrict(f, point, direction):
    """f(1, y + lam*z) expanded term by term in Fraction arithmetic."""
    n = len(f.vars) - 1
    d = f.homogeneous_degree()
    y = [Fraction(v) for v in point]
    z = [Fraction(v) for v in direction]
    out = [_ZERO] * (d + 1)
    for exp, c in f.terms.items():
        cur = [c]
        for i in range(1, n + 1):
            e = exp[i]
            if e == 0:
                continue
            yi, zi = y[i - 1], z[i - 1]
            fac = [comb(e, k) * yi ** (e - k) * zi ** k for k in range(e + 1)]
            new = [_ZERO] * (len(cur) + e)
            for a, ca in enumerate(cur):
                if ca == 0:
                    continue
                for b, cb in enumerate(fac):
                    if cb != 0:
                        new[a + b] += ca * cb
            cur = new
        for k, val in enumerate(cur):
            out[k] += val
    return out


def reference_symbolic_restrict(f, point):
    """f(1, y + lam*z) with symbolic z, expanded term by term in Fractions.

    Entry k is the degree-k part in z, a SparsePoly over z1..zn.
    """
    n = len(f.vars) - 1
    d = f.homogeneous_degree()
    y = [Fraction(v) for v in point]
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    buckets = [dict() for _ in range(d + 1)]
    for exp, c in f.terms.items():
        options = []
        for i in range(1, n + 1):
            e = exp[i]
            yi = y[i - 1]
            if yi == 0:
                options.append(((e, Fraction(1)),))
            else:
                options.append(tuple((k, comb(e, k) * yi ** (e - k)) for k in range(e + 1)))
        for combo in product(*options):
            val = c
            for _, w in combo:
                val *= w
            zexp = tuple(k for k, _ in combo)
            bucket = buckets[sum(zexp)]
            bucket[zexp] = bucket.get(zexp, _ZERO) + val
    return [SparsePoly(zvars, b) for b in buckets]


def reference_jet_restrict(f, point_jets):
    """f(1, y + lam*z) at a jet point y, symbolic z, expanded in Fractions.

    `point_jets` holds one (value, derivative) pair per coordinate; entry k
    is the Jet1 of the degree-k part in z.
    """
    n = len(f.vars) - 1
    d = f.homogeneous_degree()
    y = [(Fraction(v), Fraction(dv)) for v, dv in point_jets]
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    vals: list[dict] = [dict() for _ in range(d + 1)]
    ders: list[dict] = [dict() for _ in range(d + 1)]

    def jet_pow(v, dv, p):
        if p == 0:
            return (_ONE, _ZERO)
        if v == 0:
            # eps^p with eps^2 = 0
            return (_ZERO, dv) if p == 1 else (_ZERO, _ZERO)
        return (v ** p, p * v ** (p - 1) * dv)

    for exp, c in f.terms.items():
        options = []
        dead = False
        for i in range(1, n + 1):
            e = exp[i]
            vi, di = y[i - 1]
            opts = []
            for k in range(e + 1):
                pv, pd = jet_pow(vi, di, e - k)
                if pv == 0 and pd == 0:
                    continue
                b = comb(e, k)
                opts.append((k, b * pv, b * pd))
            if not opts:
                dead = True
                break
            options.append(opts)
        if dead:
            continue
        stack = [((), _ONE, _ZERO)]
        for opts in options:
            nxt = []
            for zpart, av, ad in stack:
                for k, bv, bd in opts:
                    nxt.append((zpart + (k,), av * bv, av * bd + ad * bv))
            stack = nxt
        for zexp, av, ad in stack:
            k = sum(zexp)
            if av:
                vals[k][zexp] = vals[k].get(zexp, _ZERO) + c * av
            if ad:
                ders[k][zexp] = ders[k].get(zexp, _ZERO) + c * ad
    return [
        Jet1(SparsePoly(zvars, vals[k]), SparsePoly(zvars, ders[k]))
        for k in range(d + 1)
    ]


def reference_mul(p, q):
    """p * q accumulated term by term in Fraction arithmetic."""
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            acc[exp] = acc.get(exp, _ZERO) + c1 * c2
    return SparsePoly(p.vars, acc)


def reference_poly_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm on Fraction coefficients."""
    while not b.is_zero:
        rem = list(a.coeffs)
        inv = 1 / b.leading()
        db = b.degree()
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] * inv
            for j in range(db + 1):
                rem[i - db + j] -= c * b.coeffs[j]
        a, b = b, UniPoly(rem[:db])
    return a if a.is_zero else a.monic()


def reference_squarefree(p):
    """Yun's factorization with every gcd taken by reference_poly_gcd."""
    with mock.patch.object(unipoly, "poly_gcd", reference_poly_gcd):
        return squarefree_factorization(p)


def reference_exact_div(num, den):
    """num / den for SparsePolys, leading grevlex term at a time, in Fractions."""
    rem = dict(num.terms)
    quot = {}
    d_exp, d_coeff = den.leading_term()
    while rem:
        r_exp = max(rem, key=grevlex_key)
        diff = tuple(a - b for a, b in zip(r_exp, d_exp))
        assert min(diff) >= 0, "division is not exact"
        c = rem[r_exp] / d_coeff
        quot[diff] = quot.get(diff, _ZERO) + c
        for exp, k in den.terms.items():
            tgt = tuple(a + b for a, b in zip(diff, exp))
            val = rem.get(tgt, _ZERO) - c * k
            if val == 0:
                rem.pop(tgt, None)
            else:
                rem[tgt] = val
    return SparsePoly(num.vars, quot)


def reference_resultant(p, q, var):
    """Sylvester resultant by Bareiss over SparsePoly entries in Fractions (p's rows on top)."""
    i = p.vars.index(var)

    def coeff_list(f):
        buckets = [dict() for _ in range(f.degree_in(var) + 1)]
        for exp, c in f.terms.items():
            buckets[exp[i]][exp[:i] + (0,) + exp[i + 1:]] = c
        return [SparsePoly(f.vars, b) for b in buckets]

    pc, qc = coeff_list(p), coeff_list(q)
    d, e = len(pc) - 1, len(qc) - 1
    n = d + e
    zero = SparsePoly.zero(p.vars)
    m = [[zero] * k + pc + [zero] * (e - 1 - k) for k in range(e)]
    m += [[zero] * k + qc + [zero] * (d - 1 - k) for k in range(d)]
    sign = 1
    prev = SparsePoly.constant(p.vars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((r for r in range(k + 1, n) if not m[r][k].is_zero), None)
            if swap is None:
                return zero
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for r in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[k][k] * m[r][j] - m[r][k] * m[k][j]
                m[r][j] = reference_exact_div(elt, prev)
            m[r][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def tvars(n):
    return tuple(f"t{i}" for i in range(n + 1))


def integer_form(rng, n, degree):
    """Dense form of the given degree with nonzero integer coefficients."""
    monos = rand_homogeneous(rng, tvars(n), degree).terms
    return SparsePoly(tvars(n), {e: Fraction(rng.choice((-9, -2, 1, 7))) for e in monos})


def assert_same_restriction(f, y, z):
    fast = restrict_to_line(f, y, z)
    ref = reference_restrict(f, y, z)
    assert type(fast) is list
    assert len(fast) == len(ref) == f.homogeneous_degree() + 1
    for a, b in zip(fast, ref):
        assert type(a) is Fraction
        assert a == b


def assert_same_symbolic_restriction(f, y):
    fast = restrict_to_line(f, y)
    ref = reference_symbolic_restrict(f, y)
    assert type(fast) is list
    assert len(fast) == len(ref) == f.homogeneous_degree() + 1
    for a, b in zip(fast, ref):
        assert type(a) is SparsePoly
        assert a == b
        assert all(type(c) is Fraction for c in a.terms.values())


def assert_same_jet_restriction(f, point_jets):
    fast = restrict_to_line_jets(f, point_jets)
    ref = reference_jet_restrict(f, point_jets)
    assert len(fast) == len(ref) == f.homogeneous_degree() + 1
    assert fast == ref
    for a, b in zip(fast, ref):
        assert a.value == b.value and a.derivative == b.derivative
        for part in (a.value, a.derivative):
            assert all(type(c) is Fraction for c in part.terms.values())


def assert_same_product(p, q):
    fast = p * q
    ref = reference_mul(p, q)
    assert fast.terms == ref.terms
    assert list(fast.terms) == list(ref.terms)
    assert all(type(c) is Fraction for c in fast.terms.values())


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_restriction_matches_reference_on_random_lines(n, m):
    rng = random.Random(1000 * n + m)
    for _ in range(2):
        f = rand_homogeneous(rng, tvars(n), 2 * m)
        assert_same_restriction(f, rand_point(rng, n), rand_direction(rng, n))


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_symbolic_restriction_matches_reference(n, m):
    rng = random.Random(3000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    assert_same_symbolic_restriction(f, rand_point(rng, n))


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_product_matches_reference_on_witness_factors(n, m):
    rng = random.Random(2000 * n + m)
    q = rand_homogeneous(rng, tvars(n), m)
    r = rand_homogeneous(rng, tvars(n), 2 * m - 1)
    assert_same_product(q, q)
    assert_same_product(q, r)
    linear = rand_homogeneous(rng, tvars(n), 1)
    assert_same_product(linear, r)


class TestRestrictionEdges:
    def test_integer_only_inputs(self):
        f = integer_form(random.Random(5), 3, 4)
        assert_same_restriction(f, [2, -1, 3], [1, 0, -4])

    def test_heterogeneous_and_negative_denominators(self):
        f = parse_poly("1/3*t0^4 - 5/7*t1^2*t2^2 + 2/9*t0*t3^3 - 11/4*t1*t2*t3^2")
        y = [Fraction(1, 2), Fraction(-5, 3), Fraction(7, -11)]
        z = [Fraction(-3, 8), Fraction(4, 5), Fraction(1, 6)]
        assert_same_restriction(f, y, z)

    def test_zero_point_coordinates(self):
        rng = random.Random(7)
        f = rand_homogeneous(rng, tvars(4), 4)
        assert_same_restriction(f, [0, 0, 0, 0], rand_direction(rng, 4))
        assert_same_restriction(f, [0, Fraction(2, 3), 0, -1], rand_direction(rng, 4))

    def test_all_zero_direction(self):
        rng = random.Random(8)
        f = rand_homogeneous(rng, tvars(3), 4)
        y = rand_point(rng, 3)
        assert_same_restriction(f, y, [0, 0, 0])
        assert restrict_to_line(f, y, [0, 0, 0])[1:] == [_ZERO] * 4

    def test_pure_t0_power(self):
        f = parse_poly("3/5*t0^6", tvars(3))
        assert_same_restriction(f, [Fraction(1, 2), 3, -1], [1, Fraction(2, 7), 0])
        assert restrict_to_line(f, [1, 2, 3], [4, 5, 6]) == [Fraction(3, 5)] + [_ZERO] * 6


class TestSymbolicRestrictionEdges:
    def test_integer_only_inputs(self):
        f = integer_form(random.Random(15), 3, 4)
        assert_same_symbolic_restriction(f, [2, -1, 3])

    def test_heterogeneous_and_negative_denominators(self):
        f = parse_poly("1/3*t0^4 - 5/7*t1^2*t2^2 + 2/9*t0*t3^3 - 11/4*t1*t2*t3^2")
        assert_same_symbolic_restriction(f, [Fraction(1, 2), Fraction(-5, 3), Fraction(7, -11)])

    def test_zero_coordinates_and_origin(self):
        rng = random.Random(17)
        f = rand_homogeneous(rng, tvars(4), 4)
        assert_same_symbolic_restriction(f, [0, 0, 0, 0])
        assert_same_symbolic_restriction(f, [0, Fraction(2, 3), 0, -1])

    def test_pure_t0_power(self):
        f = parse_poly("3/5*t0^6", tvars(3))
        assert_same_symbolic_restriction(f, [Fraction(1, 2), 3, -1])
        rest = restrict_to_line(f, [1, 2, 3])
        assert rest[0].constant_value() == Fraction(3, 5)
        assert all(rest[k].is_zero for k in range(1, 7))

    def test_single_term(self):
        f = parse_poly("-7/4*t1^2*t3^2", tvars(3))
        assert_same_symbolic_restriction(f, [Fraction(2, 3), 5, Fraction(-1, 2)])
        assert_same_symbolic_restriction(f, [1, 0, 0])


def unit_jets(n, i):
    """The jet point eps*e_i that dmu_jet restricts at."""
    return [(0, 1 if j == i else 0) for j in range(n)]


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_restriction_matches_reference_at_unit_jets(n, m):
    rng = random.Random(4000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    for i in range(n):
        assert_same_jet_restriction(f, unit_jets(n, i))


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_restriction_matches_reference_on_general_pairs(n, m):
    rng = random.Random(5000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    dens = (1, 2, -3, 5, -7, 9)
    pairs = [
        (Fraction(rng.randint(-9, 9), rng.choice(dens)), Fraction(rng.randint(-9, 9), rng.choice(dens)))
        for _ in range(n)
    ]
    assert_same_jet_restriction(f, pairs)
    # zero values: every power of a coordinate is eps^p, zero for p >= 2
    assert_same_jet_restriction(f, [(0, dv) for _, dv in pairs])
    # zero derivatives: the value parts are the plain restriction
    assert_same_jet_restriction(f, [(v, 0) for v, _ in pairs])


class TestJetRestrictionEdges:
    def test_mixed_zero_values_and_derivatives(self):
        f = parse_poly("1/3*t0^4 - 5/7*t1^2*t2^2 + 2/9*t0*t3^3 - 11/4*t1*t2*t3^2")
        pairs = [(Fraction(1, 2), 0), (0, Fraction(-5, 3)), (Fraction(7, -11), Fraction(3, 4))]
        assert_same_jet_restriction(f, pairs)
        assert_same_jet_restriction(f, [(0, 0), (0, 0), (0, 0)])

    def test_all_zero_derivatives_give_the_plain_restriction(self):
        rng = random.Random(19)
        f = rand_homogeneous(rng, tvars(4), 4)
        y = rand_point(rng, 4)
        jets = restrict_to_line_jets(f, [(c, 0) for c in y])
        assert_same_jet_restriction(f, [(c, 0) for c in y])
        assert [j.value for j in jets] == restrict_to_line(f, y)
        assert all(j.derivative.is_zero for j in jets)

    def test_pure_t0_power(self):
        f = parse_poly("3/5*t0^6", tvars(3))
        assert_same_jet_restriction(f, [(Fraction(1, 2), 1), (3, -2), (-1, Fraction(1, 3))])
        f0 = parse_poly("3/5*t0^6", ("t0",))
        assert_same_jet_restriction(f0, [])

    def test_single_term(self):
        f = parse_poly("-7/4*t1^2*t3^2", tvars(3))
        assert_same_jet_restriction(f, [(Fraction(2, 3), 1), (5, 0), (0, Fraction(-1, 2))])


def test_equations_at_a_point_on_the_branch_raise_with_the_point():
    hyp = Hypersurface(parse_poly("t0^4 - t1^4 + 1/2*t2^4"))
    with pytest.raises(BasePointOnBranch) as err:
        vmrt_equations(hyp, [1, 0])
    assert str(err.value) == "f(1, 1, 0) = 0"


class TestProductEdges:
    def test_zero_operand(self):
        p = parse_poly("1/2*t0^2 - t1*t2", tvars(2))
        zero = SparsePoly.zero(tvars(2))
        assert_same_product(p, zero)
        assert_same_product(zero, p)
        assert (p * zero).is_zero

    def test_constant_operand(self):
        p = parse_poly("1/2*t0^2 - 3/4*t1*t2 + 5*t2^2", tvars(2))
        assert_same_product(p, SparsePoly.constant(tvars(2), Fraction(-2, 3)))
        assert_same_product(SparsePoly.constant(tvars(2), 6), p)

    def test_single_term_operand(self):
        p = parse_poly("1/2*t0^2 - 3/4*t1*t2 + 5*t2^2", tvars(2))
        assert_same_product(p, parse_poly("-7/6*t1", tvars(2)))

    def test_cancellation_drops_terms(self):
        a = parse_poly("1/2*t1 + 1/3*t2", tvars(2))
        b = parse_poly("1/2*t1 - 1/3*t2", tvars(2))
        assert_same_product(a, b)
        assert (a * b) == parse_poly("1/4*t1^2 - 1/9*t2^2", tvars(2))

    def test_integer_only_operands(self):
        rng = random.Random(11)
        assert_same_product(integer_form(rng, 3, 2), integer_form(rng, 3, 3))


def assert_same_resultant(p, q, var):
    fast = resultant(p, q, var)
    ref = reference_resultant(p, q, var)
    assert list(fast.terms.items()) == list(ref.terms.items())
    assert all(type(c) is Fraction for c in fast.terms.values())
    return fast


def assert_same_gcd(a, b):
    fast = poly_gcd(a, b)
    assert fast.coeffs == reference_poly_gcd(a, b).coeffs
    assert all(type(c) is Fraction for c in fast.coeffs)
    return fast


def point_count_inputs(monkeypatch, hyp, point, seed):
    """The resultant operands and the squarefree-tested form of one count_vmrt_points run."""
    seen = {}

    def spy_resultant(p, q, var):
        seen["resultant"] = (p, q, var)
        return resultant(p, q, var)

    def spy_squarefree(p):
        seen["squarefree"] = p
        return squarefree_factorization(p)

    monkeypatch.setattr(lines, "resultant", spy_resultant)
    monkeypatch.setattr(lines, "squarefree_factorization", spy_squarefree)
    count_vmrt_points(hyp, point, seed)
    monkeypatch.undo()
    return seen["resultant"], seen["squarefree"]


def assert_same_point_count_kernels(monkeypatch, hyp, point, seed):
    (p, q, var), form = point_count_inputs(monkeypatch, hyp, point, seed)
    assert_same_resultant(p, q, var)
    monic = form.monic()
    assert_same_gcd(monic, monic.derivative())
    assert squarefree_factorization(form) == reference_squarefree(form)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_point_count_kernels_match_references(monkeypatch, seed):
    rng = random.Random(seed)
    zv = ("z1", "z2", "z3")
    hyp = build_converse([rand_homogeneous(rng, zv, 3), rand_homogeneous(rng, zv, 4)])
    assert_same_point_count_kernels(monkeypatch, hyp, rand_point_off_branch(rng, hyp), seed)


def test_decomposable_point_count_system_matches_references(monkeypatch):
    # the system of tests/test_lines.py::TestBezoutEnumeration
    zv = ("z1", "z2", "z3")
    b4 = SparsePoly.constant(zv, 1)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for c in ((1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1)):
        b4 = b4 * SparsePoly(zv, {e: Fraction(k) for e, k in zip(units, c)})
    hyp = build_converse([parse_poly("z1*z2*z3", zv), b4])
    assert_same_point_count_kernels(monkeypatch, hyp, [0, 0, 0], 2)


class TestResultantEdges:
    ZV = ("z1", "z2", "z3")

    def test_row_swap_for_a_pair_divisible_by_z3(self):
        p = parse_poly("z3^2 + z1*z3", self.ZV)  # no z3^0 coefficient: zero first pivot
        q = parse_poly("2*z3^3 - z1^2*z3 + z2^3 + 1/2*z1*z2^2", self.ZV)
        assert not assert_same_resultant(p, q, "z3").is_zero
        assert_same_resultant(q, p, "z3")

    def test_shared_factor_gives_zero(self):
        common = parse_poly("z3 - 2*z1 + 1/3*z2", self.ZV)
        p = common * parse_poly("z3 + z2", self.ZV)
        q = common * parse_poly("z3^2 - 5/4*z1*z2", self.ZV)
        assert assert_same_resultant(p, q, "z3").is_zero

    def test_integer_only_operands(self):
        rng = random.Random(41)
        p = integer_form(rng, 2, 3).rename(self.ZV)
        q = integer_form(rng, 2, 2).rename(self.ZV)
        assert_same_resultant(p, q, "z3")

    def test_negative_and_mixed_denominators(self):
        p = parse_poly("-3/7*z3^3 + 5/4*z1*z3^2 - 2/9*z2^2*z3 + z1^3", self.ZV)
        q = parse_poly("1/6*z3^2 - 7*z1*z2 + 11/10*z2*z3", self.ZV)
        assert_same_resultant(p, q, "z3")
        assert_same_resultant(q, p, "z3")
        assert_same_resultant(p, q, "z1")

    def test_linear_pair(self):
        # one Bareiss step divides by nothing; the terms still come out in quotient order
        p = parse_poly("z1*z3 + 1/2*z2^2 - z1*z2 + 3*z1^2", self.ZV)
        q = parse_poly("-4/3*z2*z3 + z1^2 + 5*z2^2", self.ZV)
        assert_same_resultant(p, q, "z3")

    def test_degree_zero_operand(self):
        p = parse_poly("2/3*z3 - z1", self.ZV)
        q = parse_poly("-5/2*z1^2 + z2^2", self.ZV)
        assert_same_resultant(p, q, "z3")
        assert_same_resultant(q, p, "z3")


class TestGcdEdges:
    def test_constant_operand(self):
        p = UniPoly([Fraction(1, 2), -3, Fraction(5, 7)])
        assert assert_same_gcd(p, UniPoly([Fraction(-4, 9)])).coeffs == (1,)
        assert assert_same_gcd(UniPoly([3]), p).coeffs == (1,)

    def test_zero_operands(self):
        p = UniPoly([Fraction(1, 2), -3, Fraction(5, 7)])
        assert_same_gcd(p, UniPoly([]))
        assert_same_gcd(UniPoly([]), p)
        assert assert_same_gcd(UniPoly([]), UniPoly([])).is_zero

    def test_equal_operands(self):
        p = UniPoly([Fraction(-1, 3), 0, Fraction(7, 2), Fraction(-2, 5)])
        assert assert_same_gcd(p, p) == p.monic()

    def test_coprime_operands(self):
        a = UniPoly([1, 0, 1])
        b = UniPoly([Fraction(-2, 3), 0, 0, Fraction(9, 4)])
        assert assert_same_gcd(a, b).coeffs == (1,)

    def test_integer_negative_and_mixed_denominators(self):
        g = UniPoly([Fraction(3, -4), 1, Fraction(-5, 6)])
        assert_same_gcd(g * UniPoly([2, -7, 1]), g * UniPoly([-3, 0, 0, 11]))
        assert_same_gcd(g * UniPoly([Fraction(1, 9), Fraction(-2, 5)]), g * g)
        assert_same_gcd(UniPoly([6, -4, 12]) * UniPoly([5, 1]), UniPoly([10, 2]))
