"""Integer kernels against term-by-term Fraction references.

The line restriction (numeric direction, symbolic direction and jet base
point), the sparse product, the gcd of the squarefree factorization and
the resultant clear denominators once and work over the integers.  The
reference functions below are plain Fraction loops (Euclid over Q for the
gcd, Bareiss over SparsePoly entries with a Fraction exact division for
the resultant); each fast result must equal its reference exactly,
coefficient by coefficient (and, for the product and the resultant, in
the same term order).

The certificate family, the equations and the jet differential run the
half-square recursion `eco._half_square`.  Their references solve the
recursion by a plain symbolic loop for the certificate polynomials A_k
and compose the A_k with the same inputs.  Results must agree by `==`
and in their printed text.

`QMatrix.rank` certifies the rank mod 2^61 - 1 and falls back to Bareiss
over the integers; its reference is a plain Fraction Gauss-Jordan
elimination that shares no code with either.

`rand_homogeneous` draws integers over one denominator and `eco_witness`
builds f as one fused integer sum of products.  Their references are the
plain `rand_fraction` loop, which must leave the generator in the same
state, and f = Q*Q + L_1*R_1 + ... by SparsePoly products and sums of
Fraction draws.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from unittest import mock

import pytest

from vmrt import (
    BasePointOnBranch,
    Hypersurface,
    Jet1,
    QMatrix,
    SparsePoly,
    UniPoly,
    build_converse,
    build_family,
    count_vmrt_points,
    eco_witness,
    explicit_family,
    format_poly,
    lines,
    parse_poly,
    recenter,
    restrict_to_line,
    restrict_to_line_jets,
    resultant,
    squarefree_factorization,
    unipoly,
    variation_report,
    vmrt_equations,
)
from vmrt import linalg
from vmrt.eco import _half_square
from vmrt.poly import grevlex_key, monomials_of_degree
from vmrt.sampling import rand_direction, rand_fraction, rand_homogeneous, rand_point, rand_point_off_branch
from vmrt.selftest import WITNESS_COMBOS
from vmrt.unipoly import poly_gcd
from vmrt.variation import MonomialBasis, coeff_vector, dmu_jet

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


def reference_rand_homogeneous(rng, variables, degree, nonzero=True):
    """One rand_fraction per monomial, kept when nonzero; resampled while all are zero."""
    monos = monomials_of_degree(len(variables), degree)
    while True:
        terms = {}
        for exp in monos:
            c = rand_fraction(rng)
            if c != 0:
                terms[exp] = c
        if terms or not nonzero:
            return SparsePoly(tuple(variables), terms)


def reference_eco_witness(n, m, point, direction, seed):
    """f = Q^2 + sum L_j R_j by SparsePoly products and sums of Fraction draws."""
    y = tuple(Fraction(c) for c in point)
    z = tuple(Fraction(c) for c in direction)
    rng = random.Random(seed)
    tv = tvars(n)
    pivot = next(i for i, c in enumerate(z) if c != 0)
    t = [SparsePoly.variable(tv, v) for v in tv]
    shifted = [t[i + 1] - t[0] * y[i] for i in range(n)]
    linear_forms = [shifted[i] * z[pivot] - shifted[pivot] * z[i] for i in range(n) if i != pivot]
    while True:
        q = reference_rand_homogeneous(rng, tv, m)
        if q.evaluate((_ONE,) + y) != 0:
            break
    f = q * q
    for form in linear_forms:
        f = f + form * reference_rand_homogeneous(rng, tv, 2 * m - 1)
    return f


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
    d_exp = max(den.terms, key=grevlex_key)
    d_coeff = den.terms[d_exp]
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


@lru_cache(maxsize=None)
def reference_family(m):
    """Root polys G_0..G_m and tails {k: A_k} by the plain symbolic loop, one product per pair."""
    variables = tuple(f"t{i}" for i in range(1, m + 1))
    g = [SparsePoly.constant(variables, 1)]
    for k in range(1, m + 1):
        acc = SparsePoly.variable(variables, f"t{k}")
        for i in range(1, k):
            acc = acc - g[i] * g[k - i]
        g.append(acc * Fraction(1, 2))
    tails = {}
    for k in range(m + 1, 2 * m + 1):
        acc = SparsePoly.zero(variables)
        for ell in range(k - m, m + 1):
            acc = acc + g[ell] * g[k - ell]
        tails[k] = acc
    return g, tails


def reference_vmrt_equations(hyp, point):
    """[B_{m+1}, ..., B_{2m}] with A_k composed with the ratio forms a_1/a_0, ..., a_m/a_0."""
    m = hyp.m
    rest = restrict_to_line(hyp.f, point)
    inv = 1 / rest[0].constant_value()
    ratios = [rest[k] * inv for k in range(1, m + 1)]
    _, tails = reference_family(m)
    return [rest[k] * inv - tails[k].compose(ratios) for k in range(m + 1, 2 * m + 1)]


def reference_recenter(hyp, point):
    """f(t0, t1 + y_1*t0, ..., tn + y_n*t0) / f(1, y), by composing f with the shifted variables."""
    y = [Fraction(v) for v in point]
    tv = hyp.f.vars
    t0 = SparsePoly.variable(tv, "t0")
    args = [t0] + [SparsePoly.variable(tv, v) + t0 * yi for v, yi in zip(tv[1:], y)]
    return Hypersurface(hyp.f.compose(args) * (1 / hyp.affine_value(y)))


def reference_jet_tail(ratios, m):
    """A_{m+1} composed with the Jet1 ratios a_1/a_0, ..., a_m/a_0."""
    return reference_family(m)[1][m + 1].compose(ratios)


def reference_rank(mat):
    """Rank over Q by Gauss-Jordan elimination on the Fraction entries."""
    rows = [list(row) for row in mat.data]
    rank = 0
    for c in range(mat.cols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pivot = [x / rows[rank][c] for x in rows[rank]]
        rows[rank] = pivot
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


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


def assert_same_polys(fast, ref):
    assert list(fast) == list(ref)
    assert [format_poly(p) for p in fast] == [format_poly(p) for p in ref]
    assert all(type(c) is Fraction for p in fast for c in p.terms.values())


def assert_same_equations(hyp, point):
    assert_same_polys(vmrt_equations(hyp, point).equations, reference_vmrt_equations(hyp, point))


@pytest.mark.parametrize("m", range(1, 7))
def test_family_matches_the_symbolic_loop(m):
    fam = build_family(m)
    roots, tails = reference_family(m)
    assert_same_polys(fam.root_polys, roots)
    assert list(fam.tail_polys) == list(tails)
    assert_same_polys(fam.tail_polys.values(), tails.values())


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_equations_match_composed_tails_at_random_points(n, m):
    rng = random.Random(6000 * n + m)
    for _ in range(2):
        hyp = Hypersurface(rand_homogeneous(rng, tvars(n), 2 * m))
        assert_same_equations(hyp, rand_point_off_branch(rng, hyp))
        assert lines._from_graded_parts(hyp.graded_parts()) == hyp


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_equations_match_composed_tails_at_the_origin(n, m):
    # converse inputs: a_0 = 1 and a_1 = ... = a_m = 0, so every sigma_k vanishes
    rng = random.Random(7000 * n + m)
    zv = tuple(f"z{i}" for i in range(1, n + 1))
    b = [rand_homogeneous(rng, zv, k) for k in range(m + 1, 2 * m + 1)]
    hyp = build_converse(b)
    assert_same_equations(hyp, [0] * n)
    assert list(vmrt_equations(hyp, [0] * n).equations) == b


def reference_dmu_jet_columns(hyp):
    """Derivative parts of B_{m+1} at eps*e_i, the tail taken by composing A_{m+1}."""
    m, n = hyp.m, hyp.n
    out = []
    for i in range(n):
        a = restrict_to_line_jets(hyp.f, unit_jets(n, i))
        inv0 = a[0].inverse()
        ratios = [a[j] * inv0 for j in range(1, m + 1)]
        out.append((a[m + 1] * inv0 - reference_jet_tail(ratios, m)).derivative)
    return out


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_tails_match_composed_tail_at_unit_jets(n, m):
    rng = random.Random(8000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    # dmu_jet requires f(1, 0, ..., 0) = 1
    f = f + (1 - f.coefficient((2 * m,) + (0,) * n)) * SparsePoly.variable(tvars(n), "t0") ** (2 * m)
    for i in range(n):
        a = restrict_to_line_jets(f, unit_jets(n, i))
        inv0 = a[0].inverse()
        ratios = [a[j] * inv0 for j in range(1, m + 1)]
        _, tails = _half_square(ratios, m + 1)
        ref = reference_jet_tail(ratios, m)
        assert tails == [ref]
        assert_same_polys([tails[0].value, tails[0].derivative], [ref.value, ref.derivative])
    hyp = Hypersurface(f)
    columns = dmu_jet(hyp)
    ref_columns = reference_dmu_jet_columns(hyp)
    basis = MonomialBasis(n, m + 1)
    assert [columns.column(i) for i in range(n)] == [coeff_vector(p, basis) for p in ref_columns]


def test_equations_at_a_point_on_the_branch_raise_with_the_point():
    hyp = Hypersurface(parse_poly("t0^4 - t1^4 + 1/2*t2^4"))
    with pytest.raises(BasePointOnBranch) as err:
        vmrt_equations(hyp, [1, 0])
    assert str(err.value) == "f(1, 1, 0) = 0"


def assert_same_recenter(hyp, point):
    fast = recenter(hyp, point)
    ref = reference_recenter(hyp, point)
    assert fast == ref
    assert format_poly(fast.f) == format_poly(ref.f)
    assert all(type(c) is Fraction for c in fast.f.terms.values())
    return fast


@pytest.mark.parametrize("n,m", WITNESS_COMBOS + ((5, 3),))
def test_recenter_matches_composed_shift_at_random_points(n, m):
    rng = random.Random(9000 * n + m)
    for _ in range(2):
        hyp = Hypersurface(rand_homogeneous(rng, tvars(n), 2 * m))
        moved = assert_same_recenter(hyp, rand_point_off_branch(rng, hyp))
        assert moved.f.coefficient((2 * m,) + (0,) * n) == 1


class TestRecenterEdges:
    F = parse_poly("2*t0^4 - 1/3*t0^3*t1 + t0*t2^3 + 5/2*t1^2*t2*t3 - 7*t3^4 + t0^2*t1*t3", tvars(3))

    @pytest.mark.parametrize(
        "point",
        [
            [0, 0, 0],
            [1, 2, -3],
            [-4, -1, -2],
            [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 6)],
            [0, Fraction(-2, 9), 0],
            [3, 0, Fraction(-1, 4)],
        ],
    )
    def test_points(self, point):
        assert_same_recenter(Hypersurface(self.F), point)

    def test_origin_of_a_normalized_form_is_fixed(self):
        hyp = Hypersurface(self.F * Fraction(1, 2))
        assert assert_same_recenter(hyp, [0, 0, 0]) == hyp

    def test_explicit_family(self):
        hyp = explicit_family(4, 2, Fraction(5, 7), 1)
        assert_same_recenter(hyp, [Fraction(1, 2), 0, Fraction(-3, 5), 2])
        hyp = explicit_family(5, 3, 1, Fraction(2, 3))
        assert_same_recenter(hyp, [0, Fraction(1, 3), 0, -1, Fraction(7, 4)])

    def test_fermat_form(self):
        assert_same_recenter(Hypersurface(parse_poly("t0^6 + t1^6 + t2^6 + t3^6 + t4^6")), [1, -1, 0, 2])

    def test_point_on_the_branch_raises_with_the_point(self):
        hyp = Hypersurface(parse_poly("t0^4 - t1^4 + 1/2*t2^4"))
        with pytest.raises(BasePointOnBranch) as err:
            recenter(hyp, [1, 0])
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


@pytest.mark.parametrize(
    "nvars,degree,nonzero,seed",
    [(1, 0, True, 7), (2, 3, True, 1), (3, 2, False, 2), (4, 4, True, 3), (6, 7, True, 4), (1, 0, False, 7)],
)
def test_rand_homogeneous_matches_the_fraction_loop(nvars, degree, nonzero, seed):
    variables = tvars(nvars - 1)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(3):
        fast = rand_homogeneous(rng, variables, degree, nonzero)
        ref = reference_rand_homogeneous(twin, variables, degree, nonzero)
        assert list(fast.terms.items()) == list(ref.terms.items())
        assert all(type(c) is Fraction for c in fast.terms.values())
    assert rng.getstate() == twin.getstate()


def test_rand_homogeneous_resamples_an_all_zero_draw():
    assert rand_fraction(random.Random(7)) == 0  # the first draw of seed 7 is zero
    rng, twin = random.Random(7), random.Random(7)
    fast = rand_homogeneous(rng, ("t0",), 3)
    assert not fast.is_zero
    assert fast == reference_rand_homogeneous(twin, ("t0",), 3)
    assert rng.getstate() == twin.getstate()
    assert rand_homogeneous(random.Random(7), ("t0",), 3, nonzero=False).is_zero


@pytest.mark.parametrize(
    "n,m,point,direction,seed",
    [
        (3, 2, (0, Fraction(1, 2), -3), (0, 2, Fraction(-1, 3)), 11),
        (4, 2, (0, 0, 0, 0), (0, 0, 5, 1), 12),
        (4, 3, (Fraction(2, 3), 0, -1, 0), (1, 0, 0, -2), 13),
        (5, 4, (Fraction(1, 2), -1, 0, 3, Fraction(1, 5)), (0, 0, 0, 1, Fraction(7, 3)), 14),
    ],
)
def test_witness_matches_the_fraction_construction(n, m, point, direction, seed):
    f = eco_witness(n, m, point, direction, seed).f
    assert f.terms == reference_eco_witness(n, m, point, direction, seed).terms
    assert all(type(c) is Fraction for c in f.terms.values())


def test_witness_resamples_q_that_vanishes_at_the_point():
    # the point lies on the zero line of the first linear Q drawn for seed 3
    first_q = reference_rand_homogeneous(random.Random(3), tvars(2), 1)
    a, b = first_q.coefficient((1, 0, 0)), first_q.coefficient((0, 1, 0))
    assert b != 0
    point = (-a / b, 0)
    assert first_q.evaluate((1,) + point) == 0
    f = eco_witness(2, 1, point, (1, 1), 3).f
    assert f.terms == reference_eco_witness(2, 1, point, (1, 1), 3).terms


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
        p = SparsePoly(self.ZV, integer_form(rng, 2, 3).terms)
        q = SparsePoly(self.ZV, integer_form(rng, 2, 2).terms)
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


# -- rank ------------------------------------------------------------------

P = (1 << 61) - 1


def assert_same_rank(mat):
    fast = mat.rank()
    assert fast == reference_rank(mat)
    return fast


def rand_rational_matrix(rng, rows, cols):
    return QMatrix(
        [[Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(cols)] for _ in range(rows)]
    )


def combine(rng, vectors, count):
    """`count` random integer combinations of the given equal-length vectors."""
    return [
        [sum((k * v[j] for k, v in zip(ks, vectors)), _ZERO) for j in range(len(vectors[0]))]
        for ks in ([rng.randint(-5, 5) for _ in vectors] for _ in range(count))
    ]


@pytest.mark.parametrize("rows,cols", [(6, 3), (3, 6), (5, 5), (1, 4), (4, 1), (9, 8)])
def test_rank_of_random_full_matrices(rows, cols):
    rng = random.Random(rows * 31 + cols)
    for _ in range(4):
        mat = rand_rational_matrix(rng, rows, cols)
        assert assert_same_rank(mat) == min(rows, cols)


@pytest.mark.parametrize("rows,cols,rank", [(6, 4, 2), (4, 6, 3), (5, 5, 4), (7, 7, 1), (8, 5, 3)])
def test_rank_with_planted_dependent_rows_and_columns(rows, cols, rank):
    rng = random.Random(rows * 97 + cols * 7 + rank)
    # rows: `rank` independent ones and combinations of them, shuffled
    base = rand_rational_matrix(rng, rank, cols).data
    mixed = list(base) + combine(rng, base, rows - rank)
    rng.shuffle(mixed)
    assert assert_same_rank(QMatrix(mixed)) == rank
    # columns: the same, on the transpose
    base = rand_rational_matrix(rng, rank, rows).data
    mixed = list(base) + combine(rng, base, cols - rank)
    rng.shuffle(mixed)
    assert assert_same_rank(QMatrix.from_columns(mixed)) == rank


def test_rank_of_zero_and_empty_matrices():
    assert assert_same_rank(QMatrix([[0] * 4 for _ in range(3)])) == 0
    assert assert_same_rank(QMatrix([[0]])) == 0
    tall_empty = QMatrix.from_columns([], rows=4)  # 4 x 0
    assert (tall_empty.rows, tall_empty.cols) == (4, 0)
    assert assert_same_rank(tall_empty) == 0
    # a matrix without rows has no columns either: 0 x k comes out 0 x 0
    for mat in (QMatrix([]), QMatrix.from_columns([[], [], []])):
        assert (mat.rows, mat.cols) == (0, 0)
        assert assert_same_rank(mat) == 0


def test_rank_with_mixed_denominators():
    third, half = Fraction(1, 3), Fraction(1, 2)
    rows = [
        [third, Fraction(-5, 7), Fraction(11, 4), 2],
        [half, Fraction(3, 10), 0, Fraction(-1, 9)],
        [third + half, Fraction(-5, 7) + Fraction(3, 10), Fraction(11, 4), 2 - Fraction(1, 9)],
    ]
    assert assert_same_rank(QMatrix(rows)) == 2
    assert assert_same_rank(QMatrix(rows[:2] + [[Fraction(1, 6), 0, 0, Fraction(-7, 8)]])) == 3
    rng = random.Random(23)
    for _ in range(5):
        assert_same_rank(rand_rational_matrix(rng, 4, 6).hstack(rand_rational_matrix(rng, 4, 2)))


def variation_matrices(monkeypatch, n, m, seed):
    """dmu, orbit tangent and their hstack, as variation_report ranks them at a recentred point."""
    rng = random.Random(seed)
    hyp = Hypersurface(rand_homogeneous(rng, tvars(n), 2 * m))
    moved = recenter(hyp, rand_point_off_branch(rng, hyp))
    seen = []
    rank = QMatrix.rank

    def spy_rank(mat):
        seen.append(mat)
        return rank(mat)

    monkeypatch.setattr(QMatrix, "rank", spy_rank)
    variation_report(moved)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("n,m,seed", [(4, 3, 1), (4, 3, 2), (5, 3, 3), (5, 3, 4)])
def test_rank_of_variation_matrices_matches_reference(monkeypatch, n, m, seed):
    dmu, orbit, both = variation_matrices(monkeypatch, n, m, seed)
    assert both == dmu.hstack(orbit)
    assert max(abs(x.numerator).bit_length() for row in both.data for x in row) > 64
    for mat in (dmu, orbit, both):
        assert_same_rank(mat)


def modular_ranks(monkeypatch):
    """Record what the certificate mod P returns inside QMatrix.rank."""
    seen = []
    rank_mod_p = linalg._rank_mod_p

    def spy(m, cols):
        seen.append(rank_mod_p(m, cols))
        return seen[-1]

    monkeypatch.setattr(linalg, "_rank_mod_p", spy)
    return seen


@pytest.mark.parametrize(
    "rows,rank",
    [
        ([[P, 0], [0, 1]], 2),
        # (lower unimodular) . diag(1, 1, P) . (upper unimodular): determinant P
        ([[1, 2, 0], [4, 9, 3], [5, 16, P + 18]], 3),
        ([[1, 2, 3], [2, 4, 6 + P]], 2),
        ([[Fraction(1, 2), 0], [0, Fraction(P, 3)]], 2),
        ([[2 * P, 4 * P, 1], [P, 2 * P, 7], [0, 0, 0]], 2),
    ],
)
def test_rank_that_drops_only_mod_p_comes_from_bareiss(monkeypatch, rows, rank):
    mod_p = modular_ranks(monkeypatch)
    assert assert_same_rank(QMatrix(rows)) == rank
    assert mod_p == [rank - 1]


def test_full_rank_mod_p_returns_without_bareiss(monkeypatch):
    mod_p = modular_ranks(monkeypatch)
    mat = QMatrix([[P + 1, 2], [3, 5]])  # rank 2 mod P and over Q
    assert assert_same_rank(mat) == 2
    assert mod_p == [2]
