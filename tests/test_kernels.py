"""Integer kernels against term-by-term Fraction references.

The line restriction (numeric direction, symbolic direction and jet base
point), the sparse product, the gcds and quotients of the squarefree
factorization and the resultant clear denominators once and work over the
integers.  The reference functions below are plain Fraction loops (Euclid
over Q for the gcd, Yun on Fraction lists with a long division for the
squarefree factorization, Bareiss over SparsePoly entries with a Fraction
exact division for the resultant); each fast result must equal its
reference exactly, coefficient by coefficient (and, for the product and
the resultant, in the same term order).

The certificate family, the equations and the jet differential run the
half-square recursion `eco._half_square`.  Their references solve the
recursion by a plain symbolic loop for the certificate polynomials A_k
and compose the A_k with the same inputs (`test_poly.reference_compose`).
Results must agree by `==` and in their printed text.

`dmu_formula` and `variation_report` take the weights dA_{m+1}/dx_j from
the inverse series of the half-square root.  Every partial of the
family's A_k must equal the convolution of root and inverse that the
weights rest on, and the dmu forms must equal those of the route they
replaced, the partials of A_{m+1} composed with f_1..f_m.  A spy checks
that neither calls `build_family`.

`_certified_rank` certifies the rank of integer lines mod 2^61 - 1 and
falls back to Bareiss over the integers; its reference is the plain
Fraction Gauss-Jordan elimination `test_linalg.reference_rank`, which
shares no code with either, run on the rational rows the test cleared.
`variation_report` takes the same certified rank on integer coefficient
columns and counts the join by continuing the orbit's elimination mod P
with the dmu columns: its three ranks must equal the reference ranks of
the Fraction columns of the public `dmu_formula`, `orbit_tangent` and
their concatenation, also when every rank is forced through Bareiss.

`rand_invertible` draws integer rows and accepts them on the certified
rank; its reference makes the same draws and accepts them on the
reference rank, and must draw the same rows and leave the generator in
the same state.

The coordinate change of `count_vmrt_points` runs the linear-substitution
loop of the line restrictions; its reference is the route it replaced,
`test_poly.reference_compose` with linear SparsePoly images, and both
must give the same nums and den on every matrix, singular ones included,
and on every system the point-count certificate tests run.

`count_vmrt_points` certifies its count mod 2^61 - 1 and runs the
resultant and Yun only when that declines; the point-count kernel tests
make the certificate decline, so both exact kernels still meet their
references on the same operands, and one test checks that a generic
certified run calls neither.  The certificate's Euclidean resultants mod
P must give, at each node, the determinant of the integer Sylvester
matrix there, and it must build no Sylvester matrix and no mod-P echelon.

The stored form of SparsePoly, integer numerators over one denominator,
is compared with plain Fraction-dict sums, scalings, products and
partial derivatives, and its canonical form is asserted after each.

`rand_homogeneous` draws integers over one denominator and `eco_witness`
builds f as one fused integer sum of products.  Their references are a
plain loop of Fractions drawn by `rng.randint`, which must leave the
generator in the same state, and f = Q*Q + L_1*R_1 + ... by SparsePoly
products and sums of Fraction draws.  The samplers draw through
`getrandbits` with the rejection loop of CPython's `randint`; over 200
seeds `rand_fraction`, `rand_homogeneous` and `rand_invertible` must
equal references built from `rng.randint`, and the generator's next
`random()` must agree.

The numeric line restriction evaluates f at one integer point (Kronecker
substitution) and reads the coefficients back as balanced digits.  Its
second reference shares no code with the substitution loop: f.evaluate
at lam = 0..d and exact Lagrange interpolation in Fractions, on zero
image coordinates, sign patterns, degree 1, one-term forms (one at the
digit bound) and 10^30-sized points and directions.

`parse_poly` and `format_poly` read and write the integer layout
directly.  Their references are the Fraction routes they replaced: a
Fraction per numeric factor summed by `SparsePoly.from_terms`, and the
`terms` dict sorted by `grevlex_key` with each coefficient printed by
str.  The parse must give the same nums, den and key order, and both
formats the same text.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import comb, gcd

import pytest

from vmrt import (
    BasePointOnBranch,
    Hypersurface,
    InvalidInput,
    Jet1,
    ResultantDegenerate,
    SparsePoly,
    UniPoly,
    build_converse,
    build_family,
    count_vmrt_points,
    dmu_formula,
    eco_witness,
    explicit_family,
    format_poly,
    lines,
    orbit_tangent,
    parse_poly,
    recenter,
    restrict_to_line,
    restrict_to_line_jets,
    resultant,
    squarefree_factorization,
    variation_report,
    vmrt_equations,
)
from vmrt import eco, linalg, unipoly, variation
from vmrt.eco import _half_square
from vmrt.poly import _FACTOR_RE, _NUMBER_RE, _TERM_SPLIT_RE, _infer_variables
from vmrt.poly import _sum_of_products, grevlex_key, monomials_of_degree
from vmrt.sampling import rand_direction, rand_fraction, rand_homogeneous, rand_invertible, rand_point
from vmrt.sampling import DEN_BOUND, NUM_BOUND, rand_point_off_branch
from vmrt.selftest import DMU_COMBOS, WITNESS_COMBOS, _rng
from vmrt.unipoly import _substitute, poly_gcd
from vmrt.variation import MonomialBasis, _dmu_forms, coeff_vector, dmu_jet

import test_lines
from test_linalg import assert_same_rank, reference_rank, sylvester_det
from test_poly import reference_compose

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
    is the one-slot Jet1 of the degree-k part in z.
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
        Jet1(SparsePoly(zvars, vals[k]), (SparsePoly(zvars, ders[k]),))
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


def reference_rand_fraction(rng):
    """`rand_fraction` by `rng.randint`, the route of CPython's `Random` that the samplers' draw repeats."""
    return Fraction(rng.randint(-NUM_BOUND, NUM_BOUND), rng.randint(1, DEN_BOUND))


def reference_rand_homogeneous(rng, variables, degree, nonzero=True):
    """One reference_rand_fraction per monomial, kept when nonzero; resampled while all are zero."""
    monos = monomials_of_degree(len(variables), degree)
    while True:
        terms = {}
        for exp in monos:
            c = reference_rand_fraction(rng)
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


def _trimmed(cs):
    """A Fraction coefficient list without its trailing zeros."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def reference_divmod(a, b):
    """(quotient, remainder) of ascending Fraction lists by long division over Q; b has no trailing zero."""
    db = len(b) - 1
    rem = list(a)
    quot = [_ZERO] * max(len(rem) - db, 1)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / b[-1]
        quot[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * b[j]
    return _trimmed(quot), _trimmed(rem[:db])


def reference_gcd_list(a, b):
    """Monic gcd of ascending Fraction lists by Euclid's algorithm over Q."""
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def reference_poly_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm on Fraction coefficients."""
    return UniPoly(reference_gcd_list(a.coeffs, b.coeffs))


def reference_squarefree(p):
    """Yun's factorization on ascending Fraction lists: Euclid's gcds, long divisions, Fraction sums."""

    def derivative(u):
        return _trimmed([k * c for k, c in enumerate(u)][1:])

    def minus(u, v):
        return _trimmed([x - y for x, y in zip_longest(u, v, fillvalue=_ZERO)])

    def quotient(u, v):
        return reference_divmod(u, v)[0]

    cs = list(p.coeffs)
    if len(cs) == 1:
        return cs[0], []
    content = cs[-1]
    pm = [c / content for c in cs]
    g = reference_gcd_list(pm, derivative(pm))
    if len(g) == 1:
        return content, [(UniPoly(pm), 1)]
    w, y = quotient(pm, g), quotient(derivative(pm), g)
    z = minus(y, derivative(w))
    factors, i = [], 1
    while len(w) > 1:
        h = reference_gcd_list(w, z)
        if len(h) > 1:
            factors.append((UniPoly(h), i))
            w, y = quotient(w, h), quotient(z, h)
        else:
            y = z
        z = minus(y, derivative(w))
        i += 1
    return content, factors


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
    return [rest[k] * inv - reference_compose(tails[k], ratios) for k in range(m + 1, 2 * m + 1)]


def reference_recenter(hyp, point):
    """f(t0, t1 + y_1*t0, ..., tn + y_n*t0) / f(1, y), by composing f with the shifted variables."""
    y = [Fraction(v) for v in point]
    tv = hyp.f.vars
    t0 = SparsePoly.variable(tv, "t0")
    args = [t0] + [SparsePoly.variable(tv, v) + t0 * yi for v, yi in zip(tv[1:], y)]
    return Hypersurface(reference_compose(hyp.f, args) * (1 / hyp.affine_value(y)))


def reference_jet_tail(ratios, m):
    """A_{m+1} composed with the Jet1 ratios a_1/a_0, ..., a_m/a_0."""
    return reference_compose(reference_family(m)[1][m + 1], ratios)


def scalar_inverse(a0):
    """1/a_0 for a jet of constant forms, inverted as a jet of scalars, as `dmu_jet` does."""
    return Jet1(a0.value.constant_value(), tuple(d.constant_value() for d in a0.derivative)).inverse()


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


def assert_same_jet_restriction(f, point, tangents):
    """One vector-mode restriction against one single-pair reference per slot."""
    fast = restrict_to_line_jets(f, point, tangents)
    assert len(fast) == f.homogeneous_degree() + 1
    zeros = [0] * len(point)
    for s, tangent in enumerate(list(tangents) or [zeros]):
        ref = reference_jet_restrict(f, list(zip(point, tangent)))
        assert len(ref) == len(fast)
        for a, b in zip(fast, ref):
            assert a.value == b.value
            assert len(a.derivative) == len(tangents)
            if tangents:
                assert a.derivative[s] == b.derivative[0]
    for a in fast:
        for part in (a.value, *a.derivative):
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


def interpolated_restriction(f, point, direction):
    """f(1, y + lam*z) by `SparsePoly.evaluate` at lam = 0..d and exact Lagrange interpolation in Fractions."""
    d = f.homogeneous_degree()
    nodes = range(d + 1)
    out = [_ZERO] * (d + 1)
    for i in nodes:
        value = f.evaluate([1] + [y + i * z for y, z in zip(point, direction)])
        basis, scale = [_ONE], 1  # prod_{j != i} (lam - j), ascending, and prod_{j != i} (i - j)
        for j in nodes:
            if j != i:
                basis = [lo - j * hi for lo, hi in zip([_ZERO] + basis, basis + [_ZERO])]
                scale *= i - j
        for k, b in enumerate(basis):
            out[k] += value * b / scale
    return out


def assert_interpolated_restriction(f, point, direction):
    fast = restrict_to_line(f, point, direction)
    assert all(type(c) is Fraction for c in fast)
    assert fast == interpolated_restriction(f, [Fraction(v) for v in point], [Fraction(v) for v in direction])


BIG = 10**30


class TestKroneckerRestriction:
    """The numeric restriction reads its coefficients as balanced digits of one integer evaluation."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_lines(self, n):
        rng = random.Random(6000 + n)
        for degree in (1, 2, 4):
            f = rand_homogeneous(rng, tvars(n), degree)
            assert_interpolated_restriction(f, rand_point(rng, n), rand_direction(rng, n))

    def test_zero_image_coordinate(self):
        # t2 -> 0 + lam*0: every term in t2 drops out
        f = parse_poly("2*t0^3 - t1*t2^2 + 3/4*t2^3 - 5*t1^2*t3 + t0*t2*t3", tvars(3))
        assert_interpolated_restriction(f, [Fraction(1, 3), 0, -2], [5, 0, Fraction(-1, 7)])

    def test_all_negative_coefficients(self):
        f = parse_poly("-3*t0^4 - 1/2*t1^4 - 7/3*t0*t1*t2^2 - t2^4 - 11*t0^2*t1*t2", tvars(2))
        assert_interpolated_restriction(f, [2, 3], [1, 4])  # every c_k < 0
        assert_interpolated_restriction(f, [-2, Fraction(1, 3)], [Fraction(-5, 2), 4])

    def test_alternating_signs(self):
        # (1 - lam)^d alternates in sign, and (1 + lam)^d (1 - lam)^d = (1 - lam^2)^d with zeros between
        for d in (3, 6, 11):
            assert_interpolated_restriction(parse_poly(f"t1^{d}", tvars(1)), [1], [-1])
            assert_interpolated_restriction(parse_poly(f"t1^{d}*t2^{d}", tvars(2)), [1, 1], [1, -1])

    def test_degree_one(self):
        f = parse_poly("-4*t0 + 1/3*t1 - 9/2*t2", tvars(2))
        assert_interpolated_restriction(f, [Fraction(2, 5), -7], [3, Fraction(-1, 6)])
        assert_interpolated_restriction(f, [0, 0], [0, 0])

    def test_one_term_form(self):
        f = parse_poly("-7/4*t1^2*t3^2", tvars(3))
        assert_interpolated_restriction(f, [Fraction(2, 3), 5, Fraction(-1, 2)], [-1, 0, 3])
        assert_interpolated_restriction(parse_poly("5*t0^5", tvars(2)), [BIG, -BIG], [1, 1])

    def test_one_term_form_at_the_digit_bound(self):
        # c_0 = (2^61 - 1) * (2^40 - 1)^d lies just under 2^(B-1), so one bit fewer would misread it
        for d in (1, 4, 12):
            f = parse_poly(f"{2**61 - 1}*t1^{d}", tvars(2))
            assert_interpolated_restriction(f, [2**40 - 1, 1], [0, 1])
            assert_interpolated_restriction(f, [1 - 2**40, 1], [0, -1])

    def test_huge_point_and_direction(self):
        rng = random.Random(6100)
        for n in (2, 3, 4):
            f = rand_homogeneous(rng, tvars(n), 4)
            y = [Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(n)]
            z = [rng.choice((0, BIG, -BIG + 1, Fraction(BIG - 7, 3))) for _ in range(n)]
            assert_interpolated_restriction(f, y, z)


@pytest.mark.parametrize("d", [255, 256, 300])
def test_restrictions_of_degree_past_one_byte_keys(d):
    # packed keys widen from one byte per field at degree 256: the substitution's at d = 256, and
    # the product's, whose degrees here are d and d + 1, at d = 255
    f = parse_poly(f"2*t0^{d} - 3/5*t0^{d - 7}*t1^7 + t1^{d}", ("t0", "t1"))
    assert_same_restriction(f, [Fraction(-3, 2)], [Fraction(5, 7)])
    assert_same_symbolic_restriction(f, [Fraction(-3, 2)])
    g = parse_poly("t0 - 2/3*t1", ("t0", "t1"))
    assert_same_product(f.partial("t0"), g)
    assert_same_product(f, g)


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


def identity(n):
    """The tangents e_1, ..., e_n: the jet point eps_1*e_1 + ... + eps_n*e_n of dmu_jet."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_restriction_matches_reference_at_unit_jets(n, m):
    rng = random.Random(4000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    assert_same_jet_restriction(f, [0] * n, identity(n))


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_restriction_matches_reference_on_general_pairs(n, m):
    rng = random.Random(5000 * n + m)
    f = rand_homogeneous(rng, tvars(n), 2 * m)
    dens = (1, 2, -3, 5, -7, 9)

    def rand_vector():
        return [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)]

    point, tangent = rand_vector(), rand_vector()
    # a zero tangent gives a zero slot
    assert_same_jet_restriction(f, point, [tangent, [0] * n])
    # zero values: every power of a coordinate is eps^p, zero for p >= 2
    assert_same_jet_restriction(f, [0] * n, [tangent, rand_vector()])
    # n tangents: every first-order variable is live at once
    assert_same_jet_restriction(f, point, [rand_vector() for _ in range(n)])


class TestJetRestrictionEdges:
    def test_mixed_zero_values_and_derivatives(self):
        f = parse_poly("1/3*t0^4 - 5/7*t1^2*t2^2 + 2/9*t0*t3^3 - 11/4*t1*t2*t3^2")
        point = [Fraction(1, 2), 0, Fraction(7, -11)]
        assert_same_jet_restriction(f, point, [[0, Fraction(-5, 3), Fraction(3, 4)], [1, 0, 0]])
        assert_same_jet_restriction(f, [0, 0, 0], [[0, 0, 0]])

    def test_all_zero_derivatives_give_the_plain_restriction(self):
        rng = random.Random(19)
        f = rand_homogeneous(rng, tvars(4), 4)
        y = rand_point(rng, 4)
        jets = restrict_to_line_jets(f, y, [[0] * 4, [0] * 4])
        assert_same_jet_restriction(f, y, [[0] * 4, [0] * 4])
        assert [j.value for j in jets] == restrict_to_line(f, y)
        assert all(d.is_zero for j in jets for d in j.derivative)
        # no tangents: value-only jets
        assert_same_jet_restriction(f, y, [])

    def test_pure_t0_power(self):
        f = parse_poly("3/5*t0^6", tvars(3))
        assert_same_jet_restriction(f, [Fraction(1, 2), 3, -1], [[1, -2, Fraction(1, 3)], [0, 1, 0]])
        f0 = parse_poly("3/5*t0^6", ("t0",))
        assert_same_jet_restriction(f0, [], [])
        assert_same_jet_restriction(f0, [], [[], []])

    def test_single_term(self):
        f = parse_poly("-7/4*t1^2*t3^2", tvars(3))
        assert_same_jet_restriction(f, [Fraction(2, 3), 5, 0], [[1, 0, Fraction(-1, 2)]])


def test_jet_restriction_wraps_int_coefficients_in_jets():
    # at a zero point with zero tangent slots every coordinate jet is zero, so
    # no coefficient of the substitution meets a jet
    rng = random.Random(23)
    f = rand_homogeneous(rng, tvars(3), 4)
    cases = [
        ([0, 0, 0], [[0, 0, 0]]),
        ([0, 0, 0], [[0, 0, 0], [0, 0, 0]]),
        ([0, Fraction(2, 3), 0], [[0, 0, 0], [1, 0, -2]]),
        ([0, 0, 0], []),
    ]
    for point, tangents in cases:
        jets = restrict_to_line_jets(f, point, tangents)
        assert len(jets) == 5
        assert all(type(j) is Jet1 and len(j.derivative) == len(tangents) for j in jets)
        assert [j.value for j in jets] == restrict_to_line(f, point)
        assert_same_jet_restriction(f, point, tangents)


def test_substitution_takes_first_order_parts_on_the_images_after_the_first():
    # the line restrictions never move t0, so the kernel refuses eps.e_0 on the first image
    rng = random.Random(29)
    f = integer_form(rng, 2, 4)
    wv = ("w1", "w2")
    images = [(rng.randint(-5, 5), (rng.randint(-5, 5), rng.randint(-5, 5))) for _ in f.vars]
    slopes = [(0, 0, 0)] + [(rng.randint(-5, 5), rng.randint(-5, 5), 0) for _ in f.vars[1:]]
    with pytest.raises(InvalidInput, match="first image"):
        _substitute(f, 4, images, [(0, 1, 0), *slopes[1:]])
    values, firsts = _substitute(f, 4, images, slopes)
    # reference: f's integer numerators composed with jets over linear forms in w
    args = [
        Jet1(SparsePoly(wv, {(0, 0): a, (1, 0): b1, (0, 1): b2}), tuple(SparsePoly.constant(wv, c) for c in e))
        for (a, (b1, b2)), e in zip(images, slopes)
    ]
    ref = reference_compose(f, args) * f.den
    assert SparsePoly._from_ints(wv, values, 1) == ref.value
    assert len(firsts) == 3
    for first, slope in zip(firsts, ref.derivative):
        assert SparsePoly._from_ints(wv, first, 1) == slope
    assert not firsts[2]


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
    """Derivative parts of B_{m+1} at eps*e_i, one one-slot replay per column.

    Each column restricts at the single tangent e_i and takes the tail by
    composing A_{m+1}; `dmu_jet` carries all n tangents in one pass.
    """
    m, n = hyp.m, hyp.n
    out = []
    for tangent in identity(n):
        a = restrict_to_line_jets(hyp.f, [0] * n, [tangent])
        inv0 = scalar_inverse(a[0])
        ratios = [a[j] * inv0 for j in range(1, m + 1)]
        (slope,) = (a[m + 1] * inv0 - reference_jet_tail(ratios, m)).derivative
        out.append(slope)
    return out


def assert_dmu_jet_matches_columns(hyp):
    basis = MonomialBasis(hyp.n, hyp.m + 1)
    assert dmu_jet(hyp) == tuple(coeff_vector(p, basis) for p in reference_dmu_jet_columns(hyp))


def normalized(f):
    """f with its t0^d coefficient set to 1, as dmu_jet requires f(1, 0, ..., 0) = 1."""
    d, tv = f.homogeneous_degree(), f.vars
    return f + (1 - f.coefficient((d,) + (0,) * (len(tv) - 1))) * SparsePoly.variable(tv, "t0") ** d


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_jet_tails_match_composed_tail_at_unit_jets(n, m):
    rng = random.Random(8000 * n + m)
    f = normalized(rand_homogeneous(rng, tvars(n), 2 * m))
    a = restrict_to_line_jets(f, [0] * n, identity(n))
    inv0 = scalar_inverse(a[0])
    ratios = [a[j] * inv0 for j in range(1, m + 1)]
    _, tails = _half_square(ratios, m + 1)
    ref = reference_jet_tail(ratios, m)
    assert tails == [ref]
    assert_same_polys([tails[0].value, *tails[0].derivative], [ref.value, *ref.derivative])
    assert_dmu_jet_matches_columns(Hypersurface(f))


@pytest.mark.parametrize("n,m", DMU_COMBOS)
def test_dmu_jet_matches_per_column_replay_at_random_forms(n, m):
    rng = random.Random(8500 * n + m)
    for _ in range(2):
        assert_dmu_jet_matches_columns(Hypersurface(normalized(rand_homogeneous(rng, tvars(n), 2 * m))))


def test_dmu_jet_matches_per_column_replay_at_recentred_points():
    rng = random.Random(8753)
    for _ in range(2):
        hyp = Hypersurface(rand_homogeneous(rng, tvars(5), 6))
        assert_dmu_jet_matches_columns(recenter(hyp, rand_point_off_branch(rng, hyp)))


@pytest.mark.parametrize("n,m,b,c", [(4, 2, 1, 2), (5, 2, Fraction(3, 2), -1), (4, 3, 2, 5), (5, 3, -1, Fraction(1, 3))])
def test_dmu_jet_matches_per_column_replay_on_explicit_families(n, m, b, c):
    assert_dmu_jet_matches_columns(explicit_family(n, m, b, c))


def inverse_series(sigma, one):
    """c_0..c_m of 1/S for S = 1 + sigma_1*lam + ... + sigma_m*lam^m, by the plain convolution loop."""
    c = [one]
    for r in range(1, len(sigma) + 1):
        acc = one * 0
        for i in range(1, r + 1):
            acc = acc - sigma[i - 1] * c[r - i]
        c.append(acc)
    return c


@pytest.mark.parametrize("m", range(1, 7))
def test_every_tail_partial_is_a_convolution_of_root_and_inverse(m):
    # dA_k/dt_j = sum_{r=0}^{m-j} c_r*sigma_{k-j-r}, sigma_l = 0 for l > m
    fam = build_family(m)
    sigma = fam.root_polys[1:]
    c = inverse_series(sigma, fam.root_polys[0])
    for k in range(m + 1, 2 * m + 1):
        for j in range(1, m + 1):
            expected = SparsePoly.zero(fam.variables)
            for r in range(m - j + 1):
                if k - j - r <= m:
                    expected = expected + c[r] * sigma[k - j - r - 1]
            assert fam.tail_polys[k].partial(f"t{j}") == expected
            if k == m + 1:
                assert expected == -c[m + 1 - j]


def reference_dmu_forms(hyp):
    """dB_{m+1}/dy_i at the origin with the weights dA_{m+1}/dt_j composed with f_1..f_m."""
    m, n = hyp.m, hyp.n
    parts = hyp.graded_parts() + [SparsePoly.zero(hyp.f.vars[1:])]
    tail = build_family(m).tail_polys[m + 1]
    weights = [reference_compose(tail.partial(f"t{j}"), parts[1 : m + 1]) for j in range(1, m + 1)]
    out = []
    for i in range(1, n + 1):
        zi = f"z{i}"
        d1 = parts[1].partial(zi)
        form = parts[m + 2].partial(zi) - parts[m + 1] * d1
        for j in range(1, m + 1):
            form = form - weights[j - 1] * (parts[j + 1].partial(zi) - parts[j] * d1)
        out.append(form)
    return parts, out


def assert_dmu_forms_match_composed_partials(hyp):
    parts, ref = reference_dmu_forms(hyp)
    sigma, _ = _half_square(parts[1 : hyp.m + 1], hyp.m)
    assert list(_dmu_forms(parts, sigma, hyp.n)) == ref
    basis = MonomialBasis(hyp.n, hyp.m + 1)
    assert dmu_formula(hyp) == tuple(coeff_vector(p, basis) for p in ref)


@pytest.mark.parametrize("n,m", DMU_COMBOS + ((5, 4), (6, 3)))
def test_dmu_forms_match_composed_partials_at_random_forms(n, m):
    rng = random.Random(8600 * n + m)
    assert_dmu_forms_match_composed_partials(Hypersurface(normalized(rand_homogeneous(rng, tvars(n), 2 * m))))
    # converse input: f_1 = ... = f_m = 0, so the root and its inverse vanish
    zv = tuple(f"z{i}" for i in range(1, n + 1))
    assert_dmu_forms_match_composed_partials(build_converse([rand_homogeneous(rng, zv, k) for k in range(m + 1, 2 * m + 1)]))


def test_dmu_forms_match_composed_partials_at_recentred_points():
    rng = random.Random(8761)
    for n, m in ((4, 3), (5, 2)):
        hyp = Hypersurface(rand_homogeneous(rng, tvars(n), 2 * m))
        assert_dmu_forms_match_composed_partials(recenter(hyp, rand_point_off_branch(rng, hyp)))


@pytest.mark.parametrize("n,m,b,c", [(4, 2, 1, 2), (5, 2, Fraction(3, 2), -1), (4, 3, 2, 5), (5, 3, -1, Fraction(1, 3))])
def test_dmu_forms_match_composed_partials_on_explicit_families(n, m, b, c):
    assert_dmu_forms_match_composed_partials(explicit_family(n, m, b, c))


def test_variation_needs_no_certificate_family_and_no_compose(monkeypatch):
    moved = recentred_surface(4, 3, 1)
    expected = variation_report(moved), dmu_formula(moved)

    def refuse(*args):
        raise AssertionError("variation called build_family")

    monkeypatch.setattr(eco, "build_family", refuse)
    monkeypatch.setattr(variation, "build_family", refuse, raising=False)
    assert (variation_report(moved), dmu_formula(moved)) == expected


def test_jet_oracle_shares_no_piece_of_the_formula(monkeypatch):
    # dmu_jet and dmu_formula share only the half-square recursion, the definition of the map
    moved = recentred_surface(4, 3, 1)
    expected = dmu_jet(moved)

    def refuse(*args):
        raise AssertionError("dmu_jet used a piece of dmu_formula")

    monkeypatch.setattr(Hypersurface, "graded_parts", refuse)
    monkeypatch.setattr(SparsePoly, "partial", refuse)
    monkeypatch.setattr(variation, "_normalized_parts", refuse)
    monkeypatch.setattr(variation, "_dmu_forms", refuse)
    monkeypatch.setattr(eco, "build_family", refuse)
    assert dmu_jet(moved) == expected
    with pytest.raises(AssertionError, match="piece of dmu_formula"):
        dmu_formula(moved)


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
        assert p * 1 is p and Fraction(1) * p is p

    def test_single_term_operand(self):
        p = parse_poly("1/2*t0^2 - 3/4*t1*t2 + 5*t2^2", tvars(2))
        for mono in (parse_poly("-7/6*t1", tvars(2)), SparsePoly.variable(tvars(2), "t2")):
            assert_same_product(p, mono)
            assert_same_product(mono, p)
            assert_same_product(mono, parse_poly("3/4*t0^2*t2", tvars(2)))
            assert_same_product(mono, SparsePoly.constant(tvars(2), Fraction(5, 2)))

    def test_cancellation_drops_terms(self):
        a = parse_poly("1/2*t1 + 1/3*t2", tvars(2))
        b = parse_poly("1/2*t1 - 1/3*t2", tvars(2))
        assert_same_product(a, b)
        assert (a * b) == parse_poly("1/4*t1^2 - 1/9*t2^2", tvars(2))

    def test_integer_only_operands(self):
        rng = random.Random(11)
        assert_same_product(integer_form(rng, 3, 2), integer_form(rng, 3, 3))


# -- the stored form of SparsePoly: integer numerators over one denominator ----

LAYOUT_VARS = ("z1", "z2", "z3")


def reference_sum(a, b, sign=1):
    """a + sign*b for Fraction dicts, zeros dropped."""
    acc = dict(a)
    for exp, c in b.items():
        acc[exp] = acc.get(exp, _ZERO) + sign * c
    return {exp: c for exp, c in acc.items() if c}


def reference_scale(a, c):
    return {exp: x * c for exp, x in a.items() if x * c}


def reference_product(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            acc[exp] = acc.get(exp, _ZERO) + c1 * c2
    return {exp: c for exp, c in acc.items() if c}


def reference_partial(a, i):
    return {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i] for exp, c in a.items() if c and exp[i]}


def assert_canonical(p):
    """Nonzero int numerators over a positive int denominator that shares no factor with all of them."""
    assert type(p.den) is int and p.den > 0
    assert all(type(k) is int and k != 0 for k in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


def layout_terms(rng):
    """A Fraction dict in z1..z3 of up to 6 terms with mixed denominators; zero entries included."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = tuple(rng.randint(0, 2) for _ in LAYOUT_VARS)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12)))
    return terms


@pytest.mark.parametrize("seed", range(6))
def test_layout_operations_match_fraction_dicts(seed):
    rng = random.Random(seed)
    for _ in range(30):
        a, b = layout_terms(rng), layout_terms(rng)
        # a common factor of a's numerators, so scaling by 1/k leaves a content to remove
        k = rng.choice((2, 3, 6))
        a = {exp: c * k for exp, c in a.items()}
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        i = rng.randrange(len(LAYOUT_VARS))
        p, q = SparsePoly(LAYOUT_VARS, a), SparsePoly(LAYOUT_VARS, b)
        cases = [
            (p, reference_sum(a, {})),
            (p + q, reference_sum(a, b)),
            (p - q, reference_sum(a, b, -1)),
            (p - p, {}),
            (p + p * -1, {}),
            (-p, reference_scale(a, -1)),
            (p * c, reference_scale(a, c)),
            (c * p, reference_scale(a, c)),
            (p * Fraction(1, k), reference_scale(a, Fraction(1, k))),
            (p * q, reference_product(a, b)),
            (p * (q - q), {}),
            (p.partial(LAYOUT_VARS[i]), reference_partial(a, i)),
        ]
        for got, want in cases:
            assert_canonical(got)
            assert got.terms == want
            assert all(type(x) is Fraction for x in got.terms.values())


def test_layout_divides_out_the_content():
    p = parse_poly("2/3*z1 + 4/3*z2", LAYOUT_VARS) * Fraction(3, 2)
    assert (p.nums, p.den) == ({(1, 0, 0): 1, (0, 1, 0): 2}, 1)
    s = parse_poly("1/6*z1 + 1/6*z2", LAYOUT_VARS) + parse_poly("1/3*z1 - 1/6*z2", LAYOUT_VARS)
    assert (s.nums, s.den) == ({(1, 0, 0): 1}, 2)
    d = parse_poly("3/4*z1^2*z3", LAYOUT_VARS).partial("z1")
    assert (d.nums, d.den) == ({(1, 0, 1): 3}, 2)
    for zero in (p - p, p * 0, SparsePoly.zero(LAYOUT_VARS), SparsePoly.constant(LAYOUT_VARS, 0)):
        assert (zero.nums, zero.den) == ({}, 1)


def test_equal_polynomials_from_different_routes_compare_and_hash_equal():
    a = parse_poly("2/3*z1 + 4/3*z2", LAYOUT_VARS)
    target = parse_poly("z1 + 2*z2", LAYOUT_VARS)
    routes = [
        a * Fraction(3, 2),
        Fraction(3, 2) * a,
        a + a * Fraction(1, 2),
        (a * a).partial("z1") * Fraction(9, 8),
        SparsePoly(LAYOUT_VARS, {(0, 1, 0): Fraction(2), (1, 0, 0): _ONE}),
        SparsePoly.from_terms(
            LAYOUT_VARS, [((1, 0, 0), Fraction(1, 2)), ((0, 1, 0), 2), ((1, 0, 0), Fraction(1, 2))]
        ),
        _sum_of_products(LAYOUT_VARS, [(a, SparsePoly.constant(LAYOUT_VARS, Fraction(3, 2)))]),
        (target * parse_poly("1/5*z3", LAYOUT_VARS)).partial("z3") * 5,
    ]
    for p in routes:
        assert_canonical(p)
        assert p == target
        assert hash(p) == hash(target)
    assert len(set(routes)) == 1
    assert hash(a - a) == hash(SparsePoly.zero(LAYOUT_VARS))


def test_terms_is_a_fresh_dict_on_each_access():
    assert SparsePoly.__slots__ == ("vars", "nums", "den")
    p = parse_poly("1/2*z1^2 - 3*z2*z3", LAYOUT_VARS)
    before = (dict(p.nums), p.den, format_poly(p))
    view = p.terms
    assert view is not p.terms
    view[(1, 0, 0)] = Fraction(5)
    del view[(2, 0, 0)]
    assert p.terms == {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-3)}
    assert (p.nums, p.den, format_poly(p)) == before


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
    assert reference_rand_fraction(random.Random(7)) == 0  # the first draw of seed 7 is zero
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


def plain_sum_of_products(variables, pairs):
    """sum a*b by the full double loop over the integer numerators: nums in first-product order, and den."""
    den = 1
    for a, b in pairs:
        den = den * a.den * b.den // gcd(den, a.den * b.den)
    acc = {}
    for a, b in pairs:
        scale = den // (a.den * b.den)
        for ea, ca in a.nums.items():
            for eb, cb in b.nums.items():
                key = tuple(map(sum, zip(ea, eb)))
                acc[key] = acc.get(key, 0) + ca * scale * cb
    acc = {e: k for e, k in acc.items() if k}
    g = gcd(den, *acc.values())
    return [(e, k // g) for e, k in acc.items()], den // g


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_square_pair_matches_the_plain_double_loop(degree):
    rng = random.Random(degree)
    variables = tvars(3)
    for _ in range(3):
        q = rand_homogeneous(rng, variables, degree)
        other = (rand_homogeneous(rng, variables, 1), rand_homogeneous(rng, variables, 2 * degree - 1))
        for pairs in ([(q, q)], [(q, q), other], [other, (q, q)]):
            fast = _sum_of_products(variables, pairs)
            assert (list(fast.nums.items()), fast.den) == plain_sum_of_products(variables, pairs)
        # an equal copy is not the same object, so it takes the plain loop to the same result
        twin = SparsePoly._from_ints(variables, dict(q.nums), q.den)
        assert _sum_of_products(variables, [(q, twin)]).nums == _sum_of_products(variables, [(q, q)]).nums


# -- text layer ----------------------------------------------------------------


def reference_parse_poly(text, variables=None):
    """The Fraction parse: each numeric factor a Fraction, terms summed by `from_terms`."""
    compact = "".join(text.replace("**", "^").split())
    sign = 1
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        compact = compact[1:]
    parts = _TERM_SPLIT_RE.split(compact)
    signs = [sign] + [-1 if s == "-" else 1 for s in parts[1::2]]
    raw, seen = [], set()
    for sgn, body in zip(signs, parts[::2]):
        coeff, powers = _ONE, {}
        for factor in body.split("*"):
            if _NUMBER_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            name, exp = _FACTOR_RE.match(factor).groups()
            powers[name] = powers.get(name, 0) + int(exp or 1)
            seen.add(name)
        raw.append((sgn, powers, coeff))
    variables = tuple(variables or _infer_variables(seen))
    items = [(tuple(powers.get(v, 0) for v in variables), sgn * coeff) for sgn, powers, coeff in raw]
    return SparsePoly.from_terms(variables, items)


def reference_format_poly(p):
    """The Fraction format: the `terms` dict sorted by `grevlex_key`, each coefficient printed by str."""
    if p.is_zero:
        return "0"
    chunks = []
    for exp, c in sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exp) if e)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def assert_same_text_layer(text, variables=None):
    """parse_poly equals the Fraction parse in nums, den and key order; both formats print the same text."""
    fast, ref = parse_poly(text, variables), reference_parse_poly(text, variables)
    assert_canonical(fast)
    assert (fast.vars, fast.den) == (ref.vars, ref.den)
    assert list(fast.nums.items()) == list(ref.nums.items())
    assert format_poly(fast) == reference_format_poly(ref)
    return fast


def random_poly_text(rng, variables, big):
    """Up to 8 terms with numbers before, between and after the variables, repeats, zeros and signs."""
    def number():
        num = rng.choice((0, 1, 1, 2, 3, 6, 12, 2**70 + 1, 3**50)) if big else rng.randint(0, 12)
        den = rng.choice((1, 1, 2, 3, 4, 6, 9, 2**65, 5**40 * 3)) if big else rng.randint(1, 12)
        return f"{num}/{den}" if den != 1 or rng.random() < 0.3 else str(num)

    chunks = []
    for i in range(rng.randint(1, 8)):
        factors = [f"{rng.choice(variables)}^{rng.randint(1, 3)}" for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            factors.insert(rng.randint(0, len(factors)), number())
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "-", "+"))
        chunks.append(f"{sign} {'*'.join(factors) or number()}")
    return " ".join(chunks)


@pytest.mark.parametrize(
    "text,variables",
    [
        ("2*3/4*t0^2", None),
        ("z1^3*2/3*z2", None),
        ("t0^2 - t0^2 + 3/6*t1^2", None),
        ("t0^2 - t0^2", ("t0", "t1")),
        ("0*t1^2 + t0 + 0/7*t0", None),
        ("-t0^4 + 1/2*t1^4 - 3", None),
        ("7/2 - z1^2", ("z1", "z2")),
        ("5", ("t0", "t1")),
        ("-6/4*t0*2*t0^2*t1 + 1/3*t1*t0^3", None),
        (f"{2**70}/{3**45}*t0^2 - {5**30}*t1^2 + 1/{2**64 + 1}*t0*t1", None),
        (f"{2**80}/{2**66}*z2 + {6**40}/{6**39}*z1", None),
    ],
)
def test_text_layer_matches_the_fraction_route(text, variables):
    assert_same_text_layer(text, variables)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("big", [False, True])
def test_text_layer_matches_the_fraction_route_on_seeded_texts(seed, big):
    rng = random.Random(seed)
    for _ in range(40):
        assert_same_text_layer(random_poly_text(rng, tvars(3), big), tvars(3))


@pytest.mark.parametrize("n,m", WITNESS_COMBOS)
def test_text_layer_matches_the_fraction_route_on_witnesses_and_equations(n, m):
    rng = random.Random(31 * n + m)
    point, direction = rand_point(rng, n), rand_direction(rng, n)
    f = eco_witness(n, m, point, direction, seed=rng.randrange(2**32)).f
    assert assert_same_text_layer(format_poly(f)) == f
    for eq in vmrt_equations(Hypersurface(f), rand_point(rng, n)).equations:
        assert assert_same_text_layer(format_poly(eq), eq.vars) == eq
        assert format_poly(eq) == reference_format_poly(eq)


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
    """The resultant operands and the squarefree-tested form of one exact count_vmrt_points run.

    The mod-P certificate is made to decline, so the exact route runs on
    the operands a certified run would have settled.
    """
    seen = {}
    monkeypatch.setattr(lines, "_count_certified", lambda c3, c4: False)

    def spy_resultant(p, q, var):
        seen["resultant"] = (p, q, var)
        return resultant(p, q, var)

    def spy_gcd(a, b):
        seen["squarefree"] = a
        return poly_gcd(a, b)

    monkeypatch.setattr(lines, "resultant", spy_resultant)
    monkeypatch.setattr(lines, "poly_gcd", spy_gcd)
    count_vmrt_points(hyp, point, seed)
    monkeypatch.undo()
    return seen["resultant"], seen["squarefree"]


def assert_same_point_count_kernels(monkeypatch, hyp, point, seed):
    (p, q, var), form = point_count_inputs(monkeypatch, hyp, point, seed)
    assert_same_resultant(p, q, var)
    assert_same_gcd(form, form.derivative())
    assert squarefree_factorization(form) == reference_squarefree(form)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_point_count_kernels_match_references(monkeypatch, seed):
    rng = random.Random(seed)
    zv = ("z1", "z2", "z3")
    hyp = build_converse([rand_homogeneous(rng, zv, 3), rand_homogeneous(rng, zv, 4)])
    assert_same_point_count_kernels(monkeypatch, hyp, rand_point_off_branch(rng, hyp), seed)


@pytest.mark.parametrize("seed", [5, 11, 23])
def test_squarefree_of_planted_powers_matches_reference(seed):
    # a generic form is squarefree, so it never reaches Yun's quotients; planted powers do
    rng = random.Random(seed)
    p = UniPoly([rand_fraction(rng) or 1])
    for mult in (1, 2, 3):
        p = p * UniPoly([rand_fraction(rng) for _ in range(mult + 1)] + [rand_fraction(rng) or 1]) ** mult
    assert squarefree_factorization(p) == reference_squarefree(p)


def test_certified_point_count_calls_neither_exact_kernel(monkeypatch):
    # a certificate that always declined would still count right, about 9 times slower
    def refuse(*args):
        raise AssertionError("the exact route ran on a generic input")

    monkeypatch.setattr(lines, "resultant", refuse)
    monkeypatch.setattr(lines, "poly_gcd", refuse)
    rng = random.Random(3)
    zv = ("z1", "z2", "z3")
    hyp = build_converse([rand_homogeneous(rng, zv, 3), rand_homogeneous(rng, zv, 4)])
    assert count_vmrt_points(hyp, rand_point_off_branch(rng, hyp), 3) == (12, True)


def test_decomposable_point_count_system_matches_references(monkeypatch):
    # the system of tests/test_lines.py::TestBezoutEnumeration
    zv = ("z1", "z2", "z3")
    b4 = SparsePoly.constant(zv, 1)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for c in ((1, 1, 1), (1, 2, 3), (1, -1, 2), (2, 1, -1)):
        b4 = b4 * SparsePoly(zv, {e: Fraction(k) for e, k in zip(units, c)})
    hyp = build_converse([parse_poly("z1*z2*z3", zv), b4])
    assert_same_point_count_kernels(monkeypatch, hyp, [0, 0, 0], 2)


def reference_coordinate_change(p, rows):
    """p(M*w) by `reference_compose` with the linear SparsePoly images sum_j M_ij*w_j, the route it replaced."""
    gens = [SparsePoly.variable(p.vars, v) for v in p.vars]
    images = [sum((gens[j] * c for j, c in enumerate(row)), SparsePoly.zero(p.vars)) for row in rows]
    return reference_compose(p, images)


def assert_same_coordinate_change(p, rows):
    fast = lines._linear_change(p, rows)
    ref = reference_coordinate_change(p, rows)
    assert fast.nums == ref.nums
    assert fast.den == ref.den
    return fast


class TestCoordinateChange:
    ZV = ("z1", "z2", "z3")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_integer_matrices(self, seed):
        rng = random.Random(8000 + seed)
        rows = [[rng.choice((-7, -2, -1, 0, 0, 1, 3, 5)) for _ in range(3)] for _ in range(3)]
        for degree in (1, 3, 4):
            assert_same_coordinate_change(rand_homogeneous(rng, self.ZV, degree), rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3], [2, 4, 6], [0, 1, -1]],  # singular
            [[1, 0, 2], [0, 0, 0], [3, -1, 1]],  # a zero row
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
    )
    def test_singular_zero_and_identity_matrices(self, rows):
        rng = random.Random(81)
        for degree in (3, 4):
            assert_same_coordinate_change(rand_homogeneous(rng, self.ZV, degree), rows)

    def test_degree_past_one_byte_keys(self):
        p = parse_poly("z1^260 - 4*z1^130*z2^130 + 1/3*z2^259*z3", self.ZV)
        assert_same_coordinate_change(p, [[1, 2, 0], [3, -1, 0], [0, 0, 1]])

    @pytest.mark.parametrize(
        "text",
        [
            "z2^3 - 2/3*z2*z3^2 + 5*z3^3",  # z1 absent: every term takes its zeroth power
            "z1^3 - 2/3*z1*z2^2",  # z3 absent
            "-9/4*z2^4",
            "z1^3 + 1/2*z2*z3 - z3 + 7/5",  # inhomogeneous, with a constant term
            "3*z1*z2 - z1^4 + 2",
        ],
    )
    def test_absent_variables_and_inhomogeneous_forms(self, text):
        p = parse_poly(text, self.ZV)
        for rows in ([[2, -1, 0], [0, 3, 1], [-4, 0, 5]], [[1, 1, 1], [0, 0, 0], [1, -1, 2]]):
            assert_same_coordinate_change(p, rows)


def count_certificate_systems():
    """(hypersurface, point, seed) for every count_vmrt_points run of tests/test_lines.py::TestCountCertificate."""
    zv = ("z1", "z2", "z3")
    for seed in range(30):
        rng = random.Random(7000 + seed)
        hyp = build_converse([rand_homogeneous(rng, zv, 3), rand_homogeneous(rng, zv, 4)])
        yield hyp, rand_point_off_branch(rng, hyp), seed
    rng = _rng(42, 7)
    for _ in range(10):
        hyp = build_converse([rand_homogeneous(rng, zv, 3), rand_homogeneous(rng, zv, 4)])
        y = rand_point_off_branch(rng, hyp)
        yield hyp, y, rng.randrange(2**32)
    b4 = SparsePoly.constant(zv, 1)
    for c in test_lines.TestBezoutEnumeration.LIN4:
        b4 = b4 * test_lines.TestBezoutEnumeration._form(c)
    yield build_converse([parse_poly("z1*z2*z3", zv), b4]), [0, 0, 0], 2
    for seed in (2, 5, 9):
        yield test_lines.tangent_system_with_a_double_line(), [0, 0, 0], seed
    line = parse_poly("z1 + z2 - z3", zv)
    yield build_converse([line * parse_poly("z1*z2 + z3^2", zv), line * parse_poly("z1^3 - z2^2*z3", zv)]), [0, 0, 0], 4


def test_coordinate_changes_of_the_count_certificate_systems_match_compose(monkeypatch):
    calls = []
    change = lines._linear_change

    def spy(p, rows):
        calls.append((p, rows))
        return change(p, rows)

    monkeypatch.setattr(lines, "_linear_change", spy)
    runs = 0
    for hyp, point, seed in count_certificate_systems():
        try:
            count_vmrt_points(hyp, point, seed)
        except ResultantDegenerate:  # the shared-line system, after its coordinate change
            pass
        runs += 1
    monkeypatch.undo()
    assert runs == 45
    assert len(calls) >= 2 * runs
    for p, rows in calls:
        assert_same_coordinate_change(p, rows)


def reference_rand_invertible(rng, size):
    """The same draws, accepted on the Gauss-Jordan rank."""
    while True:
        rows = [[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)]
        if reference_rank(rows, size) == size:
            return rows


def test_rand_invertible_draws_the_rows_of_the_qmatrix_route():
    for seed in range(20):
        fast, ref = random.Random(seed), random.Random(seed)
        for size in (1, 2, 3):
            rows = rand_invertible(fast, size)
            assert rows == reference_rand_invertible(ref, size)
            assert all(type(x) is int for row in rows for x in row)
        assert fast.getstate() == ref.getstate()

    script = iter([1, 2, 2, 4, 3, 0, 0, 5])  # a singular draw, then an invertible one

    class Scripted:
        def getrandbits(self, k):
            assert k == 8  # the bits of randint(-99, 99), which draws below 199 and adds -99
            return next(script) + 99

    assert rand_invertible(Scripted(), 2) == [[3, 0], [0, 5]]


# The samplers draw through getrandbits with the rejection loop of CPython's
# Random._randbelow_with_getrandbits, which randint reaches through randrange.
# This test pins those CPython internals: the references call rng.randint, so
# an interpreter whose randint draws differently fails here.
STREAM_FORMS = ((1, 0), (2, 3), (3, 2), (4, 4), (5, 3), (7, 1))


def test_draws_are_stream_identical_to_randint():
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(3):
            c = rand_fraction(rng)
            assert type(c) is Fraction and c == reference_rand_fraction(twin)
        for nvars, degree in STREAM_FORMS:
            fast = rand_homogeneous(rng, tvars(nvars - 1), degree)
            ref = reference_rand_homogeneous(twin, tvars(nvars - 1), degree)
            assert (fast.nums, fast.den) == (ref.nums, ref.den)
            assert list(fast.nums) == list(ref.nums)
        for size in (1, 2, 3):
            assert rand_invertible(rng, size) == reference_rand_invertible(twin, size)
        assert rng.random() == twin.random()


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


def rand_rational_rows(rng, rows, cols):
    return [[Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(cols)] for _ in range(rows)]


def transposed(rows):
    return [list(col) for col in zip(*rows)]


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
        assert assert_same_rank(rand_rational_rows(rng, rows, cols), cols) == min(rows, cols)


@pytest.mark.parametrize("rows,cols,rank", [(6, 4, 2), (4, 6, 3), (5, 5, 4), (7, 7, 1), (8, 5, 3)])
def test_rank_with_planted_dependent_rows_and_columns(rows, cols, rank):
    rng = random.Random(rows * 97 + cols * 7 + rank)
    # rows: `rank` independent ones and combinations of them, shuffled
    base = rand_rational_rows(rng, rank, cols)
    mixed = base + combine(rng, base, rows - rank)
    rng.shuffle(mixed)
    assert assert_same_rank(mixed, cols) == rank
    # columns: the same, on the transpose
    base = rand_rational_rows(rng, rank, rows)
    mixed = base + combine(rng, base, cols - rank)
    rng.shuffle(mixed)
    assert assert_same_rank(transposed(mixed), cols) == rank


def test_rank_of_zero_and_empty_matrices():
    assert assert_same_rank([[0] * 4 for _ in range(3)], 4) == 0
    assert assert_same_rank([[0]], 1) == 0
    assert assert_same_rank([[] for _ in range(4)], 0) == 0  # 4 x 0
    assert assert_same_rank([], 4) == 0  # 0 x 4
    assert assert_same_rank([], 0) == 0


def test_rank_with_mixed_denominators():
    third, half = Fraction(1, 3), Fraction(1, 2)
    rows = [
        [third, Fraction(-5, 7), Fraction(11, 4), 2],
        [half, Fraction(3, 10), 0, Fraction(-1, 9)],
        [third + half, Fraction(-5, 7) + Fraction(3, 10), Fraction(11, 4), 2 - Fraction(1, 9)],
    ]
    assert assert_same_rank(rows, 4) == 2
    assert assert_same_rank(rows[:2] + [[Fraction(1, 6), 0, 0, Fraction(-7, 8)]], 4) == 3
    rng = random.Random(23)
    for _ in range(5):
        left, right = rand_rational_rows(rng, 4, 6), rand_rational_rows(rng, 4, 2)
        assert_same_rank([a + b for a, b in zip(left, right)], 8)


def certificate_runs(monkeypatch):
    """(c3, c4, answer, resultant calls) of the count certificate on every count_certificate_systems() input.

    The calls are the (u, v, value) of each `_resultant_mod_p` the
    certificate makes: its 13 nodes, then the squarefree test when the
    interpolated R has the degree for it.
    """
    runs = []
    certified, resultant_mod_p = lines._count_certified, lines._resultant_mod_p

    def spy_certified(c3, c4):
        runs.append([c3, c4, None, []])
        runs[-1][2] = certified(c3, c4)
        return runs[-1][2]

    def spy_resultant(u, v):
        value = resultant_mod_p(u, v)
        runs[-1][3].append((list(u), list(v), value))
        return value

    monkeypatch.setattr(lines, "_count_certified", spy_certified)
    monkeypatch.setattr(lines, "_resultant_mod_p", spy_resultant)
    for hyp, point, seed in count_certificate_systems():
        try:
            count_vmrt_points(hyp, point, seed)
        except ResultantDegenerate:  # the shared-line system
            pass
    monkeypatch.undo()
    assert len(runs) == 45
    return runs


def z3_coefficients_at(c, a):
    """The ascending z3-coefficients of the integer form c.den * c at (z1, z2) = (a, 1)."""
    out = [0] * (c.degree_in("z3") + 1)
    for (i, _, k), x in c.nums.items():
        out[k] += x * a**i
    return out


def test_count_certificate_node_values_are_the_sylvester_determinants(monkeypatch):
    # the step the certificate's proof rests on: node a's value is R_Z(a, 1) mod P, the
    # determinant of the integer Sylvester matrix there; (-1)^(3*4) = 1 leaves no sign to fix
    answers = set()
    for c3, c4, answer, calls in certificate_runs(monkeypatch):
        nodes = [(z3_coefficients_at(c3, a), z3_coefficients_at(c4, a)) for a in range(13)]
        assert [(u, v) for u, v, _ in calls[:13]] == nodes
        for u, v, value in calls[:13]:
            assert value == sylvester_det(u, v) % P
        # the squarefree test runs on the interpolated R and R' once R has degree 11 or 12
        assert len(calls) in (13, 14)
        if len(calls) == 14:
            r, derivative, value = calls[13]
            assert len(r) - 1 in (11, 12) and derivative == [i * c for i, c in enumerate(r)][1:]
            assert answer == (value != 0)
        else:
            assert not answer
        answers.add(answer)
    assert answers == {True, False}


def test_count_certificate_builds_no_sylvester_matrix_and_no_echelon(monkeypatch):
    runs = certificate_runs(monkeypatch)

    def refuse(*args):
        raise AssertionError("the count certificate built a Sylvester matrix or a mod-P echelon")

    monkeypatch.setattr(unipoly, "_sylvester_rows", refuse)
    monkeypatch.setattr(linalg, "_reduce_mod_p", refuse)
    assert [lines._count_certified(c3, c4) for c3, c4, _, _ in runs] == [answer for _, _, answer, _ in runs]


def recentred_surface(n, m, seed):
    rng = random.Random(seed)
    hyp = Hypersurface(rand_homogeneous(rng, tvars(n), 2 * m))
    return recenter(hyp, rand_point_off_branch(rng, hyp))


def public_variation_matrices(moved):
    """The Fraction columns of dmu and of the orbit tangent of B_{m+1} at the origin, by the public routes."""
    lowest = reference_vmrt_equations(moved, [0] * moved.n)[0]
    return dmu_formula(moved), orbit_tangent(lowest, degree=moved.m + 1)


def reductions(monkeypatch):
    """Record each call of the elimination mod P: its echelon, the rank it started from, the lines and the rank it returned."""
    seen = []
    reduce_mod_p = linalg._reduce_mod_p

    def spy(echelon, lines):
        start, lines = len(echelon), [list(line) for line in lines]
        rank = reduce_mod_p(echelon, lines)
        seen.append((echelon, start, lines, rank))
        return rank

    monkeypatch.setattr(linalg, "_reduce_mod_p", spy)
    return seen


def assert_proportional(line, column):
    """line == c * column for one nonzero rational c (both zero when the column is)."""
    j = next((j for j, x in enumerate(column) if x), None)
    if j is None:
        assert not any(line)
        return
    c = Fraction(line[j]) / column[j]
    assert c and [c * x for x in column] == line


def report_triple(report):
    """The report's ranks of dmu, of the orbit tangent and of both columns together."""
    return report.rank_dmu, report.dim_orbit, report.rank_dmu + report.dim_orbit - report.dim_intersection


@pytest.mark.parametrize(
    "n,m,seed", [(4, 3, 1), (4, 3, 2), (5, 3, 3), (5, 3, 4), (3, 2, 5), (3, 2, 6), (4, 2, 5), (4, 2, 6), (5, 2, 5)]
)
def test_rank_of_variation_matrices_matches_reference(monkeypatch, n, m, seed):
    moved = recentred_surface(n, m, seed)
    calls = reductions(monkeypatch)
    report = variation_report(moved)
    monkeypatch.undo()
    dmu, orbit = public_variation_matrices(moved)
    size = len(dmu[0])
    assert report_triple(report) == tuple(reference_rank(columns, size) for columns in (dmu, orbit, dmu + orbit))
    # dmu is eliminated on its own, then the orbit, whose echelon the dmu columns continue: the
    # join reduces no orbit column a second time
    assert len(calls) == 3
    (_, start_dmu, _, _), (orbit_echelon, start_orbit, _, rank_orbit), (join_echelon, start_join, _, _) = calls
    assert (start_dmu, start_orbit) == (0, 0)
    assert join_echelon is orbit_echelon and start_join == rank_orbit
    # the reduced lines are the public matrices' columns, each scaled by a nonzero rational
    for (_, _, seen, _), columns in zip(calls, (dmu, orbit, dmu)):
        assert len(seen) == len(columns)
        for line, column in zip(seen, columns):
            assert_proportional(line, column)
    assert max(abs(x).bit_length() for _, _, seen, _ in calls for line in seen for x in line) > 64
    if (n, m) == (3, 2):
        # ternary cubics: the rank-3 image of dmu meets the 9-dimensional orbit tangent in a plane
        assert (report.rank_dmu, report.dim_orbit, report.dim_intersection) == (3, 9, 2)


@pytest.mark.parametrize("n,m,seed", [(4, 3, 1), (5, 3, 3), (3, 2, 5)])
def test_variation_report_is_unchanged_when_every_rank_comes_from_bareiss(monkeypatch, n, m, seed):
    moved = recentred_surface(n, m, seed)
    expected = variation_report(moved)
    reduce_mod_p, bareiss = linalg._reduce_mod_p, linalg._bareiss
    ranks = []

    def under_reported(echelon, lines):
        return reduce_mod_p(echelon, lines) - 1

    def spy_bareiss(*args):
        out = bareiss(*args)
        ranks.append(out[0])
        return out

    monkeypatch.setattr(linalg, "_reduce_mod_p", under_reported)
    monkeypatch.setattr(linalg, "_bareiss", spy_bareiss)
    assert variation_report(moved) == expected
    assert ranks == list(report_triple(expected))


def modular_ranks(monkeypatch):
    """Record the ranks the elimination mod P returns inside `_certified_rank`."""
    seen = []
    reduce_mod_p = linalg._reduce_mod_p

    def spy(echelon, lines):
        seen.append(reduce_mod_p(echelon, lines))
        return seen[-1]

    monkeypatch.setattr(linalg, "_reduce_mod_p", spy)
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
        # tall
        ([[P, 0], [0, 1], [0, 0]], 2),
        ([[1, 2], [2, 4 + P], [3, 6]], 2),
        ([[Fraction(1, 2), 0], [0, Fraction(P, 3)], [0, 0], [Fraction(5, 7), 0]], 2),
        ([[1, 0, 0], [0, 1, 0], [0, 0, P], [0, 0, 0]], 3),
    ],
)
def test_rank_that_drops_only_mod_p_comes_from_bareiss(monkeypatch, rows, rank):
    mod_p = modular_ranks(monkeypatch)
    assert assert_same_rank(rows, len(rows[0])) == rank
    assert mod_p == [rank - 1]


def test_full_rank_mod_p_returns_without_bareiss(monkeypatch):
    mod_p = modular_ranks(monkeypatch)
    assert assert_same_rank([[P + 1, 2], [3, 5]], 2) == 2  # rank 2 mod P and over Q
    assert mod_p == [2]
