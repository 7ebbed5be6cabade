"""Property tests: kernels, square tests, half-square recursion, line memo, text, CLI.

The kernels are denominator clearing, restriction, gcd, rank and Bareiss.
Hypothesis draws small forms, points, roots, polynomials and command
lines.  Every test is derandomized and bounded, so a run is deterministic
and short; the references are the Fraction loops of tests/test_kernels.py
and tests/test_linalg.py.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernels import (
    P,
    reference_jet_restrict,
    reference_mul,
    reference_poly_gcd,
    reference_restrict,
    reference_squarefree,
    reference_symbolic_restrict,
)
from test_linalg import assert_same_rank, reference_rank
from vmrt import (
    BasePointOnBranch,
    Hypersurface,
    InvalidInput,
    SparsePoly,
    UniPoly,
    certify,
    format_poly,
    is_eco_line,
    is_perfect_square,
    line_certificate,
    monomials_of_degree,
    parse_poly,
    restrict_to_line,
    restrict_to_line_jets,
    squarefree_factorization,
)
from vmrt.cli import main
from vmrt.eco import _half_square
from vmrt.linalg import _bareiss, _int_cross, _int_exact
from vmrt.poly import _cleared, _sum_of_products
from vmrt.unipoly import poly_gcd

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

fractions = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))
nonzero_fractions = fractions.filter(bool)


@st.composite
def forms(draw):
    """A nonzero homogeneous form in t0..tn, n <= 3, degree <= 4."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    monos = monomials_of_degree(n + 1, d)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
    coeffs = draw(st.lists(nonzero_fractions, min_size=len(picked), max_size=len(picked)))
    return SparsePoly(tuple(f"t{i}" for i in range(n + 1)), dict(zip(picked, coeffs)))


def points(n):
    return st.lists(fractions, min_size=n, max_size=n)


@PROPERTY
@given(st.data())
def test_numeric_restriction_matches_reference(data):
    f = data.draw(forms())
    n = len(f.vars) - 1
    y, z = data.draw(points(n)), data.draw(points(n))
    assert restrict_to_line(f, y, z) == reference_restrict(f, y, z)


@PROPERTY
@given(st.data())
def test_symbolic_restriction_matches_reference(data):
    f = data.draw(forms())
    y = data.draw(points(len(f.vars) - 1))
    assert restrict_to_line(f, y) == reference_symbolic_restrict(f, y)


def line_outcome(judge, hyp, y, z):
    """A certificate or square verdict, or the type of the error it raised."""
    try:
        return judge(hyp, y, z)
    except (BasePointOnBranch, InvalidInput) as err:
        return type(err)


@PROPERTY
@given(st.data())
def test_memoized_line_judgements_match_fresh_hypersurfaces(data):
    f = data.draw(forms().filter(lambda f: f.homogeneous_degree() % 2 == 0))
    n = len(f.vars) - 1
    drawn = data.draw(st.lists(st.tuples(points(n), points(n)), min_size=2, max_size=3))
    order = data.draw(st.lists(st.tuples(st.integers(0, len(drawn) - 1), st.booleans()), min_size=1, max_size=8))
    hyp = Hypersurface(f)
    for i, by_certificate in order:
        judge = line_certificate if by_certificate else is_eco_line
        y, z = drawn[i]
        assert line_outcome(judge, hyp, y, z) == line_outcome(judge, Hypersurface(f), y, z)


@PROPERTY
@given(st.data())
def test_jet_restriction_matches_reference(data):
    f = data.draw(forms())
    n = len(f.vars) - 1
    point = data.draw(points(n))
    tangents = data.draw(st.lists(points(n), max_size=3))
    jets = restrict_to_line_jets(f, point, tangents)
    for s, tangent in enumerate(tangents or [[0] * n]):
        ref = reference_jet_restrict(f, list(zip(point, tangent)))
        assert [j.value for j in jets] == [r.value for r in ref]
        if tangents:
            assert [j.derivative[s] for j in jets] == [r.derivative[0] for r in ref]
    assert all(len(j.derivative) == len(tangents) for j in jets)


def unipolys(min_degree, max_degree):
    """A UniPoly of degree min_degree..max_degree with a nonzero leading coefficient."""
    return st.builds(
        lambda low, lead: UniPoly(low + [lead]),
        st.lists(fractions, min_size=min_degree, max_size=max_degree),
        nonzero_fractions,
    )


@PROPERTY
@given(unipolys(0, 3), unipolys(0, 4), unipolys(0, 4))
def test_gcd_of_planted_products_matches_reference(g, a, b):
    fast = poly_gcd(g * a, g * b)
    assert fast == reference_poly_gcd(g * a, g * b)
    assert fast.degree() >= g.degree()


@PROPERTY
@given(st.lists(unipolys(0, 2), min_size=1, max_size=3))
def test_squarefree_factorization_matches_reference(factors):
    p = UniPoly([1])
    for i, f in enumerate(factors, start=1):
        p = p * f ** i
    assert squarefree_factorization(p) == reference_squarefree(p)


@PROPERTY
@given(
    st.lists(fractions, min_size=1, max_size=4),
    st.integers(0, 7),
    nonzero_fractions,
)
def test_certificate_agrees_with_square_oracle(tail, where, bump):
    root = UniPoly([1] + tail)
    square = root * root
    m = len(tail)
    a = [square.coeff(k) for k in range(1, 2 * m + 1)]
    assert certify(a).passed is True
    assert is_perfect_square(UniPoly([1] + a))[0] is True
    a[where % (2 * m)] += bump
    assert certify(a).passed == is_perfect_square(UniPoly([1] + a))[0]


@PROPERTY
@given(st.lists(fractions, min_size=1, max_size=5))
def test_half_square_recovers_the_root_of_a_square(sigma):
    """On the coefficients of (1 + sum sigma_k lam^k)^2 the recursion returns sigma and the top half."""
    m = len(sigma)
    root = UniPoly([1] + sigma)
    square = root * root
    a = [square.coeff(k) for k in range(1, 2 * m + 1)]
    got, tails = _half_square(a[:m], 2 * m)
    assert got == sigma
    assert [ak - t for ak, t in zip(a[m:], tails)] == [0] * m
    for top in range(m, 2 * m + 1):  # a shorter run returns a prefix of the tails
        assert _half_square(a[:m], top) == (got, tails[: top - m])
    cert = certify(a)
    assert cert.sigma == tuple(sigma)
    assert cert.residuals == (0,) * m and cert.passed


# small entries, and a few multiples of P = 2^61 - 1 that vanish mod P
matrix_entries = st.one_of(
    st.integers(-9, 9), fractions, st.sampled_from([P, -P, 2 * P, P + 1, Fraction(P, 3)])
)


@st.composite
def matrices(draw):
    """The rows of a matrix of at most 5 x 5, sometimes with one row or column a combination of two others."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    data = draw(
        st.lists(st.lists(matrix_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    plant = draw(st.sampled_from(["none", "row", "column"]))
    if plant == "column":
        data = [list(col) for col in zip(*data)]
    if plant != "none" and len(data) >= 3:
        i, j, k = draw(st.permutations(range(len(data))))[:3]
        a, b = draw(fractions), draw(fractions)
        data[k] = [a * x + b * y for x, y in zip(data[i], data[j])]
    if plant == "column":
        data = [list(row) for row in zip(*data)]
    return data


@PROPERTY
@given(matrices())
def test_rank_matches_reference(rows):
    assert_same_rank(rows, len(rows[0]))


@PROPERTY
@given(
    st.lists(st.one_of(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 60)), st.integers(-99, 99)))
)
def test_cleared_gives_numerators_over_the_least_denominator(values):
    assert _cleared([]) == ([], 1)
    nums, den = _cleared(values)
    assert den > 0
    assert len(nums) == len(values)
    assert all(Fraction(k, den) == v for k, v in zip(nums, values))
    # no smaller denominator works: den shares no factor with all numerators
    assert gcd(den, *nums) == 1


@st.composite
def product_pairs(draw):
    """Variables and operand pairs (a, b) over them, for the fused sum of products.

    Operands are inhomogeneous with mixed denominators and may be zero.
    Some draws add (-a, b) for every pair, so the sum cancels to zero; some
    add a pair of pure powers of one variable whose product reaches the top
    exponent deg a + deg b of every pair in that variable.
    """
    variables = ("t0", "t1", "t2")[: draw(st.integers(1, 3))]
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    polys = st.lists(st.tuples(exps, fractions), max_size=5).map(
        lambda items: SparsePoly.from_terms(variables, items)
    )
    pairs = draw(st.lists(st.tuples(polys, polys), max_size=4))
    if draw(st.booleans()):
        top = max((a.total_degree() + b.total_degree() for a, b in pairs), default=0)
        i = draw(st.integers(0, len(variables) - 1))
        da = draw(st.integers(0, 4))
        db = max(top - da, 0) + draw(st.integers(0, 2))
        power = [0] * len(variables)
        a = SparsePoly.from_terms(variables, [(power[:i] + [da] + power[i + 1:], draw(nonzero_fractions))])
        b = SparsePoly.from_terms(variables, [(power[:i] + [db] + power[i + 1:], draw(nonzero_fractions))])
        pairs.append((a, b))
    cancel = draw(st.booleans())
    if cancel:
        pairs += [(-a, b) for a, b in pairs]
    return variables, pairs, cancel


@PROPERTY
@given(product_pairs())
def test_sum_of_products_matches_polynomial_arithmetic(drawn):
    variables, pairs, cancel = drawn
    fast = _sum_of_products(variables, pairs)
    # the Fraction double loop, so the reference runs no integer product kernel
    acc = {}
    for a, b in pairs:
        for exp, c in reference_mul(a, b).terms.items():
            acc[exp] = acc.get(exp, 0) + c
    assert fast == SparsePoly(variables, acc)
    assert all(type(c) is Fraction for c in fast.terms.values())
    if cancel:
        assert fast.is_zero


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions, one sign flip per row swap."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pr = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


@st.composite
def integer_square_matrices(draw):
    """A square integer matrix of at most 5 x 5, and whether one row was planted dependent.

    Zero entries are drawn often and the top of the first column is zeroed
    on some draws, so pivots are found by row swaps.
    """
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0), st.integers(-9, 9))
    m = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    for row in m[: draw(st.integers(0, n - 1))]:
        row[0] = 0
    planted = n >= 2 and draw(st.booleans())
    if planted:
        k = draw(st.integers(0, n - 1))
        others = [r for r in range(n) if r != k]
        i, j = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m, planted


@PROPERTY
@given(integer_square_matrices())
def test_bareiss_determinant_matches_fraction_elimination(drawn):
    m, planted = drawn
    n = len(m)
    work = [list(row) for row in m]
    rank, sign = _bareiss(work, n, _int_cross, _int_exact)
    det = fraction_det(m)
    assert rank == reference_rank(m, n)
    if rank == n:
        assert sign * work[-1][-1] == det
    else:
        assert det == 0
    if planted:
        assert rank < n


# small and over-64-bit numerators over mixed denominators
mixed_fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-12, 12), st.integers(-(2**80), 2**80)),
    st.one_of(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35]), st.integers(1, 2**70)),
)


@PROPERTY
@given(
    st.sampled_from([("t0", "t1", "t2"), ("z1", "z2", "z3")]),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.one_of(fractions, mixed_fractions)), max_size=8),
)
def test_format_then_parse_round_trips(variables, items):
    p = SparsePoly.from_terms(variables, items)
    text = format_poly(p)
    q = parse_poly(text, variables)
    assert q == p
    assert format_poly(q) == text


# -- the command line under malformed input -----------------------------------

RATIONAL_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-9, 9).map(str),
)
NUMBER_TEXTS = st.one_of(
    RATIONAL_TEXTS,
    RATIONAL_TEXTS,
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-3, 0)),
    st.sampled_from(
        ["0.5", "-1.25", "1e3", "2E-2", "1_0", "٣", "1e999999999", "1e1_0000", "9" * 5000,
         "7" * 3000, "", " ", "1/", "/2", "--1", "1.2.3", "nan", "inf", "x"]
    ),
    st.text(max_size=6),
)
VARIABLE_TEXTS = st.sampled_from(["t0", "t1", "t2", "t3", "t4", "z1", "z2", "x", "t", "t01", "t13"])
FACTOR_TEXTS = st.one_of(
    VARIABLE_TEXTS,
    st.builds(
        "{}^{}".format, VARIABLE_TEXTS, st.sampled_from(["0", "1", "2", "3", "4", "99999999", "-1", ""])
    ),
)
TERM_TEXTS = st.builds(
    "{}{}".format,
    st.sampled_from(["", "2*", "1/3*", "-5/4*", "1/0*", "0*", "**", "7"]),
    st.lists(FACTOR_TEXTS, max_size=4).map("*".join),
)
POLY_FILES = st.one_of(
    forms().map(format_poly).map(str.encode),
    forms().map(format_poly).map(str.encode),
    st.lists(TERM_TEXTS, max_size=6).map(" + ".join).map(str.encode),
    st.sampled_from(
        [
            b"t0^4 + t0*t1^3 + t0*t2^3 + t0*t3^3 + t1^4 + t2^4 + t3^4",
            b"t0^4 - t1^4 + t2^4 + t3^4",
            b"t0^2 + t1^2",
            b"t0^4 + 1/0*t1^4",
            # sparse files at the caps n = 12 and degree 24
            b"t0^24 + t12^24",
            b"t0^22*t1^2 + t12^24",
        ]
    ),
    st.text(max_size=20).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=20),
)

# prescribed equations for converse, degree-24 forms at the cap, and t-variable files it must refuse
CONVERSE_FILES = st.sampled_from(
    [
        b"z1^3 + z2^3 + z3^3",
        b"z1^4 - 2*z2^4 + z3^4",
        b"z2^3",
        b"t0^3 + t1^3",
        b"t2^4",
        b"z1^24 + z12^24",
        b"z1^23*z2 - 1/7*z12^24",
        b"z1^12*z12^12",
    ]
)


def number_lists(size):
    """Comma-separated rationals: `size` well-formed ones two times in three, else any mix."""
    rationals = st.lists(RATIONAL_TEXTS, min_size=size, max_size=size)
    mixed = st.lists(NUMBER_TEXTS, min_size=1, max_size=size + 1)
    return st.one_of(rationals, rationals, mixed).map(",".join)


@pytest.fixture(scope="module")
def poly_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.poly"


@settings(PROPERTY, max_examples=450)
@given(st.data())
def test_cli_exits_cleanly_on_drawn_input(poly_path, data):
    """Exit code 0, 1 or 2 and, with --json, an error record exactly when nonzero."""
    command = data.draw(
        st.sampled_from(["eqs", "eco-line", "count", "eco-cert", "converse", "variation"])
    )
    as_json = data.draw(st.booleans())
    n = data.draw(st.one_of(st.integers(1, 3), st.just(12)))
    if command == "eco-cert":
        argv = [command, "--coeffs=" + data.draw(number_lists(2 * n))]
    elif command == "converse":
        # a file list with empty entries, possibly none at all
        entries = data.draw(st.lists(st.one_of(st.none(), POLY_FILES, CONVERSE_FILES), max_size=3))
        paths = []
        for i, entry in enumerate(entries):
            if entry is None:
                paths.append(data.draw(st.sampled_from(["", " "])))
            else:
                path = poly_path.with_name(f"b{i}.poly")
                path.write_bytes(entry)
                paths.append(str(path))
        argv = [command, "--b=" + ",".join(paths)]
    elif command == "variation" and data.draw(st.booleans()):
        family = data.draw(st.sampled_from(["m2", "mge3"]))
        argv = [command, "--family", family, "--n=" + str(data.draw(st.integers(-2, 6)))]
        m = data.draw(st.one_of(st.none(), st.integers(-1, 4)))
        if m is not None:
            argv.append(f"--m={m}")
        argv += ["--b=" + data.draw(NUMBER_TEXTS), "--c=" + data.draw(NUMBER_TEXTS)]
    elif command == "variation":
        poly_path.write_bytes(data.draw(POLY_FILES))
        argv = [command, "--f", str(poly_path)]
    else:
        poly_path.write_bytes(data.draw(POLY_FILES))
        argv = [command, "--f", str(poly_path), "--point=" + data.draw(number_lists(n))]
        if command == "eco-line":
            argv.append("--dir=" + data.draw(number_lists(n)))
        if command == "count":
            argv += ["--seed", str(data.draw(st.integers(0, 99)))]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if as_json:
        record = json.loads(out.getvalue())
        assert ("error" in record) == (code != 0)
        if code:
            assert set(record["error"]) == {"type", "message"}
