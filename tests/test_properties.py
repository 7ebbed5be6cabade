"""Property tests: restriction and gcd kernels, square tests, text format, CLI.

Hypothesis draws small forms, points, roots, polynomials and command
lines.  Every test is derandomized and bounded, so a run is deterministic
and short; the references are the Fraction loops of tests/test_kernels.py.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernels import (
    reference_jet_restrict,
    reference_poly_gcd,
    reference_restrict,
    reference_squarefree,
    reference_symbolic_restrict,
)
from vmrt import (
    SparsePoly,
    UniPoly,
    certify,
    format_poly,
    is_perfect_square,
    monomials_of_degree,
    parse_poly,
    restrict_to_line,
    restrict_to_line_jets,
    squarefree_factorization,
)
from vmrt.cli import main
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


@PROPERTY
@given(st.data())
def test_jet_restriction_matches_reference(data):
    f = data.draw(forms())
    n = len(f.vars) - 1
    pairs = list(zip(data.draw(points(n)), data.draw(points(n))))
    assert restrict_to_line_jets(f, pairs) == reference_jet_restrict(f, pairs)


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
@given(
    st.sampled_from([("t0", "t1", "t2"), ("z1", "z2", "z3")]),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * 3), fractions), max_size=8),
)
def test_format_then_parse_round_trips(variables, items):
    p = SparsePoly.from_terms(variables, items)
    assert parse_poly(format_poly(p), variables) == p


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
        ]
    ),
    st.text(max_size=20).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=20),
)


def number_lists(size):
    """Comma-separated rationals: `size` well-formed ones two times in three, else any mix."""
    rationals = st.lists(RATIONAL_TEXTS, min_size=size, max_size=size)
    mixed = st.lists(NUMBER_TEXTS, min_size=1, max_size=size + 1)
    return st.one_of(rationals, rationals, mixed).map(",".join)


@pytest.fixture(scope="module")
def poly_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.poly"


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_cli_exits_cleanly_on_drawn_input(poly_path, data):
    """Exit code 0, 1 or 2 and, with --json, an error record exactly when nonzero."""
    command = data.draw(st.sampled_from(["eqs", "eco-line", "count", "eco-cert"]))
    as_json = data.draw(st.booleans())
    n = data.draw(st.integers(1, 3))
    if command == "eco-cert":
        argv = [command, "--coeffs=" + data.draw(number_lists(2 * n))]
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
