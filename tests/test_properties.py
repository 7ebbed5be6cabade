"""Property tests: the restriction kernels, the two square tests, the text format.

Hypothesis draws small forms, points, roots and polynomials.  Every test
is derandomized and bounded, so a run is deterministic and short; the
references are the term-by-term Fraction loops of tests/test_kernels.py.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernels import reference_jet_restrict, reference_restrict, reference_symbolic_restrict
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
)

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
