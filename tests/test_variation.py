"""Variation analysis: bases, the two differential routes, orbits, reports."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from vmrt import (
    Hypersurface,
    InvalidInput,
    MonomialBasis,
    NormalizationViolated,
    SparsePoly,
    build_converse,
    coeff_vector,
    dmu_formula,
    dmu_jet,
    explicit_family,
    format_poly,
    mu,
    orbit_tangent,
    parse_poly,
    variation_report,
    vmrt_equations,
)
from vmrt import linalg
from vmrt.sampling import rand_homogeneous, rand_nonzero_fraction
from vmrt.selftest import _random_normalized

from test_linalg import assert_same_rank, reference_rank


def zvars(n):
    return tuple(f"z{i}" for i in range(1, n + 1))


def reference_triple(dmu, orbit):
    """(rank dmu, dim orbit, dim of their intersection) by Gauss-Jordan on the Fraction columns."""
    size = len(orbit[0])
    rank_dmu, dim_orbit = reference_rank(dmu, size), reference_rank(orbit, size)
    return rank_dmu, dim_orbit, rank_dmu + dim_orbit - reference_rank(dmu + orbit, size)


def assert_fraction_columns(columns, count, size):
    """`count` immutable columns of `size` Fractions each."""
    assert type(columns) is tuple and len(columns) == count
    for column in columns:
        assert type(column) is tuple and len(column) == size
        assert all(type(x) is Fraction for x in column)


class TestBasisAndVectors:
    def test_basis_size(self):
        basis = MonomialBasis(4, 3)
        assert basis.size == comb(4 + 3 - 1, 3)
        assert basis.monomials[0] == (3, 0, 0, 0)

    def test_unit_vector_position(self):
        basis = MonomialBasis(2, 2)
        col = coeff_vector(parse_poly("z1^2", zvars(2)), basis)
        assert col[basis.index((2, 0))] == 1
        assert sum(1 for c in col if c != 0) == 1

    def test_zero_polynomial(self):
        basis = MonomialBasis(3, 4)
        col = coeff_vector(SparsePoly.zero(zvars(3)), basis)
        assert col == (0,) * basis.size

    def test_column_equals_its_coeff_vector(self):
        # the columns of dmu_formula and the coordinates of coeff_vector and mu are one type
        hyp = explicit_family(4, 2, 1, 1)  # f_1 = f_2 = 0: column i is the z_i-partial of f_4
        basis = MonomialBasis(4, 3)
        part = hyp.graded_parts()[4]
        for i, column in enumerate(dmu_formula(hyp), start=1):
            assert column == coeff_vector(part.partial(f"z{i}"), basis)
        assert type(coeff_vector(part.partial("z1"), basis)) is tuple
        assert type(mu(hyp, [0, 0, 0, 0])) is tuple

    def test_round_trip(self):
        rng = random.Random(37)
        basis = MonomialBasis(3, 3)
        p = rand_homogeneous(rng, zvars(3), 3)
        column = coeff_vector(p, basis)
        assert SparsePoly(basis.variables, dict(zip(basis.monomials, column))) == p

    def test_wrong_degree_rejected(self):
        basis = MonomialBasis(2, 2)
        with pytest.raises(InvalidInput):
            coeff_vector(parse_poly("z1^3", zvars(2)), basis)


class TestMu:
    def test_normalized_surface_reads_off_next_part(self):
        rng = random.Random(41)
        hyp = _random_normalized(rng, 3, 2, zero_lower=True)
        basis = MonomialBasis(3, 3)
        expected = coeff_vector(hyp.graded_parts()[3], basis)
        assert mu(hyp, [0, 0, 0]) == expected

    def test_degenerate_power_gives_zero(self):
        hyp = Hypersurface(parse_poly("t0^4", ("t0", "t1", "t2")))
        col = mu(hyp, [0, 0])
        assert col == (0,) * MonomialBasis(2, 3).size

    def test_converse_reads_off_first_prescribed(self):
        rng = random.Random(43)
        b3 = rand_homogeneous(rng, zvars(3), 3)
        b4 = rand_homogeneous(rng, zvars(3), 4)
        hyp = build_converse([b3, b4])
        assert mu(hyp, [0, 0, 0]) == coeff_vector(b3, MonomialBasis(3, 3))


class TestMuConsistency:
    def test_restriction_route_equals_graded_route(self):
        # mu through the restriction pipeline vs direct assembly from the
        # graded parts: B_{m+1}(0; z) = f_{m+1} - A_{m+1}(f_1, ..., f_m)
        from vmrt import build_family

        rng = random.Random(71)
        for n, m in ((3, 2), (4, 3)):
            hyp = _random_normalized(rng, n, m, zero_lower=False)
            parts = hyp.graded_parts()
            fam = build_family(m)
            lowest = parts[m + 1] - fam.tail_polys[m + 1].compose(parts[1 : m + 1])
            assert mu(hyp, (0,) * n) == coeff_vector(lowest, MonomialBasis(n, m + 1))


class TestDifferential:
    def test_reduction_when_lower_parts_vanish(self):
        rng = random.Random(47)
        for n, m in ((3, 2), (4, 3)):
            hyp = _random_normalized(rng, n, m, zero_lower=True)
            parts = hyp.graded_parts()
            basis = MonomialBasis(n, m + 1)
            mat = dmu_formula(hyp)
            for i in range(1, n + 1):
                expected = coeff_vector(parts[m + 2].partial(f"z{i}"), basis)
                assert mat[i - 1] == expected

    def test_explicit_family_columns(self):
        # m=2, n=4, b=c=1: column i should be 4*z_i^3 + sum of complement triples
        hyp = explicit_family(4, 2, 1, 1)
        basis = MonomialBasis(4, 3)
        mat = dmu_formula(hyp)
        zv = zvars(4)
        for i in range(1, 5):
            gens = [SparsePoly.variable(zv, f"z{j}") for j in range(1, 5)]
            expected_poly = gens[i - 1] ** 3 * 4
            for triple in combinations([j for j in range(1, 5) if j != i], 3):
                term = SparsePoly.constant(zv, 1)
                for j in triple:
                    term = term * gens[j - 1]
                expected_poly = expected_poly + term
            assert mat[i - 1] == coeff_vector(expected_poly, basis)

    def test_no_middle_part_gives_zero_matrix(self):
        # m = 3: f = t0^6 + (degree-6 part in t1..t3) has f_5 = 0, so dmu dies
        rng = random.Random(53)
        tv = ("t0", "t1", "t2", "t3")
        top = rand_homogeneous(rng, tv[1:], 6)
        lifted = SparsePoly(tv, {(0,) + exp: c for exp, c in top.terms.items()})
        hyp = Hypersurface(SparsePoly.variable(tv, "t0") ** 6 + lifted)
        mat = dmu_formula(hyp)
        assert all(c == 0 for column in mat for c in column)

    def test_normalization_enforced(self):
        hyp = Hypersurface(parse_poly("2*t0^4 + t1^4", ("t0", "t1", "t2")))
        with pytest.raises(NormalizationViolated):
            dmu_formula(hyp)
        with pytest.raises(NormalizationViolated):
            dmu_jet(hyp)

    def test_formula_equals_jets(self):
        rng = random.Random(59)
        for n, m in ((3, 2), (4, 2), (4, 3)):
            for _ in range(2):
                hyp = _random_normalized(rng, n, m, zero_lower=False)
                columns = dmu_formula(hyp)
                assert_fraction_columns(columns, n, comb(n + m, m + 1))
                assert_fraction_columns(dmu_jet(hyp), n, comb(n + m, m + 1))
                assert columns == dmu_jet(hyp)


class TestOrbitTangent:
    def test_sum_of_powers_has_full_orbit(self):
        for n, m in ((3, 2), (4, 3)):
            zv = zvars(n)
            h = SparsePoly.zero(zv)
            for i in range(1, n + 1):
                h = h + SparsePoly.variable(zv, f"z{i}") ** (m + 1)
            h = h * Fraction(3, 7)
            mat = orbit_tangent(h)
            assert_fraction_columns(mat, n * n, MonomialBasis(n, m + 1).size)
            assert assert_same_rank(mat, MonomialBasis(n, m + 1).size) == n * n

    def test_zero_form(self):
        mat = orbit_tangent(SparsePoly.zero(zvars(3)), degree=3)
        assert len(mat) == 9
        assert assert_same_rank(mat, MonomialBasis(3, 3).size) == 0

    def test_single_power(self):
        zv = zvars(3)
        h = SparsePoly.variable(zv, "z1") ** 3
        assert assert_same_rank(orbit_tangent(h), MonomialBasis(3, 3).size) == 3

    def test_wrong_degree_rejected(self):
        with pytest.raises(InvalidInput):
            orbit_tangent(parse_poly("z1^2", zvars(2)), degree=3)


class TestReportsAndFamilies:
    def test_m2_family_polynomial(self):
        hyp = explicit_family(4, 2, 1, 1)
        expected = parse_poly(
            "t0^4 + t0*t1^3 + t0*t2^3 + t0*t3^3 + t0*t4^3"
            " + t1^4 + t2^4 + t3^4 + t4^4 + t1*t2*t3*t4"
        )
        assert hyp.f == expected

    def test_mge3_family_polynomial(self):
        hyp = explicit_family(4, 3, 1, 1)
        expected = parse_poly(
            "t0^6 + t0^2*t1^4 + t0^2*t2^4 + t0^2*t3^4 + t0^2*t4^4"
            " + t0*t1*t2*t3*t4^2 + t1^6 + t2^6 + t3^6 + t4^6"
        )
        assert hyp.f == expected

    @pytest.mark.parametrize(
        "n,m,text",
        [
            (
                5,
                2,
                "t0^4 - 2/3*t0*t1^3 + t1^4 - 2/3*t0*t2^3 + t2^4 - 2/3*t0*t3^3 + t3^4"
                " + 5*t1*t2*t3*t4 - 2/3*t0*t4^3 + t4^4 + 5*t1*t2*t3*t5 + 5*t1*t2*t4*t5"
                " + 5*t1*t3*t4*t5 + 5*t2*t3*t4*t5 - 2/3*t0*t5^3 + t5^4",
            ),
            (
                5,
                4,
                "t0^8 - 2/3*t0^3*t1^5 + t1^8 - 2/3*t0^3*t2^5 + t2^8 - 2/3*t0^3*t3^5 + t3^8"
                " + 5*t0^2*t1*t2*t3*t4^3 - 2/3*t0^3*t4^5 + t4^8 + 5*t0^2*t1*t2*t3*t5^3"
                " - 2/3*t0^3*t5^5 + t5^8",
            ),
            (
                6,
                3,
                "t0^6 - 2/3*t0^2*t1^4 + t1^6 - 2/3*t0^2*t2^4 + t2^6 - 2/3*t0^2*t3^4 + t3^6"
                " + 5*t0*t1*t2*t3*t4^2 - 2/3*t0^2*t4^4 + t4^6 + 5*t0*t1*t2*t3*t5^2"
                " - 2/3*t0^2*t5^4 + t5^6 + 5*t0*t1*t2*t3*t6^2 - 2/3*t0^2*t6^4 + t6^6",
            ),
        ],
    )
    def test_family_text_with_several_c_terms(self, n, m, text):
        # b = -2/3, c = 5 and n >= 5: every b, c and power term is told apart
        assert format_poly(explicit_family(n, m, Fraction(-2, 3), 5).f) == text

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            explicit_family(3, 2, 1, 1)
        with pytest.raises(InvalidInput):
            explicit_family(4, 4, 1, 1)
        with pytest.raises(InvalidInput):
            explicit_family(4, 2, 0, 1)
        with pytest.raises(InvalidInput):
            explicit_family(4, 2, 1, 0)

    def test_reference_family_numbers(self):
        for m in (2, 3):
            rep = variation_report(explicit_family(4, m, 1, 1))
            assert (rep.rank_dmu, rep.dim_orbit, rep.dim_intersection) == (4, 16, 0)
            assert rep.maximal

    @pytest.mark.parametrize("n,m", [(n, m) for n in (4, 5, 6) for m in range(2, n)])
    def test_family_report_matches_public_route(self, n, m):
        # variation_report ranks integer columns; the reference ranks of the public routes'
        # Fraction columns must agree (recentred random points:
        # tests/test_kernels.py::test_rank_of_variation_matrices_matches_reference)
        hyp = explicit_family(n, m, 1, 1)
        lowest = vmrt_equations(hyp, [0] * n).equations[0]
        dmu, orbit = dmu_formula(hyp), orbit_tangent(lowest, degree=m + 1)
        rep = variation_report(hyp)
        triple = (rep.rank_dmu, rep.dim_orbit, rep.dim_intersection)
        assert triple == reference_triple(dmu, orbit) == (n, n * n, 0)

    @pytest.mark.parametrize(
        "texts,triple,bareiss_ranks",
        [
            (("z1^3", "z2^4"), (1, 3, 0), [1, 3, 4]),
            (("z1^3 + z2^3", "z1^4 + z2^4 + z3^4"), (3, 6, 2), [6, 7]),
            # the Fermat sextic of test_missing_middle_part_is_not_maximal
            (None, (0, 0, 0), [0, 0, 0]),
        ],
    )
    def test_report_below_full_rank_matches_public_route(self, monkeypatch, texts, triple, bareiss_ranks):
        # a count mod P below its bound goes to Bareiss on the full line set; the report's join
        # continues the orbit's elimination mod P, the reference ranks the concatenation afresh
        if texts is None:
            hyp = Hypersurface(parse_poly("t0^6 + t1^6 + t2^6 + t3^6 + t4^6"))
        else:
            hyp = build_converse([parse_poly(text, zvars(3)) for text in texts])
        lowest = vmrt_equations(hyp, [0] * hyp.n).equations[0]
        dmu, orbit = dmu_formula(hyp), orbit_tangent(lowest, degree=hyp.m + 1)
        bareiss, seen = linalg._bareiss, []

        def spy(*args):
            out = bareiss(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(linalg, "_bareiss", spy)
        rep = variation_report(hyp)
        assert seen == bareiss_ranks
        monkeypatch.undo()
        assert (rep.rank_dmu, rep.dim_orbit, rep.dim_intersection) == reference_triple(dmu, orbit) == triple

    def test_maximal_flag_stable_over_random_parameters(self):
        rng = random.Random(61)
        for m in (2, 3):
            for _ in range(10):
                b = rand_nonzero_fraction(rng)
                c = rand_nonzero_fraction(rng)
                rep = variation_report(explicit_family(4, m, b, c))
                assert rep.maximal

    def test_missing_middle_part_is_not_maximal(self):
        # m = 3 Fermat: f_5 = 0, so the differential has rank 0
        hyp = Hypersurface(parse_poly("t0^6 + t1^6 + t2^6 + t3^6 + t4^6"))
        rep = variation_report(hyp)
        assert rep.rank_dmu == 0
        assert not rep.maximal

    def test_report_requires_normalization(self):
        hyp = Hypersurface(parse_poly("3*t0^4 + t1^4 + t2^4 + t3^4 + t4^4"))
        with pytest.raises(NormalizationViolated):
            variation_report(hyp)
