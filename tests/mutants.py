"""Mutation check: every named mutant of the library must make its tests fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each row of MUTANTS names a module under src/vmrt, an exact source snippet
that must occur there exactly once, its replacement, and the pytest node
ids that must fail once the snippet is replaced.  The script copies src/,
tests/ and pyproject.toml to a temporary directory, checks that all the
named node ids pass on the unchanged copy, and then, row by row, applies
the mutant to the copied module, runs `python -m pytest -q -x <node ids>`
against the copy and restores the module.  It exits nonzero when a
mutant survives (its tests pass: a gap in the tests, to be closed by a
test, never by dropping the row) or when a snippet no longer occurs
exactly once (the table is stale and is updated with the code).

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    node_ids: tuple[str, ...]


MUTANTS = (
    Mutant(
        "evaluate_without_degree_lift",
        "poly.py",
        "k * prod(map(getitem, tables, exp)) * scale[top - sum(exp)]",
        "k * prod(map(getitem, tables, exp))",
        ("tests/test_poly.py::TestSubstitution::test_evaluate_matches_reference_on_seeded_polynomials",),
    ),
    Mutant(
        "evaluate_without_den",
        "poly.py",
        "return Fraction(total, self.den * scale[top])",
        "return Fraction(total, scale[top])",
        ("tests/test_poly.py::TestSubstitution::test_evaluate_matches_reference_on_seeded_polynomials",),
    ),
    Mutant(
        "kronecker_slot_of_b_minus_1_bits",
        "unipoly.py",
        "d * reach.bit_length() + 1",
        "d * reach.bit_length()",
        ("tests/test_kernels.py::TestKroneckerRestriction::test_one_term_form_at_the_digit_bound",),
    ),
    Mutant(
        "kronecker_digits_without_sign_fold",
        "unipoly.py",
        "        if digit >= half:\n            digit -= mask + 1\n",
        "",
        (
            "tests/test_kernels.py::TestKroneckerRestriction::test_all_negative_coefficients",
            "tests/test_kernels.py::TestKroneckerRestriction::test_alternating_signs",
        ),
    ),
    Mutant(
        "certify_scaled_by_2d",
        "eco.py",
        "s = 4 * lcm(*(x.denominator for x in a))",
        "s = 2 * lcm(*(x.denominator for x in a))",
        (
            "tests/test_eco.py::TestIntegerCertificate::test_matches_the_fraction_recursion",
            "tests/test_eco.py::TestIntegerCertificate::test_halving_is_exact_on_odd_numerators",
        ),
    ),
    Mutant(
        "half_square_without_doubling",
        "eco.py",
        "term = sigma[ell] * sigma[k - ell] * 2",
        "term = sigma[ell] * sigma[k - ell]",
        (
            "tests/test_eco.py::TestBuildFamily::test_m2_tail_polys",
            "tests/test_eco.py::TestIntegerCertificate::test_matches_the_fraction_recursion",
        ),
    ),
    Mutant(
        "cross_difference_adds",
        "unipoly.py",
        "[(a, b, 1), (c, d, -1)]",
        "[(a, b, 1), (c, d, 1)]",
        (
            "tests/test_unipoly.py::TestResultant::test_linear_sign_convention",
            "tests/test_kernels.py::TestResultantEdges::test_linear_pair",
        ),
    ),
    Mutant(
        "packing_one_byte_at_degree_256",
        "poly.py",
        "if degree < 256**s)",
        "if degree <= 256**s)",
        (
            "tests/test_kernels.py::test_restrictions_of_degree_past_one_byte_keys",
            "tests/test_kernels.py::TestCoordinateChange::test_degree_past_one_byte_keys",
        ),
    ),
    Mutant(
        "judged_without_full_rank_test",
        "linalg.py",
        "if rank_mod_p == min(len(lines), length):",
        "if True:",
        ("tests/test_kernels.py::test_rank_that_drops_only_mod_p_comes_from_bareiss",),
    ),
    Mutant(
        "int_exact_ignores_remainder",
        "linalg.py",
        "    if rem:\n",
        "    if False:\n",
        ("tests/test_linalg.py::test_bareiss_over_int_refuses_a_step_that_does_not_divide",),
    ),
    Mutant(
        "certified_join_rank_minus_1",
        "linalg.py",
        "return rank, _judged(_reduce_mod_p(echelon, more), [*more, *lines], length)",
        "return rank, _judged(_reduce_mod_p(echelon, more), [*more, *lines], length) - 1",
        (
            "tests/test_linalg.py::test_span_intersection_counts_shared_columns",
            "tests/test_variation.py::TestReportsAndFamilies::test_reference_family_numbers",
        ),
    ),
    Mutant(
        "squarefree_gcd_of_degree_1",
        "lines.py",
        "poly_gcd(dehom, dehom.derivative()).degree() == 0",
        "poly_gcd(dehom, dehom.derivative()).degree() <= 1",
        ("tests/test_lines.py::TestCountCertificate::test_one_double_point_declines_and_the_fallback_counts_twelve_not_squarefree",),
    ),
    Mutant(
        "parse_exponent_overwritten",
        "poly.py",
        "exp[slot[name]] += e",
        "exp[slot[name]] = e",
        (
            "tests/test_poly.py::TestParserAgainstReference::test_repeated_variable_factors_add_their_exponents",
            "tests/test_poly.py::TestParserAgainstReference::test_matches_the_reference_on_seeded_texts",
        ),
    ),
    Mutant(
        "parse_first_sign_dropped",
        "poly.py",
        'sign = -1 if compact[0] == "-" else 1',
        "sign = 1",
        (
            "tests/test_poly.py::TestParserAgainstReference::test_leading_sign_applies_to_the_first_term",
            "tests/test_poly.py::TestParserAgainstReference::test_matches_the_reference_on_seeded_texts",
        ),
    ),
    Mutant(
        "parse_table_hit_skips_its_slot",
        "poly.py",
        "            entry = table.get(factor)\n            if entry is None:\n",
        "            entry = table.get(factor)\n            if entry is not None:\n                continue\n            if entry is None:\n",
        (
            "tests/test_poly.py::TestParserAgainstReference::test_a_factor_repeated_across_terms_counts_in_each",
            "tests/test_poly.py::TestParserAgainstReference::test_matches_the_reference_on_seeded_texts",
        ),
    ),
)


def _pytest(copy: Path, node_ids) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)


def run(rows) -> int:
    """Check each row; the number of survivors and stale rows."""
    bad = 0
    with tempfile.TemporaryDirectory(prefix="vmrt-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        baseline = _pytest(copy, sorted({node for row in rows for node in row.node_ids}))
        if baseline.returncode:
            print(baseline.stdout + baseline.stderr)
            print("the node ids fail on the unchanged source; no mutant was run")
            return 1
        for row in rows:
            path = copy / "src" / "vmrt" / row.module
            source = path.read_text()
            found = source.count(row.snippet)
            if found != 1:
                print(f"STALE    {row.name}: snippet occurs {found} times in {row.module}")
                bad += 1
                continue
            start = time.perf_counter()
            path.write_text(source.replace(row.snippet, row.replacement))
            try:
                result = _pytest(copy, row.node_ids)
            finally:
                path.write_text(source)
            # exit code 1: a test failed; anything else (collection error, usage) proves nothing
            verdict = {0: "SURVIVED", 1: "caught"}.get(result.returncode, f"ERROR {result.returncode}")
            print(f"{verdict:8} {row.name} ({time.perf_counter() - start:.1f} s)")
            if result.returncode != 1:
                print(result.stdout + result.stderr)
                bad += 1
    return bad


def main() -> int:
    bad = run(MUTANTS)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
