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
