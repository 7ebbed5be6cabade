"""Golden CLI outputs: the stdout of fixed commands, byte for byte.

Each case runs one `vmrt` command on the fixed inputs under tests/data/
and compares its stdout with tests/data/golden/<name>.txt.  A change that
keeps results must keep these bytes; a change that means to alter an
output regenerates the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and commits the difference for review.  The same run rewrites the pins
of the two byte-identity gates that run subprocesses: the `selftest
--seed 42` JSON (tests/test_acceptance.py, criterion 8) and the stdout
of each demo (tests/test_demos.py).
"""

import io
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from vmrt.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

_CONVERSE = ",".join(str(DATA / f"converse_b{k}.poly") for k in (4, 5, 6))
# eco_3_2.poly is eco_witness(3, 2, (1, -1, Fraction(1, 2)), (1, 2, -1), seed=3):
# even-contact along its designed line, not along a generic one
_ECO = ["eco-line", "--f", str(DATA / "eco_3_2.poly"), "--point", "1,-1,1/2", "--dir"]

CASES = {
    "eqs_4_3": ["eqs", "--f", str(DATA / "witness_4_3.poly"), "--point", "1,0,-1,2"],
    "eqs_5_4": ["eqs", "--f", str(DATA / "sparse_5_4.poly"), "--point", "1,0,-1,1,1/2"],
    "eco_cert_square": ["eco-cert", "--coeffs", "4,6,4,1"],
    "eco_cert": ["eco-cert", "--coeffs", "1/2,-3,5/7,2,0,1"],
    "eco_line": _ECO + ["1,2,-1"],
    "eco_line_generic": _ECO + ["0,1,1"],
    "converse": ["converse", "--b", _CONVERSE],
    "count": ["count", "--f", str(DATA / "witness_3_2.poly"), "--point", "1,-2,1/3", "--seed", "5"],
    "variation": ["variation", "--f", str(DATA / "recentred_4_3.poly")],
    # non-maximal (no middle part): every rank below full, so the exact
    # rank comes from the fraction-free fallback, not the modular certificate
    "variation_fermat": ["variation", "--f", str(DATA / "fermat_5_3.poly")],
}
# every command in plain text and as JSON
RUNS = {
    f"{name}{suffix}": argv + flags
    for name, argv in CASES.items()
    for suffix, flags in (("", []), ("_json", ["--json"]))
}


def run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"vmrt {' '.join(argv)} exited {code}")
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name):
    assert run(RUNS[name]) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(RUNS.items()):
        (GOLDEN / f"{name}.txt").write_text(run(argv))
        print(f"wrote {name}.txt", file=sys.stderr)
    from test_demos import DEMOS, ENV, ROOT, golden_demo

    pins = [(GOLDEN / "selftest_42.json", [sys.executable, "-m", "vmrt", "selftest", "--seed", "42"])]
    pins += [(golden_demo(demo), [sys.executable, str(demo)]) for demo in DEMOS]
    for path, cmd in pins:
        path.write_text(subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, check=True).stdout)
        print(f"wrote {path.name}", file=sys.stderr)
