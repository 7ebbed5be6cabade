"""Acceptance gate: one test per criterion, exact tolerances, stated runtimes.

Criteria 1-7 call the selftest runners at full size with seed 42; criterion
8 invokes the CLI selftest twice in fresh interpreter processes (separate
hash seeds, run side by side) and compares output bytes, with each other and
with the pinned tests/data/golden/selftest_42.json.  Each test prints a
PASS/FAIL line.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from vmrt import selftest

SEED = 42
SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN_SELFTEST = Path(__file__).resolve().parent / "data" / "golden" / "selftest_42.json"


def _report(criterion: int, name: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"{status} criterion {criterion}: {name}{tail}")


def _run_timed(fn):
    t0 = time.monotonic()
    result = fn(SEED)
    return result, time.monotonic() - t0


def test_criterion_1_certificate_matches_square_oracle():
    result, elapsed = _run_timed(selftest.criterion_certificate_oracle)
    ok = result["pass"] and elapsed < 10.0
    _report(1, "certificate vs perfect-square oracle, 1000+1000 cases", ok, f"{elapsed:.1f}s")
    assert result["disagreements"] == 0
    assert result["pass"]
    assert elapsed < 10.0


def test_criterion_2_weighted_homogeneity():
    result, _ = _run_timed(selftest.criterion_weighted_homogeneity)
    _report(2, "weighted homogeneity of all certificate polynomials, m <= 6", result["pass"])
    assert result["failures"] == 0
    assert result["pass"]


def test_criterion_3_witness_vanishing():
    result, elapsed = _run_timed(selftest.criterion_witness_vanishing)
    ok = result["pass"] and elapsed < 60.0
    _report(3, "200 witness lines satisfy every equation exactly", ok, f"{elapsed:.1f}s")
    assert result["instances"] == 200
    assert result["failures"] == 0
    assert elapsed < 60.0


def test_criterion_4_converse_round_trip():
    result, _ = _run_timed(selftest.criterion_converse_round_trip)
    _report(4, "50 prescribed-equation round trips are exact", result["pass"])
    assert result["instances"] == 50
    assert result["failures"] == 0


def test_criterion_5_differential_routes_agree():
    result, _ = _run_timed(selftest.criterion_differential_routes)
    _report(5, "closed-form differential equals jet differential, 100 cases", result["pass"])
    assert result["instances"] == 100
    assert result["mismatches"] == 0
    assert result["reduction_mismatches"] == 0


def test_criterion_6_explicit_family_numbers():
    result, elapsed = _run_timed(selftest.criterion_explicit_families)
    ok = result["pass"] and elapsed < 30.0
    _report(6, "explicit families give rank 4, orbit 16, intersection 0", ok, f"{elapsed:.1f}s")
    for report in result["reports"]:
        assert report["rank_dmu"] == 4
        assert report["dim_orbit"] == 16
        assert report["dim_intersection"] == 0
        assert report["maximal"]
    assert elapsed < 30.0


def test_criterion_7_point_count_degree_twelve():
    result, _ = _run_timed(selftest.criterion_point_count)
    degenerate = [t for t in result["trials"] if "error" in t or t.get("degree") != 12]
    _report(
        7,
        "quartic point count hits degree 12 squarefree on >= 9/10 seeds",
        result["pass"],
        f"good={result['good_trials']}/10, reported degenerate={len(degenerate)}",
    )
    assert result["good_trials"] >= 9
    assert len(result["trials"]) == 10


def test_criterion_8_selftest_determinism():
    argv = [sys.executable, "-m", "vmrt", "selftest", "--seed", str(SEED)]
    # this checkout's package, not one installed elsewhere
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # the two runs are independent processes, so they run side by side
    procs = [
        subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    try:
        first, second = (proc.communicate(timeout=600)[0] for proc in procs)
    finally:
        for proc in procs:
            proc.kill()
    assert all(proc.returncode == 0 for proc in procs)
    identical = first == second
    pinned = first == GOLDEN_SELFTEST.read_text()
    report = json.loads(first)
    passed = identical and pinned and report["all_pass"]
    _report(8, "selftest --seed 42 twice is byte-identical pinned JSON", passed)
    assert identical
    assert pinned, "selftest --seed 42 differs from tests/data/golden/selftest_42.json"
    assert report["all_pass"]
    assert [c["id"] for c in report["criteria"]] == [1, 2, 3, 4, 5, 6, 7]
