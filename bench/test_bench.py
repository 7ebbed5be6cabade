"""Self-check of the benchmark itself.

    python3 -m pytest -q bench

Workloads are shrunk to one cycle per pass, so each run takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run._import_vmrt()

import tracing  # noqa: E402
import vmrt  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def small(monkeypatch):
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(w, pass_cycles=1)
        )


def _main(capsys, name: str, trace: int, seed: int = 3):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_unit(small, capsys, name):
    reports = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        report, result = reports[trace] = _main(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {tuple(line.split()[::2]) for line in report if not line.startswith("#")}
        assert set(expected.items()) <= printed
        assert (trace == 0) == (("fail_ratio", "ratio") in printed)
    assert "fail_ratio 0.0 ratio" in reports[0][0]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_and_tracing_keeps_results(small, name):
    first = run.run(name, 5, 0, trace=True)
    second = run.run(name, 5, 0, trace=True)
    plain = run.run(name, 5, 0, trace=False)
    exact = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bits")}
    exact.add("lines.count_vmrt_points.useful_ratio")
    values = [{k: out["result"]["metrics"][k]["value"] for k in exact} for out in (first, second)]
    assert values[0] == values[1]
    assert first["notes"]["counts_and_results_repeat"] and first["result"]["correct"]
    # untraced pass, traced pass and a plain end-to-end run give the same results
    assert first["digests"][0] == first["digests"][1] == plain["digests"][0]


def test_wrong_expected_answer_is_counted_not_raised(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "POINT_COUNT_EXPECTED", (13, True))
    report, result = _main(capsys, "point_count", 0)
    assert result["failed"] == result["attempted"] == 1
    assert result["correct"] is False
    assert "fail_ratio 1.0 ratio" in report
    assert any(line.startswith("# FAILED count32: CheckFailed") for line in report)


def test_tracer_patches_imported_names_and_reports_absent_layers(monkeypatch):
    gone = (
        ("vmrt.poly", "no_such_kernel", "poly.no_such_kernel", None),
        ("vmrt.no_such_module", "f", "gone.f", None),
    )
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + gone)
    originals = (vmrt.lines.restrict_to_line, vmrt.SparsePoly.__mul__, vmrt.SparsePoly.__rmul__)
    y, z = (Fraction(1, 2), Fraction(-1, 3), Fraction(2)), (Fraction(1), Fraction(2), Fraction(-1))
    hyp = vmrt.eco_witness(3, 2, y, z, seed=7)
    with tracing.Tracer() as tracer:
        assert vmrt.is_eco_line(hyp, y, z)
        Fraction(2) * hyp.f
    assert tracer.absent == ["vmrt.poly.no_such_kernel", "vmrt.no_such_module.f"]
    names = {span[0] for span in tracer.spans}
    assert {
        "lines.is_eco_line",
        "unipoly.restrict_to_line.numeric",
        "unipoly.is_perfect_square",
        "unipoly.squarefree_factorization",
        "poly.SparsePoly.mul",
    } <= names
    assert (vmrt.lines.restrict_to_line, vmrt.SparsePoly.__mul__, vmrt.SparsePoly.__rmul__) == originals
    calls, busy, own = tracer.layer_times()["lines.is_eco_line"]
    assert calls == 1 and 0 < own < busy


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(20, 0, -1)]
    assert run.percentile(values, 85) == 17.0
    assert run.percentile(values, 50) == 10.0
    assert run.percentile([3.0], 65) == 3.0


def test_latencies_scale_with_the_host_slowness_around_them():
    starts = [0.0, 1.0, 2.0, 100.0]
    # the first three share a window; the last one has a slower host to itself
    assert run.scaled([1.0, 1.0, 1.0, 1.0], starts, [1.0, 2.0, 1.0, 2.0]) == [1.0, 1.0, 1.0, 0.5]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "point_count", "--seed", "1", "--seconds", "1"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert not out.stdout.strip()
