"""vmrt benchmark: one seeded workload, closed loop, every result checked.

    python3 bench/run.py --workload witness_lines --seed 1 --seconds 25 --trace 0

One caller in one process issues one operation at a time and waits for
it (a closed loop with a single client, no threads).  The run goes round
the cycles of the seeded inputs until `--seconds` of wall time have
passed, stopping only at the end of a cycle, so every size keeps its
share.  Each result is checked against the package's independent oracles
after the timer stops.

The shared host's speed drifts by a quarter over tens of seconds, and the
drift moves pure-Python computation of a kind alike.  So after each
operation the run also times a fixed kernel that does no vmrt work
(sparse products of Fraction polynomials) and divides by the kernel's
reference time: that ratio is the host's slowness.  Each operation's
time is divided by the median slowness of the WINDOW_S seconds around
it, so the end-to-end timings, set-up included, are given at the
reference speed.  The report prints the unscaled figures too.

With `--trace 0` the last line of stdout carries the end-to-end metrics
named in BENCHMARK.json.  With `--trace 1` the run first makes one
untraced pass over the inputs, then traced passes until `--seconds` have
passed, and reports the per-layer metrics of one pass: calls, busy and
self seconds per span (median over the traced passes, unscaled) and exact
counts (identical in every pass).  The spans of the first traced pass are
written to bench/out/.

Lines before the last one are a human-readable report; the benchmark
exits non-zero without a result when the vmrt sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WINDOW_S = 5.0
KERNEL_REPEATS = 3


def _import_vmrt() -> None:
    """Import vmrt from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "vmrt" / "__init__.py").is_file():
        raise SystemExit(f"error: no vmrt sources under {src}")
    sys.path.insert(0, str(src))
    import vmrt

    if Path(vmrt.__file__).resolve().parent != (src / "vmrt").resolve():
        raise SystemExit(f"error: imported vmrt from {vmrt.__file__}, not from {src}")


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _kernel_factors(bits: int, terms: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            tuple(rng.randrange(5) for _ in range(4)): Fraction(
                rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1
            )
            for _ in range(terms)
        }
        for _ in range(2)
    ]


# Interpreter-bound (small coefficients) and big-integer-bound (2048-bit)
# work slow down by different amounts when the host is busy, as the
# workloads' operations do.  Each kernel half is a product of two fixed
# polynomials, with its usual time on the 2-core host the README's figures
# come from as reference, so that scaled timings read close to that host's
# wall time.
KERNELS = {
    "small": (_kernel_factors(7, 24, 0), 3.5e-3),
    "big": (_kernel_factors(2048, 6, 3), 2.5e-3),
}


def host_slowness(halves: tuple[str, ...]) -> float:
    """Time of the named kernel halves over their reference time."""
    start = time.perf_counter()
    for name in halves:
        (a, b), _ = KERNELS[name]
        product: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = product.get(e, 0) + ca * cb
    return (time.perf_counter() - start) / sum(KERNELS[name][1] for name in halves)


def scaled(latencies: list[float], starts: list[float], slowness: list[float]) -> list[float]:
    """Each latency at reference host speed, by the slowness of the WINDOW_S around it."""
    out = []
    for lat, start in zip(latencies, starts):
        lo = bisect.bisect_left(starts, start - WINDOW_S / 2)
        hi = bisect.bisect_right(starts, start + WINDOW_S / 2)
        out.append(lat / statistics.median(slowness[lo:hi]))
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


class Loop:
    """Closed-loop caller over the cycles of a pass; collects timings and outcomes."""

    def __init__(self, workload, cycles):
        self.workload = workload
        self.cycles = cycles
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.slowness: list[float] = []
        self.labels: list[str] = []
        self.digests: list = []
        self.failures: list[str] = []
        self.degenerate = 0

    def _one(self, case, tracer) -> None:
        if tracer is not None:
            tracer.op = len(self.latencies)
        self.labels.append(case.label)
        start = time.perf_counter()
        self.starts.append(start)
        try:
            result = self.workload.run(case)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            self.latencies.append(time.perf_counter() - start)
            self.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
            self.digests.append(None)
            return
        self.latencies.append(time.perf_counter() - start)
        self.digests.append(self.workload.digest(result))
        try:
            if self.workload.check(case, result) == "degenerate":
                self.degenerate += 1
        except Exception as exc:
            self.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")

    def run(self, seconds: float | None, tracer=None) -> None:
        """Whole cycles, round the pass, until `seconds` have passed (at least one).

        With `seconds` None, exactly one pass.  A kernel timing follows each
        operation, outside its timed interval.
        """
        start = time.perf_counter()
        for i in range(len(self.cycles)) if seconds is None else itertools.count():
            for case in self.cycles[i % len(self.cycles)]:
                self._one(case, tracer)
                self.slowness.append(host_slowness(self.workload.kernel))
            if seconds is not None and time.perf_counter() - start >= seconds:
                return


def _import_seconds() -> float:
    """Time to import vmrt in a fresh interpreter, as a caller pays it."""
    code = "import time; s = time.perf_counter(); import vmrt; print(time.perf_counter() - s)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def _setup(workload_name: str, seed: int):
    """Import, input generation and warm-up, repeated.

    Returns the workload, the pass (a list of cycles), and the median of
    the repetitions' times, each scaled by the host's slowness around it.
    """
    from workloads import WORKLOADS, make_pass

    if workload_name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        slowness = [host_slowness(workload.kernel) for _ in range(KERNEL_REPEATS)]
        import_s = _import_seconds()
        start = time.perf_counter()
        cycles = make_pass(workload, seed)
        raw.append(import_s + time.perf_counter() - start)
        slowness += [host_slowness(workload.kernel) for _ in range(KERNEL_REPEATS)]
        times.append(raw[-1] / statistics.median(slowness))
    return workload, cycles, statistics.median(times), statistics.median(raw)


def end_to_end(workload, cycles, seconds: float, setup_s: float) -> tuple[Loop, dict]:
    loop = Loop(workload, cycles)
    loop.run(seconds)
    lat = scaled(loop.latencies, loop.starts, loop.slowness)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * percentile(lat, workload.tail_pct), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_label: dict[str, list[float]] = {}
    for label, seconds_taken in zip(loop.labels, lat):
        by_label.setdefault(label, []).append(seconds_taken)
    raw = loop.latencies
    notes = {
        "median_ms_by_case": {k: round(1000 * statistics.median(v), 2) for k, v in sorted(by_label.items())},
        "latency_tail_percentile": workload.tail_pct,
        "latency_samples": len(lat),
        "latency_samples_beyond_tail": len(lat) - math.ceil(workload.tail_pct / 100 * len(lat)),
        "cycles": len(lat) // len(cycles[0]),
        "host_slowness": round(statistics.median(loop.slowness), 4),
        "kernel_halves": "+".join(workload.kernel),
        "unscaled": {
            "ops_per_s": round(len(raw) / sum(raw), 4),
            "latency_p50_ms": round(1000 * statistics.median(raw), 3),
            "latency_tail_ms": round(1000 * percentile(raw, workload.tail_pct), 3),
        },
        "degenerate": loop.degenerate,
    }
    # reported beside the metrics but not in them: it is 0 on a healthy
    # commit, and the result line already carries `failed` and `attempted`
    extra = {"fail_ratio": (len(loop.failures) / len(lat), "ratio")}
    return loop, {"metrics": metrics, "extra": extra, "notes": notes}


def per_layer(workload, cycles, seconds: float) -> tuple[list[Loop], dict]:
    from tracing import COUNT_NAMES, SPAN_NAMES, Tracer

    baseline = Loop(workload, cycles)
    baseline.run(None)
    loops, tracers = [baseline], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        loop = Loop(workload, cycles)
        with Tracer() as tracer:
            loop.run(None, tracer)
        loops.append(loop)
        tracers.append(tracer)

    layer_times = [t.layer_times() for t in tracers]
    calls = [{name: row[0] for name, row in times.items()} for times in layer_times]
    consistent = all(
        t.counts == tracers[0].counts and c == calls[0] and loop.digests == baseline.digests
        for t, c, loop in zip(tracers, calls, loops[1:])
    )
    metrics = {}
    for span in SPAN_NAMES:
        rows = [times.get(span, (0, 0.0, 0.0)) for times in layer_times]
        metrics[f"{span}.calls"] = (rows[0][0], "count")
        metrics[f"{span}.busy_s"] = (statistics.median(r[1] for r in rows), "s")
        metrics[f"{span}.self_s"] = (statistics.median(r[2] for r in rows), "s")
    counts = tracers[0].counts
    for name in COUNT_NAMES:
        unit = "bits" if name.endswith("_bits_max") else "count"
        metrics[name] = (counts.get(name, 0), unit)
    attempts = counts.get("lines.count_vmrt_points.coord_change_attempts", 0)
    useful = counts.get("lines.count_vmrt_points.completed", 0)
    metrics["lines.count_vmrt_points.useful_ratio"] = (useful / attempts if attempts else 0.0, "ratio")
    untraced = sum(scaled(baseline.latencies, baseline.starts, baseline.slowness))
    traced = statistics.median(sum(scaled(loop.latencies, loop.starts, loop.slowness)) for loop in loops[1:])
    ops = len(baseline.latencies)
    metrics["trace.ops_per_s"] = (ops / traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (ops / untraced, "1/s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    notes = {
        "traced_passes": len(tracers),
        "ops_per_pass": ops,
        "absent_layers": tracers[0].absent,
        "counts_missing": sorted(tracers[0].count_errors),
        "counts_and_results_repeat": consistent,
        "spans_file": _write_spans(workload.name, tracers[0]),
    }
    return loops, {"metrics": metrics, "notes": notes, "consistent": consistent}


def _write_spans(workload_name: str, tracer) -> str:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload_name}.jsonl"
    with path.open("w") as fh:
        for name, start, end, parent, op, _ in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    return str(path.relative_to(ROOT))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and the report fields."""
    _import_vmrt()
    workload, cycles, setup_s, setup_raw_s = _setup(workload_name, seed)
    if trace:
        loops, body = per_layer(workload, cycles, seconds)
    else:
        loop, body = end_to_end(workload, cycles, seconds, setup_s)
        loops = [loop]
    attempted = sum(len(loop.latencies) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop, 1 client, 1 process",
        "attempted": attempted,
        "setup_s": setup_s,
        "setup_unscaled_s": setup_raw_s,
    }
    return {
        "result": {
            "correct": not failures and body.get("consistent", True),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in body["metrics"].items()},
        },
        "env": env,
        "notes": body["notes"],
        "extra": body.get("extra", {}),
        "failures": failures,
        "digests": [loop.digests for loop in loops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in {**out["env"], **out["notes"]}.items():
        print(f"# {key}: {value}")
    for failure in out["failures"][:20]:
        print(f"# FAILED {failure}")
    for name, m in out["result"]["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for name, (value, unit) in out["extra"].items():
        print(f"{name} {value} {unit}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
