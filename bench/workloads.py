"""The four benchmark workloads: seeded inputs, the timed operation, its check.

A cycle lists one case per slot of the workload's size mix, and a pass
is made of whole cycles, so the shares stay fixed.  `run` is the timed
operation and calls only user-facing vmrt API.  `check` runs after the
timer stops and compares the result with one of the package's
independent oracles; it returns "degenerate" for an expected, counted
outcome and raises CheckFailed otherwise.

Why each workload (selftest criterion replayed in brackets):
  witness_lines      [1, 3] numeric line restriction and SparsePoly
                     multiplication in eco_witness; certify and Yun are cheap
                     here, so a kernel change to them should not move it.
  tangent_equations  [4] the `vmrt eqs` path: parse, symbolic restriction,
                     compose of the certificate tails, format; a third of the
                     operations are cheap converse round trips at the origin,
                     which show fixed costs a kernel change adds.
  point_count        [7] the `vmrt count` path: Yun on degree-12 forms with
                     large coefficients and the Bareiss resultant.
  variation          [5, 6] recentring, the variation report and the
                     formula-versus-jets cross-check: QMatrix.rank on large
                     entries at random points, on small ones for the families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import vmrt
from vmrt.sampling import (
    rand_direction,
    rand_homogeneous,
    rand_point,
    rand_point_off_branch,
)

WITNESS_SIZES = ((3, 2), (4, 2), (4, 3), (5, 4))
WITNESS_MIX = ((3, 2), (4, 2), (4, 3), (4, 3), (5, 4))
EQUATIONS_MIX = {(3, 2): 2, (4, 2): 3, (4, 3): 3, (5, 4): 1}
POINT_COUNT_SIZE = (3, 2)
POINT_COUNT_EXPECTED = (12, True)
# (4,3) and (5,2) random points twice per cycle: the tail then falls in
# the middle of their band of similar costs, not at the edge of one size
VARIATION_RANDOM_MIX = ((4, 2), (4, 3), (4, 3), (5, 2), (5, 2), (5, 3))
VARIATION_FAMILY_SIZES = ((5, 2), (5, 3), (5, 4), (6, 2), (6, 3))


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


@dataclass
class Case:
    """One operation's input; `memo` caches oracle answers between passes."""

    kind: str
    size: tuple[int, int]
    data: dict
    memo: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind}{self.size[0]}{self.size[1]}"


def _tvars(n):
    return tuple(f"t{i}" for i in range(n + 1))


def _zvars(n):
    return tuple(f"z{i}" for i in range(1, n + 1))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- witness_lines -------------------------------------------------------------


def _witness_case(rng, n, m):
    return Case(
        "witness",
        (n, m),
        {
            "y": rand_point(rng, n),
            "z": rand_direction(rng, n),
            "w": rand_direction(rng, n),
            "seed": rng.randrange(2**32),
        },
    )


def _witness_cycle(rng):
    return [_witness_case(rng, n, m) for n, m in WITNESS_MIX]


def _witness_run(case):
    n, m = case.size
    d = case.data
    hyp = vmrt.eco_witness(n, m, d["y"], d["z"], seed=d["seed"])
    return (
        hyp,
        vmrt.line_certificate(hyp, d["y"], d["z"]),
        vmrt.is_eco_line(hyp, d["y"], d["z"]),
        vmrt.line_certificate(hyp, d["y"], d["w"]),
        vmrt.is_eco_line(hyp, d["y"], d["w"]),
    )


def _witness_check(case, result):
    _, cert_z, eco_z, cert_w, eco_w = result
    _expect(cert_z.passed and not any(cert_z.residuals), "designed line fails its certificate")
    _expect(eco_z, "square oracle rejects the designed line")
    _expect(cert_w.passed == eco_w, "certificate and square oracle disagree on the generic line")


def _witness_digest(result):
    hyp, cert_z, eco_z, cert_w, eco_w = result
    return (len(hyp.f.terms), cert_z.passed, eco_z, cert_w.passed, eco_w, cert_w.residuals)


# -- tangent_equations ---------------------------------------------------------


def _equations_case(rng, n, m):
    y = rand_point(rng, n)
    z = rand_direction(rng, n)
    hyp = vmrt.eco_witness(n, m, y, z, seed=rng.randrange(2**32))
    text = vmrt.format_poly(hyp.f)
    return Case("eqs", (n, m), {"text": text, "y": y, "z": z, "w": rand_direction(rng, n)})


def _converse_case(rng, n, m):
    b = [rand_homogeneous(rng, _zvars(n), k) for k in range(m + 1, 2 * m + 1)]
    return Case("converse", (n, m), {"b": b})


def _equations_cycle(rng):
    """One converse call per size and EQUATIONS_MIX[size] eqs calls.

    The (4,2) eqs calls sit in the middle of the cost order, with as many
    cheaper calls below them as dearer ones above, so the median falls in
    the middle of that size.
    """
    cycle = []
    for n, m in WITNESS_SIZES:
        cycle.append(_converse_case(rng, n, m))
        cycle += [_equations_case(rng, n, m) for _ in range(EQUATIONS_MIX[n, m])]
    return cycle


def _equations_run(case):
    n, _ = case.size
    if case.kind == "converse":
        hyp = vmrt.build_converse(case.data["b"])
        return vmrt.vmrt_equations(hyp, (0,) * n), None
    hyp = vmrt.Hypersurface(vmrt.parse_poly(case.data["text"]))
    system = vmrt.vmrt_equations(hyp, case.data["y"])
    return system, [vmrt.format_poly(eq) for eq in system.equations]


def _equations_check(case, result):
    system, texts = result
    if case.kind == "converse":
        _expect(list(system.equations) == case.data["b"], "converse round trip changed the equations")
        return
    d = case.data
    _expect(len(texts) == case.size[1], "wrong number of equations")
    _expect(not any(system.evaluate(d["z"])), "equations do not vanish at the designed direction")
    if "residuals" not in case.memo:
        hyp = vmrt.Hypersurface(vmrt.parse_poly(d["text"]))
        case.memo["residuals"] = vmrt.line_certificate(hyp, d["y"], d["w"]).residuals
    _expect(
        system.evaluate(d["w"]) == case.memo["residuals"],
        "equations disagree with the line certificate at a generic direction",
    )


def _equations_digest(result):
    system, texts = result
    return hash((system.equations, tuple(texts or ())))


# -- point_count -----------------------------------------------------------------


def _count_case(rng):
    n = POINT_COUNT_SIZE[0]
    b3 = rand_homogeneous(rng, _zvars(n), 3)
    b4 = rand_homogeneous(rng, _zvars(n), 4)
    hyp = vmrt.build_converse([b3, b4])
    return Case(
        "count",
        POINT_COUNT_SIZE,
        {"hyp": hyp, "y": rand_point_off_branch(rng, hyp), "seed": rng.randrange(2**32)},
    )


def _count_run(case):
    try:
        return vmrt.count_vmrt_points(case.data["hyp"], case.data["y"], seed=case.data["seed"])
    except vmrt.ResultantDegenerate:
        return "degenerate"


def _count_check(case, result):
    if result == "degenerate":
        return "degenerate"
    _expect(result == POINT_COUNT_EXPECTED, f"point count {result}, expected {POINT_COUNT_EXPECTED}")


# -- variation -------------------------------------------------------------------


def _variation_cycle(rng):
    cycle = []
    for n, m in VARIATION_RANDOM_MIX:
        hyp = vmrt.Hypersurface(rand_homogeneous(rng, _tvars(n), 2 * m))
        cycle.append(Case("random", (n, m), {"hyp": hyp, "y": rand_point_off_branch(rng, hyp)}))
    for n, m in VARIATION_FAMILY_SIZES:
        # b = c = 1 as in selftest criterion 6; the workload's median falls
        # among the families, and random (b, c) moved it by a third
        hyp = vmrt.explicit_family(n, m, 1, 1)
        cycle.append(Case("family", (n, m), {"hyp": hyp, "y": (0,) * n}))
    return cycle


def _variation_run(case):
    moved = vmrt.recenter(case.data["hyp"], case.data["y"])
    report = vmrt.variation_report(moved)
    # the criterion-5 cross-check is part of the operation, so it is timed
    return report, vmrt.dmu_jet(moved) == vmrt.dmu_formula(moved)


def _variation_check(case, result):
    report, routes_agree = result
    _expect(routes_agree, "dmu_jet and dmu_formula disagree")
    if case.kind == "family":
        n = case.size[0]
        verdict = (report.rank_dmu, report.dim_orbit, report.dim_intersection)
        _expect(verdict == (n, n * n, 0) and report.maximal, f"family verdict {verdict}")


def _variation_digest(result):
    report, routes_agree = result
    return (report.rank_dmu, report.dim_orbit, report.dim_intersection, report.maximal, routes_agree)


@dataclass(frozen=True)
class Workload:
    """A workload's inputs, timed operation and check.

    A pass is `pass_cycles` cycles drawn from the seed; an end-to-end run
    goes round it in whole cycles, so each slot of the mix keeps its share
    of the samples and a percentile always falls at the same place in the
    cost order of the mix.  `tail_pct` is the tail percentile: inside one
    size, with about ten samples beyond it in a run of the length
    BENCHMARK.json sets.  `kernel` names the halves of the host-speed
    kernel in run.py that the timings are scaled by.  `digest` reduces a
    result to a small value that traced and untraced passes in one process
    must reproduce.
    """

    name: str
    cycle: Callable[[random.Random], list[Case]]
    pass_cycles: int
    tail_pct: float
    kernel: tuple[str, ...]
    run: Callable[[Case], object]
    check: Callable[[Case, object], object]
    digest: Callable[[object], object]


MIXED = ("small", "big")
# count_vmrt_points is big-integer arithmetic (Yun and Bareiss on wide
# coefficients) and tracks the big-integer half of the kernel best; the
# other workloads mix interpreter-bound and big-integer work
BIG_INTEGER = ("big",)

# Pass sizes and tail percentiles, with timings on a 2-core host; the
# comments say where the median and the tail fall in the cost order.
WORKLOADS = {
    w.name: w
    for w in (
        # 15 cycles of 5, about 26 s.  The doubled (4,3) share puts the
        # median inside one size instead of between two; the tail is a
        # quarter of the way into the (5,4) calls, the top fifth
        Workload("witness_lines", _witness_cycle, 15, 85, MIXED, _witness_run, _witness_check, _witness_digest),
        # 5 cycles of 13, about 16 s.  The median is the middle of the (4,2)
        # eqs calls, the tail two thirds of the way into the (4,3) ones
        Workload(
            "tangent_equations",
            _equations_cycle,
            5,
            85,
            MIXED,
            _equations_run,
            _equations_check,
            _equations_digest,
        ),
        # 36 single-call cycles, about 27 s
        Workload(
            "point_count", lambda rng: [_count_case(rng)], 36, 65, BIG_INTEGER, _count_run, _count_check, lambda r: r
        ),
        # 6 cycles of 11, about 29 s.  The median is the (6,3) family, the
        # tail two thirds of the way into the random (4,3) and (5,2) points
        Workload(
            "variation", _variation_cycle, 6, 80, MIXED, _variation_run, _variation_check, _variation_digest
        ),
    )
}


def make_pass(workload: Workload, seed: int) -> list[list[Case]]:
    """The cycles of one pass, in order, drawn from the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    cycles = [workload.cycle(rng) for _ in range(workload.pass_cycles)]
    for m in sorted({case.size[1] for cycle in cycles for case in cycle}):
        # fills the per-m certificate family cache before any timing
        vmrt.certify([Fraction(0)] * (2 * m))
    return cycles
