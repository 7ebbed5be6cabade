"""Deterministic batch verification of the package's headline guarantees.

Each criterion samples with a private generator derived from the master
seed, so a fixed seed yields byte-identical JSON across runs and machines.
No wall-clock data enters the report: each criterion's wall time goes to
the `vmrt` logger at DEBUG level (stderr under VMRT_LOG=DEBUG).

Criteria:
  1. certificate recursion agrees with the squarefree perfect-square
     oracle on 1000 constructed squares and 1000 perturbed non-squares;
  2. every certificate polynomial is weighted homogeneous of the right
     weighted degree for half-degrees up to 6;
  3. 200 witness hypersurfaces: the designed line satisfies all defining
     equations exactly and the square oracle confirms it;
  4. 50 prescribed-equation round trips: building the hypersurface and
     recomputing its equations at the origin recovers the inputs;
  5. the closed-form differential equals the jet differential on 100
     random normalized hypersurfaces, plus the zeroed-lower-parts
     reduction to the single-partial form;
  6. the two explicit families at n=4 give rank n, orbit dimension n^2
     and zero intersection;
  7. sampled quartic configurations at n=3: the eliminated system has
     degree 12 with a squarefree resultant on at least 9 of 10 trials.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .eco import build_family, certify, is_weighted_homogeneous
from .errors import ResultantDegenerate
from .lines import (
    _from_graded_parts,
    build_converse,
    count_vmrt_points,
    eco_witness,
    is_eco_line,
    line_certificate,
    vmrt_equations,
)
from .poly import SparsePoly
from .sampling import (
    rand_direction,
    rand_fraction,
    rand_homogeneous,
    rand_nonzero_fraction,
    rand_point,
    rand_point_off_branch,
)
from .unipoly import UniPoly, is_perfect_square
from .variation import coeff_vector, dmu_formula, dmu_jet, explicit_family, MonomialBasis, variation_report

WITNESS_COMBOS = ((3, 2), (4, 2), (4, 3), (5, 4))
DMU_COMBOS = ((3, 2), (4, 2), (4, 3))


def _rng(seed: int, criterion: int) -> random.Random:
    return random.Random(1_000_003 * seed + criterion)


def _zvars(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


def _random_square(rng: random.Random, m: int) -> tuple[UniPoly, list[Fraction]]:
    """(root^2, its coefficient vector a_1..a_2m) for a random root, constant term 1."""
    root = UniPoly([Fraction(1)] + [rand_fraction(rng) for _ in range(m)])
    square = root * root
    return square, [square.coeff(k) for k in range(1, 2 * m + 1)]


def criterion_certificate_oracle(seed: int) -> dict:
    rng = _rng(seed, 1)
    disagreements = 0
    oracle_false_on_perturbed = 0
    for _ in range(1000):
        m = rng.randint(1, 6)
        square, a = _random_square(rng, m)
        if certify(a).passed != is_perfect_square(square)[0]:
            disagreements += 1
    for _ in range(1000):
        m = rng.randint(1, 6)
        _, a = _random_square(rng, m)
        k = rng.randint(m + 1, 2 * m)
        a[k - 1] += rand_nonzero_fraction(rng)
        perturbed = UniPoly([Fraction(1)] + a)
        cert = certify(a)
        oracle = is_perfect_square(perturbed)[0]
        if cert.passed != oracle:
            disagreements += 1
        if not oracle:
            oracle_false_on_perturbed += 1
    return {
        "id": 1,
        "name": "certificate-vs-square-oracle",
        "pass": disagreements == 0 and oracle_false_on_perturbed == 1000,
        "squares": 1000,
        "non_squares": 1000,
        "disagreements": disagreements,
    }


def criterion_weighted_homogeneity(seed: int) -> dict:
    checked = 0
    failures = 0
    for m in range(1, 7):
        fam = build_family(m)
        weights = list(range(1, m + 1))
        for k in range(1, m + 1):
            checked += 1
            if not is_weighted_homogeneous(fam.root_polys[k], k, weights):
                failures += 1
        for k in range(m + 1, 2 * m + 1):
            checked += 1
            if not is_weighted_homogeneous(fam.tail_polys[k], k, weights):
                failures += 1
    return {
        "id": 2,
        "name": "weighted-homogeneity",
        "pass": failures == 0,
        "max_m": 6,
        "checked": checked,
        "failures": failures,
    }


def criterion_witness_vanishing(seed: int) -> dict:
    rng = _rng(seed, 3)
    failures = 0
    instances = 0
    for n, m in WITNESS_COMBOS:
        for _ in range(50):
            instances += 1
            y = rand_point(rng, n)
            z = rand_direction(rng, n)
            hyp = eco_witness(n, m, y, z, seed=rng.randrange(2**32))
            cert = line_certificate(hyp, y, z)
            if not cert.passed or any(r != 0 for r in cert.residuals):
                failures += 1
                continue
            if not is_eco_line(hyp, y, z):
                failures += 1
    return {
        "id": 3,
        "name": "witness-vanishing",
        "pass": failures == 0,
        "instances": instances,
        "failures": failures,
    }


def criterion_converse_round_trip(seed: int) -> dict:
    rng = _rng(seed, 4)
    failures = 0
    instances = 0
    quota = (13, 13, 12, 12)
    for (n, m), count in zip(WITNESS_COMBOS, quota):
        zv = _zvars(n)
        for _ in range(count):
            instances += 1
            b = [rand_homogeneous(rng, zv, k) for k in range(m + 1, 2 * m + 1)]
            hyp = build_converse(b)
            system = vmrt_equations(hyp, (0,) * n)
            if list(system.equations) != b:
                failures += 1
    return {
        "id": 4,
        "name": "converse-round-trip",
        "pass": failures == 0,
        "instances": instances,
        "failures": failures,
    }


def _random_normalized(rng: random.Random, n: int, m: int, zero_lower: bool):
    """Random f with f_0 = 1 (optionally f_1 = ... = f_m = 0) as a Hypersurface."""
    zv = _zvars(n)
    start = m + 1 if zero_lower else 1
    parts = [SparsePoly.constant(zv, 1)] + [SparsePoly.zero(zv)] * (start - 1)
    parts += [rand_homogeneous(rng, zv, k, nonzero=False) for k in range(start, 2 * m + 1)]
    return _from_graded_parts(parts)


def criterion_differential_routes(seed: int) -> dict:
    rng = _rng(seed, 5)
    mismatches = 0
    reduction_mismatches = 0
    per_combo = (34, 33, 33)
    for (n, m), count in zip(DMU_COMBOS, per_combo):
        for _ in range(count):
            hyp = _random_normalized(rng, n, m, zero_lower=False)
            if dmu_formula(hyp) != dmu_jet(hyp):
                mismatches += 1
    for n, m in DMU_COMBOS:
        basis = MonomialBasis(n, m + 1)
        for _ in range(4):
            hyp = _random_normalized(rng, n, m, zero_lower=True)
            columns = dmu_formula(hyp)
            parts = hyp.graded_parts()
            for i in range(1, n + 1):
                expected = coeff_vector(parts[m + 2].partial(f"z{i}"), basis)
                if columns[i - 1] != expected:
                    reduction_mismatches += 1
    return {
        "id": 5,
        "name": "differential-formula-vs-jets",
        "pass": mismatches == 0 and reduction_mismatches == 0,
        "instances": sum(per_combo),
        "mismatches": mismatches,
        "reduction_checks": len(DMU_COMBOS) * 4,
        "reduction_mismatches": reduction_mismatches,
    }


def criterion_explicit_families(seed: int) -> dict:
    outcomes = []
    ok = True
    for m in (2, 3):
        report = variation_report(explicit_family(4, m, 1, 1))
        outcomes.append(
            {
                "n": 4,
                "m": m,
                "rank_dmu": report.rank_dmu,
                "dim_orbit": report.dim_orbit,
                "dim_intersection": report.dim_intersection,
                "maximal": report.maximal,
            }
        )
        ok = ok and (
            report.rank_dmu == 4
            and report.dim_orbit == 16
            and report.dim_intersection == 0
            and report.maximal
        )
    return {
        "id": 6,
        "name": "explicit-family-numbers",
        "pass": ok,
        "reports": outcomes,
    }


def criterion_point_count(seed: int) -> dict:
    rng = _rng(seed, 7)
    trials = []
    good = 0
    zv = _zvars(3)
    for trial in range(10):
        b3 = rand_homogeneous(rng, zv, 3)
        b4 = rand_homogeneous(rng, zv, 4)
        hyp = build_converse([b3, b4])
        y = rand_point_off_branch(rng, hyp)
        trial_seed = rng.randrange(2**32)
        try:
            degree, squarefree = count_vmrt_points(hyp, y, seed=trial_seed)
        except ResultantDegenerate as exc:
            trials.append({"trial": trial, "error": type(exc).__name__})
            continue
        trials.append({"trial": trial, "degree": degree, "squarefree": squarefree})
        if degree == 12 and squarefree:
            good += 1
    return {
        "id": 7,
        "name": "point-count-degree-12",
        "pass": good >= 9,
        "good_trials": good,
        "trials": trials,
    }


CRITERIA = (
    criterion_certificate_oracle,
    criterion_weighted_homogeneity,
    criterion_witness_vanishing,
    criterion_converse_round_trip,
    criterion_differential_routes,
    criterion_explicit_families,
    criterion_point_count,
)


def run_selftest(seed: int) -> dict:
    """Run every criterion; the result is JSON-serializable and deterministic."""
    # imported here, not at the top, so that `import vmrt` does not load logging
    import logging

    log = logging.getLogger("vmrt")
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn(seed)
        log.debug("criterion %d %s: %.3f s", result["id"], result["name"], time.perf_counter() - start)
        results.append(result)
    return {
        "command": "selftest",
        "seed": seed,
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
    }
