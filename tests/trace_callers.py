"""List the functions of src/vmrt that no caller of the library enters.

Run from the repository root, with the test dependencies installed:

    python tests/trace_callers.py

The callers are `vmrt selftest --seed 42`, every golden CLI run of
tests/test_golden_cli.py, the demos and two cycles of each benchmark
workload (bench/workloads.py, seed 1); the tests themselves are not
callers.  A `sys.settrace` hook records every code object of src/vmrt
that is entered.  Class bodies run when the package is imported, before
the hook is set, and are not checked.  Every other function, method or
comprehension that was never entered is either kept on purpose, in KEPT
with its reason (printed as `KEPT file:line qualname: reason`), or printed
as `UNREACHED file:line qualname`.  The script exits 1 when a name is
unreached and not in KEPT, or when a KEPT name is entered after all (the
table is stale and is updated with the code); otherwise 0.  Python 3.12
and later inline list, dict and set comprehensions, so those KEPT names
exist only on older interpreters.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import inspect
import io
import runpy
import sys
import threading
import types
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vmrt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]


_SCALAR_PRODUCT = "the scalar product p * c of a public value type, which replaced UniPoly.scale"
_VALUE_DUNDER = "equality, hashing or printing of a public value type"
_EXACT_FALLBACK = "the exact fallback, the only route on degenerate input, which no traced caller sends"

_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

# (file, qualified name) -> why the library keeps it although no traced caller enters it
KEPT = {
    ("cli.py", "_Parser.error"): "the usage-error exit 1; no traced run is malformed",
    ("cli.py", "_report_error"): "the error record of exits 1 and 2; no traced run fails",
    ("jets.py", "Jet1.__bool__"): "without it a zero jet would silently be truthy",
    ("jets.py", "Jet1.__bool__.<locals>.<genexpr>"): "the slots of Jet1.__bool__",
    ("jets.py", "Jet1.__eq__"): _VALUE_DUNDER,
    ("jets.py", "Jet1.__repr__"): _VALUE_DUNDER,
    ("linalg.py", "_int_cross"): _EXACT_FALLBACK,
    ("linalg.py", "_int_exact"): _EXACT_FALLBACK,
    ("lines.py", "Hypersurface.__eq__"): _VALUE_DUNDER,
    ("lines.py", "Hypersurface.__repr__"): _VALUE_DUNDER,
    ("poly.py", "SparsePoly.from_terms"): "the public constructor that validates its terms",
    ("poly.py", "SparsePoly.from_terms.<locals>.<genexpr>"): "the exponent check of from_terms",
    ("poly.py", "SparsePoly.__rsub__"): "the ring operation of a public value type",
    ("poly.py", "SparsePoly.__pow__"): "the ring power of a public value type",
    ("poly.py", "SparsePoly.__hash__"): _VALUE_DUNDER,
    ("poly.py", "SparsePoly.__repr__"): _VALUE_DUNDER,
    ("unipoly.py", "UniPoly.__mul__.<locals>.<listcomp>"): _SCALAR_PRODUCT,
    ("unipoly.py", "UniPoly.__pow__"): "the ring power of a public value type",
    ("unipoly.py", "UniPoly.__eq__"): _VALUE_DUNDER,
    ("unipoly.py", "UniPoly.__hash__"): _VALUE_DUNDER,
    ("unipoly.py", "UniPoly.__repr__"): _VALUE_DUNDER,
    ("unipoly.py", "_sylvester_rows"): _EXACT_FALLBACK,
    ("unipoly.py", "_sylvester_rows.<locals>.<listcomp>"): _EXACT_FALLBACK,
    ("unipoly.py", "_cross_difference"): _EXACT_FALLBACK,
    ("unipoly.py", "_cross_difference.<locals>.<dictcomp>"): _EXACT_FALLBACK,
    ("unipoly.py", "resultant"): _EXACT_FALLBACK,
    ("unipoly.py", "resultant.<locals>.<dictcomp>"): _EXACT_FALLBACK,
    ("unipoly.py", "resultant.<locals>.<lambda>"): _EXACT_FALLBACK,
    ("variation.py", "MonomialBasis.index"): "the public lookup of a monomial's coordinate in a dmu or orbit column",
    ("variation.py", "MonomialBasis.__repr__"): _VALUE_DUNDER,
    ("variation.py", "mu"): "the paper's moduli map, against which dmu_formula is checked",
    ("variation.py", "orbit_tangent"): "the paper's orbit tangent, the public form of the orbit columns",
}


def defined() -> dict[tuple[str, int, str], tuple[str, bool]]:
    """Every code object in src/vmrt: (file name, first line, name) -> (qualified name, is a class body).

    The qualified name is built as CPython 3.11's co_qualname, which
    Python 3.10 lacks: a name nested in a function or lambda follows
    `<locals>.`, one nested in a class body or a comprehension a dot.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    qualname = prefix + const.co_name
                    function = bool(const.co_flags & inspect.CO_OPTIMIZED)
                    out[(path.name, const.co_firstlineno, const.co_name)] = (qualname, not function)
                    scope = function and const.co_name not in _COMPREHENSIONS
                    stack.append((const, qualname + (".<locals>." if scope else ".")))
    return out


def main() -> int:
    import vmrt.cli
    import workloads
    from test_golden_cli import RUNS

    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(str(SRC)):
            entered.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            for name, argv in sorted(RUNS.items()):
                if vmrt.cli.main(argv) != 0:
                    raise SystemExit(f"golden run {name} failed")
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            for workload in workloads.WORKLOADS.values():
                for cycle in workloads.make_pass(workload, 1)[:2]:
                    for case in cycle:
                        workload.check(case, workload.run(case))
            if vmrt.cli.main(["selftest", "--seed", "42"]) != 0:
                raise SystemExit("selftest failed")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    bad = 0
    for key, (qualname, class_body) in sorted(defined().items()):
        if class_body:
            continue
        where, reason = f"{key[0]}:{key[1]} {qualname}", KEPT.get((key[0], qualname))
        if key in entered and reason:
            print(f"STALE    {where}: entered, yet kept as {reason!r}")
            bad += 1
        elif key not in entered:
            print(f"KEPT     {where}: {reason}" if reason else f"UNREACHED {where}")
            bad += not reason
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
