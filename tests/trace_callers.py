"""List the functions of src/vmrt that no caller of the library enters.

Run from the repository root, with the test dependencies installed:

    python tests/trace_callers.py

The callers are `vmrt selftest --seed 42`, every golden CLI run of
tests/test_golden_cli.py, the demos and two cycles of each benchmark
workload (bench/workloads.py, seed 1); the tests themselves are not
callers.  A `sys.settrace` hook records every code object of src/vmrt
that is entered, and the script prints each function, method, class body
or comprehension that never was, as `UNREACHED file:line qualname`.
Class bodies, the error classes and `_report_error` show up because the
package is imported before the hook is set and no run fails.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

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


def defined() -> dict[tuple[str, int, str], str]:
    """Every code object in src/vmrt: (file name, first line, name) -> qualified name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    key = (path.name, const.co_firstlineno, const.co_name)
                    out[key] = getattr(const, "co_qualname", const.co_name)  # Python 3.11+
                    stack.append(const)
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
    for key, qualname in sorted(defined().items()):
        if key not in entered:
            print(f"UNREACHED {key[0]}:{key[1]} {qualname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
