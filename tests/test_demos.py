"""The demo scripts run to completion: exit 0, no traceback, and the pinned stdout.

Each demo's stdout is compared byte for byte with
tests/data/golden/demo_<name>.txt; `PYTHONPATH=src python tests/test_golden_cli.py`
regenerates those files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "golden"
# this checkout's package, not one installed elsewhere
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def golden_demo(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.stem}.txt"


def test_demos_run_cleanly():
    assert len(DEMOS) == 4
    # the demos are independent processes, so they run side by side
    procs = [
        subprocess.Popen(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for demo in DEMOS
    ]
    try:
        outputs = [proc.communicate(timeout=600) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for demo, proc, (out, err) in zip(DEMOS, procs, outputs):
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}: {err}"
        assert "Traceback" not in out + err, demo.name
        assert out.strip(), f"{demo.name} printed nothing"
        assert out == golden_demo(demo).read_text(), f"{demo.name} stdout differs from its golden file"
