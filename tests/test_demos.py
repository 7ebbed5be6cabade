"""The demo scripts run to completion: exit 0, no traceback, some output."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run_cleanly():
    assert len(DEMOS) == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the demos are independent processes, so they run side by side
    procs = [
        subprocess.Popen(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
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
