"""The benchmark's trace mode wraps package functions by module attribute
name (see perfbench/child.py).  A traced run must still work, and the scan
layer it wraps must still be the one that does the scanning."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_verify_runs_through_the_wrapped_scan(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--spans", str(spans), "cli",
         "verify", "--claims", "noonan,robertson_both", "--n-max", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("4/4 pass")
    totals = json.loads(spans.read_text())["totals"]
    assert totals["enumeration.scan"][0] > 0
    assert totals["verify.claim.robertson_both"][0] == 1
