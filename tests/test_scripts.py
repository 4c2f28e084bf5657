"""Smoke runs of the example scripts, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_export_closure():
    proc = run_script("export_closure.py")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["state"] == "hub"
    assert out["closure"]["components"]
    # the hub's self-closure as the golden star dump has it
    golden = json.loads((ROOT / "tests" / "golden" / "two_loops_star.json").read_text())
    hub = golden["states"].index("hub")
    assert out["closure"] == golden["entries"][hub][hub]


def test_satellite_demo():
    proc = run_script("satellite_demo.py")
    assert proc.returncode == 0, proc.stderr
