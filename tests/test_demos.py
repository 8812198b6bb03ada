"""The five demos run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_five_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    # demo 05 writes its SVG files to the directory named by its argument
    args = [str(tmp_path)] if demo.name.startswith("05") else []
    proc = subprocess.run([sys.executable, str(demo), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo.name.startswith("03"):
        checks = [line for line in proc.stdout.splitlines()
                  if "bridge identity holds" in line
                  or "quotient returns the base curve" in line]
        assert checks
        assert not any("False" in line for line in checks)
    if demo.name.startswith("05"):
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
            "conic.svg", "doubled-quad.svg", "triangle.svg"]
