"""Tests of the benchmark itself: `python3 -m pytest bench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_reference_table_rederives():
    import tropical_refine

    derived = reference.derive(tropical_refine)
    with open(reference.TABLE_PATH, encoding="utf-8") as fh:
        assert json.load(fh) == derived


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line)
                       for line in proc.stdout.strip().splitlines()[-2:])
    assert details["environment"]["TROPICAL_REFINE_THREADS"] == "unset"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_wrong_reference_value_is_counted_as_failure(tmp_path):
    table = json.loads(reference.TABLE_PATH.read_text(encoding="utf-8"))
    table["conic_merged"]["R"][0][1] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(table), encoding="utf-8")
    wl = workloads.Bridge(ROOT, seed=5, table_path=bad)
    (loop,), metrics, details = run.end_to_end(wl, seconds=0, smoke=True)
    assert loop.failures and all("conic_merged" in f for f in loop.failures)
    assert details["error_rate"] == len(loop.failures) / len(loop.op_s) > 0
    assert metrics["success_rate"][0] < 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "audit", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
