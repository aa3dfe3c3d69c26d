"""Smoke test of the benchmark harness at tiny input sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, run, *args):
    return subprocess.run(
        [sys.executable, str(run), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_with_no_failed_check(workload, trace):
    out = _run(ROOT, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert any(ln.strip().startswith("check_fail_ratio = 0 ") for ln in lines)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            ln.strip().startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines
        ), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, tmp_path / "perfbench" / "run.py",
               "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
