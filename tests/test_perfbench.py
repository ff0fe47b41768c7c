"""The benchmark's traced pass (`perfbench/worker.py --mode trace`) on
every workload of BENCHMARK.json: its ops verify, and tracing changes no
certificate or count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_matches_the_untraced_pass(workload, tmp_path):
    # -B: the harness directory is read, never written to.
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--mode", "trace", "--workdir", str(tmp_path / "work"),
         "--spans", str(tmp_path / "spans.jsonl"), "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["mismatches"] == []
    assert result["ops"] and all(op["status"] == "ok" for op in result["ops"])
    assert all(op["status"] == "ok" for op in result["untraced_ops"])
