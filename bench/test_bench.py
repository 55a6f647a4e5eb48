"""Smoke tests of the benchmark itself, at tiny sizes and with no timing bounds.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must record spans for.
COMMON = ["em.e_step", "kalman.kalman_filter", "kalman.kalman_smoother",
          "kalman.stationary_init", "em.build_stats", "em.m_step",
          "pca.pc_estimate"]
LAYERS = {
    "mc_cell": COMMON + ["em.em_fit", "simulate.draw_dgp", "metrics.z_scores",
                         "metrics.trace_statistic",
                         "metrics.ZAccumulator.update", "montecarlo.run_grid",
                         "montecarlo.run_cell", "montecarlo.write_report"],
    "fit_large": COMMON + ["em.em_fit", "simulate.draw_dgp"],
    "fit_ridge": COMMON + ["extensions.ridge_fit",
                           "extensions.ridge_covariance", "simulate.draw_dgp"],
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_gate_and_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in names)
        return
    spans = json.loads((HERE / "results" /
                        f"spans-{workload}-seed0-trace1-smoke.json").read_text())
    assert spans["missing"] == []
    recorded = {s[0] for s in spans["spans"]}
    assert set(LAYERS[workload]) <= recorded
    if workload != "fit_ridge":
        assert not any(name.startswith("extensions.") for name in recorded)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("fit_ridge", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
