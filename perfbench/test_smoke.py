"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Checks that each run is correct and emits exactly the metrics BENCHMARK.json
names, so the benchmark cannot rot silently. Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py

It takes about half a minute, most of it interpreter start-up of the CLI
commands that the end-to-end mode spawns.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from inputs import WORKLOADS

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402  (needs the package on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert ({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
            == {name: spec[:2] for name, spec in tracing.PER_LAYER.items()})
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    result, env, _, failures = run.run_workload(workload, seed=5, seconds=0, trace=trace,
                                                smoke=True)
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert env["seed"] == 5 and env["kernel_path"] in ("numpy", "numba")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "busy-cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
