"""Smoke test of the benchmark itself.

Runs every workload briefly, traced and untraced, and checks that the
result line names exactly the metrics of BENCHMARK.json with their units.
Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# decode_wide is not gated by BENCHMARK.json but must keep running
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["decode_wide"]


def bench(workload: str, seed: int = 0, trace: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    result = result_of(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_alpha_repeats_for_a_seed():
    runs = [result_of(bench("decode_desk", seed=3))["metrics"] for _ in range(2)]
    for name in ("alpha_greedy", "alpha_sample"):
        assert runs[0][name]["value"] == runs[1][name]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
