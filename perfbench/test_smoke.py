"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# At workers=1 every span is on one thread, so the layers' self times cover
# the traced wall except the pass loop's own glue around each CLI call.
SELF_TIME_TOLERANCE = 0.02


def _run(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    lines = _run(
        "run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ).splitlines()
    result = json.loads(lines[-1])
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_traced_wall_at_one_worker(workload):
    out = ROOT / ".perfbench_out" / "smoke" / workload
    result = out / "pass.json"
    _run(
        "one_pass.py", "--workload", workload, "--seed", "1", "--workers", "1",
        "--trace", "--tiny", "--out-dir", str(out), "--result", str(result),
    )
    r = json.loads(result.read_text())
    total = sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS)
    assert abs(total - r["wall_s"]) <= SELF_TIME_TOLERANCE * r["wall_s"], (total, r["wall_s"])


def test_layer_map_covers_every_per_layer_metric():
    mapped = json.loads((HERE / "layer_map.json").read_text())
    del mapped["_doc"]
    assert set(mapped) == {m["name"] for m in DECLARED["per_layer"]}
    targets = {m["name"] for m in DECLARED["end_to_end"]} | {"failed", "correct"}
    for moves in mapped.values():
        for target in moves:
            metric, workload = target.split("@")
            assert metric in targets and workload in WORKLOADS, target
