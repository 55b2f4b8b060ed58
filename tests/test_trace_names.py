"""The ``ulrt`` names that the benchmark's span tracer patches still exist.

``perfbench/tracing.py`` wraps ``ulrt`` functions and methods by name, so a
rename would drop a layer from ``perfbench/run.py --trace 1`` without any
test under ``tests/`` failing.  This test loads the tracer unchanged in a
fresh process, runs two small figures through it and reads the span names.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import tracing
from ulrt import cli
tracer = tracing.Tracer()
tracer.install()
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "names": sorted({span[3] for span in tracer.spans})}))
"""

EXPECTED_SPANS = {
    "engine.cell", "engine.chunk", "engine.fold", "rng.batch_normals", "rng.substream_keys",
    "kernels.split_means", "doughnut.split_case_log_values", "doughnut.hybrid_log_values",
}


def test_tracer_spans_name_every_layer_and_no_private_draw_step(tmp_path):
    calls = [
        ["figure", "7", "--d", "2", "--n", "100", "--B", "5", "--reps", "4",
         "--theta-norms", "0.5", "--workers", "2", "--out", str(tmp_path / "fig7.csv")],
        # d = 100 at n = 1000 runs its 600 replications in four chunks
        ["figure", "5", "--d", "100", "--reps", "600", "--workers", "2",
         "--out", str(tmp_path / "fig5.csv")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(PERFBENCH), json.dumps(calls)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    names = set(result["names"])
    assert EXPECTED_SPANS <= names, sorted(EXPECTED_SPANS - names)
    assert not [name for name in names if "polar" in name]
