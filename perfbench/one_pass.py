"""One pass of a workload in a fresh process.

Imports ``ulrt`` from the checkout's ``src`` directory, builds the
workload's preset specs, then runs every CLI call of the workload through
``ulrt.cli.main`` in this process.  Writes a JSON result: set-up time (from
the first line of this script to the first CLI call), wall and CPU time of
the calls, peak RSS, the Monte Carlo replications the specs ask for, and one
record per call.  With ``--trace`` it also wraps the layers and adds their
metrics, writing the spans next to the CSVs.

    python3 perfbench/one_pass.py --workload mc_single_split --seed 1 \\
        --workers 2 --out-dir .perfbench_out/x --result .perfbench_out/x.json
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    from ulrt import cli, engine

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    calls = workloads.calls(args.workload, args.seed, args.workers, args.out_dir, args.tiny)
    reps = sum(
        workloads.mc_replications(
            engine.build_spec(c.preset.experiment_id, args.seed, **c.preset.overrides(args.tiny))
        )
        for c in calls
        if c.preset is not None
    )
    setup_s = time.perf_counter() - _START

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    records = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for call in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejected the call
                code = exc.code if isinstance(exc.code, int) else 2
        records.append({
            "call": call.label,
            "preset": call.preset.experiment_id if call.preset else None,
            "out": call.out,
            "exit": code,
            "seconds": time.perf_counter() - t0,
            "stderr": stderr.getvalue().strip(),
        })
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
        "calls": records,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall_s, args.workers)
        result["cell_errors"] = [s[8] for s in tracer.spans if s[3] == "engine.cell" and s[8]]
        tracer.write(Path(args.out_dir) / "spans.csv")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
