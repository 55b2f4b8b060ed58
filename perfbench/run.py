"""The ulrt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mc_single_split --seed 1 --seconds 30 --trace 0

Every pass is a fresh process (``one_pass.py``) that imports ``ulrt`` from
``src`` and runs the workload's CLI calls one after another at
``--workers nproc``; BLAS is held to one thread so the engine's workers are
the only parallelism.  With ``--trace 0`` passes repeat for ``--seconds`` and
the end-to-end metrics are their medians (peak RSS: the highest pass).
With ``--trace 1`` untraced and traced passes alternate for ``--seconds``;
the per-layer metrics are the traced passes' medians, and the untraced ones
give the tracing overhead and the preset times.  Either way a closing
``workers=1`` pass feeds the determinism check and the speedup.

Prints one line per metric, check and output digest, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` with the metrics
``BENCHMARK.json`` declares for the mode.  Exits 1 without that line if a
pass fails, and 2 if there is no ``src/ulrt`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKERS = len(os.sched_getaffinity(0))
PASS_TIMEOUT_S = 150
_RESULT_COLUMNS = ("experiment", "estimate", "stderr", "reps_used", "status")
_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class PassFailed(RuntimeError):
    pass


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def run_pass(out: Path, tag: str, args, workers: int, trace: bool) -> dict:
    result_path = out / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--workers", str(workers),
        "--out-dir", str(out / tag), "--result", str(result_path),
    ]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    env = dict(os.environ, **_ONE_THREAD)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassFailed(f"pass {tag} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(result_path.read_text())
    result["tag"] = tag
    outputs = {c["preset"]: Path(c["out"]) for c in result["calls"] if c["preset"]}
    region = out / tag / "region"
    if region.is_dir():
        outputs["region"] = region
    result["digests"] = {name: checks.digest(p) for name, p in outputs.items() if p.exists()}
    result["rows"] = {
        c["preset"]: checks.read_rows(c["out"]) for c in result["calls"] if c["preset"] and c["exit"] == 0
    }
    return result


def repeat(out: Path, args, traces: tuple[bool, ...]) -> list[list[dict]]:
    """Rounds of passes at ``WORKERS``, one pass per entry of ``traces``,
    until ``args.seconds`` have gone, at least one round.  Returns the passes
    grouped by entry."""
    groups: list[list[dict]] = [[] for _ in traces]
    start = time.perf_counter()
    while not groups[0] or time.perf_counter() - start < args.seconds:
        for trace, group in zip(traces, groups):
            tag = f"{'t' if trace else 'p'}{len(group)}"
            group.append(run_pass(out, tag, args, WORKERS, trace))
    return groups


def failures(p: dict) -> tuple[int, list[str]]:
    """Operations a pass attempted (rows written plus CLI calls) and a line
    per failed one (error rows and nonzero exits)."""
    attempted, lines = 0, []
    for call in p["calls"]:
        attempted += 1
        if call["exit"] != 0:
            lines.append(f"{call['call']}: exit {call['exit']}: {call['stderr']}")
    for preset, rows in p["rows"].items():
        attempted += len(rows)
        for r in rows:
            if r["status"] != "ok":
                cell = " ".join(f"{k}={v}" for k, v in r.items() if k not in _RESULT_COLUMNS and v)
                lines.append(f"{preset} row {cell}: {r['status']}")
    return attempted, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ulrt benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ulrt" / "__init__.py").is_file():
        print(f"error: no ulrt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        if args.trace:
            # untraced and traced passes alternate, so the tracing overhead
            # compares passes that ran under the same machine load
            untraced, measured = repeat(out, args, (False, True))
            passes = [*untraced, *measured]
        else:
            (measured,) = repeat(out, args, (False,))
            passes = list(measured)
        single = run_pass(out, "w1", args, 1, False)
        passes.append(single)
        base = passes[0]
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = checks.determinism([p["digests"] for p in passes], [p["tag"] for p in passes])
    results += checks.statistical(base["rows"])
    check_failures = sum(not c.ok for c in results)
    attempted = failed = 0
    for p in passes:
        n, lines = failures(p)
        attempted += n
        failed += len(lines)

    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update({k: statistics.median(p["layers"][k] for p in measured) for k in measured[0]["layers"]})
        for preset in (p for ps in workloads.PRESETS.values() for p in ps):
            metrics[f"preset.{preset.experiment_id}_s"] = statistics.median(
                sum(c["seconds"] for c in p["calls"] if c["preset"] == preset.experiment_id)
                for p in untraced
            )
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["cli.calls"] = len(base["calls"])
        metrics["cli.failed"] = sum(c["exit"] != 0 for c in base["calls"])
        metrics["engine.speedup_vs_1worker"] = single["wall_s"] / untraced_wall
        metrics["trace.overhead"] = statistics.median(p["wall_s"] for p in measured) / untraced_wall - 1.0
        metrics["reps_per_s"] = base["reps"] / untraced_wall
    else:
        for key in ("setup_s", "wall_s", "cpu_s"):
            metrics[key] = statistics.median(p[key] for p in measured)
        # the peak depends on how the workers' chunk temporaries overlap in
        # time, so one pass can read 20% low; the highest pass is steady
        metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in measured)
        metrics["reps_per_s"] = base["reps"] / metrics["wall_s"]
    metrics["error_rate"] = failed / attempted
    metrics["check_failures"] = check_failures

    print(
        f"machine: nproc={WORKERS} python={platform.python_version()} numpy={base['numpy']} "
        + " ".join(f"{k}={v}" for k, v in cache_sizes().items())
    )
    print(
        f"workload: {args.workload} seed={args.seed} workers={WORKERS} trace={args.trace} "
        f"passes={len(measured)} wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in measured)
    )
    for name, digest in base["digests"].items():
        print(f"output_sha256 {name} {digest}")
    for c in results:
        if not c.ok:
            print(f"check FAIL {c.name}: {c.detail}")
    print(f"checks: {len(results) - check_failures} of {len(results)} passed")
    for line in failures(base)[1]:
        print(f"failure: {line}")
    for message in measured[0].get("cell_errors", []):
        print(f"failure message: {message}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    mode = "per_layer" if args.trace else "end_to_end"
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared[mode]}
    print(json.dumps({
        "correct": check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
