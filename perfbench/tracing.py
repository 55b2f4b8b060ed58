"""In-memory span tracer that wraps the public functions of each ulrt layer.

A span is ``(id, parent, thread, name, start, end, self_s, units, error)``.
Spans nest on one thread through a per-thread stack; a span's self time is
its duration minus the durations of its children on the same thread.  Chunk
spans started by the engine's thread pool name the dispatching span as their
parent but are not subtracted from it: the dispatching thread waits there,
which is reported as ``engine.wait_s`` instead of self time.

Wrapping is by identity: a function is replaced in every ``ulrt`` module that
binds its name (``from ._kernels import log_mean_exp`` binds it in
``engine``, ``power`` and ``doughnut`` as well as ``_kernels``).
"""

from __future__ import annotations

import csv
import inspect
import itertools
import math
import sys
import threading
import time

LAYERS = ("specfun", "rng", "data", "kernels", "regions", "power", "doughnut", "engine", "cli")

# ulrt module -> layer prefix (metric names must start with a letter)
_MODULE_LAYER = {
    "specfun": "specfun", "rng": "rng", "data": "data", "_kernels": "kernels",
    "regions": "regions", "power": "power", "doughnut": "doughnut", "engine": "engine",
}

# A one-line reduction called ~1e5 times inside region evaluators: a span
# would cost more than the call, so its time stays with the caller.
_UNWRAPPED = {"_kernels.sq_norm"}


class _Counted:
    """A membership evaluator that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.fn(theta)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(self, fn, name: str, units=None, parent: int | None = None):
        """``fn`` recording one span per call; ``units(args, kwargs)`` is
        evaluated after the call and stored with the span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [next(ids), 0.0]
            up = stack[-1][0] if stack else parent
            stack.append(frame)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((
                    frame[0], up, threading.get_ident(), name, start, end,
                    duration - frame[1], units(args, kwargs) if units else None, error,
                ))

        return traced

    # -- installation -----------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ulrt" and not mod_name.startswith("ulrt."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every public function of the layer modules, plus the engine
        internals that delimit cells, chunks and folds."""
        from ulrt import cli, doughnut, engine, regions, rng

        for mod_name, layer in _MODULE_LAYER.items():
            module = sys.modules[f"ulrt.{mod_name}"]
            for fname, fn in list(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or f"{mod_name}.{fname}" in _UNWRAPPED
                    or fn is regions.region_boundary_2d
                ):
                    continue
                self._replace(fn, self.wrap(fn, f"{layer}.{fname}", _UNITS.get(fname)))

        boundary = self.wrap(
            regions.region_boundary_2d, "regions.region_boundary_2d", lambda a, k: a[0].calls
        )
        self._replace(
            regions.region_boundary_2d,
            lambda evaluator, *rest, **kw: boundary(_Counted(evaluator), *rest, **kw),
        )
        for fname in ("_split_case_log_values", "_hybrid_log_values"):
            fn = getattr(doughnut, fname)
            setattr(doughnut, fname, self.wrap(fn, f"doughnut.{fname.strip('_')}"))
        for method in ("normals", "substream", "substream_keys"):
            fn = getattr(rng.RngStream, method)
            setattr(rng.RngStream, method, self.wrap(fn, f"rng.{method}", _UNITS.get(method)))
        engine.Accumulator.fold = self.wrap(engine.Accumulator.fold, "engine.fold")
        for experiment_id, fn in list(engine._EXECUTORS.items()):
            engine._EXECUTORS[experiment_id] = self.wrap(fn, "engine.cell")
        self._replace(cli.main, self.wrap(cli.main, "cli.main"))

        map_chunks = engine._map_chunks

        def dispatch(reps, chunk, fn, workers, dump=None):
            chunk_fn = self.wrap(fn, "engine.chunk", parent=self.current())
            return map_chunks(reps, chunk, chunk_fn, workers, dump)

        pooled = lambda a, k: int(a[3] is not None and a[3] > 1 and math.ceil(a[0] / a[1]) > 1)
        engine._map_chunks = self.wrap(dispatch, "engine.map_chunks", pooled)

    def write(self, path) -> None:
        """All spans as CSV, in the order they ended."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "thread", "name", "start", "end", "self_s", "units", "error"))
            for span in self.spans:
                units = span[7]
                if isinstance(units, tuple):
                    units = ";".join(map(str, units))
                out.writerow((*span[:7], units, span[8]))


# work units per call, from the call's arguments: normals drawn, swaps
# (rows x k), and (C*B*n*d row-dims, C*B*n*8 one-hot bytes)
_UNITS = {
    "normals": lambda a, k: int(a[1]),
    "batch_fisher_yates": lambda a, k: len(a[0]) * int(a[2]),
    "split_means": lambda a, k: (a[1].size * a[0].shape[2], a[1].size * 8),
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list[tuple], traced_wall: float, workers: int) -> dict[str, float]:
    """Per-layer self times, counts and derived per-unit costs of one pass."""
    self_by_name: dict[str, float] = {}
    dur_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    units: dict[str, list] = {}
    cells: list[float] = []
    wait = 0.0
    for _, _, _, name, start, end, self_s, unit, _ in spans:
        if name == "engine.map_chunks" and unit:
            wait += self_s
            self_s = 0.0
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        dur_by_name[name] = dur_by_name.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if unit is not None:
            units.setdefault(name, []).append(unit)
        if name == "engine.cell":
            cells.append(end - start)

    def own(*names: str) -> float:
        return sum(self_by_name.get(n, 0.0) for n in names)

    def per(total: float, count: float, scale: float) -> float:
        return total / count * scale if count else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for n, v in self_by_name.items() if n.split(".")[0] == layer)
    normals = sum(units.get("rng.normals", []))
    m["rng.normals_s"] = own("rng.normals")
    m["rng.normals"] = normals
    m["rng.ns_per_normal"] = per(m["rng.normals_s"], normals, 1e9)
    m["rng.derive_s"] = own("rng.substream", "rng.substream_keys")
    m["rng.derive_calls"] = calls.get("rng.substream", 0) + calls.get("rng.substream_keys", 0)

    swaps = sum(units.get("kernels.batch_fisher_yates", []))
    m["kernels.fisher_yates_s"] = own("kernels.batch_fisher_yates")
    m["kernels.swaps"] = swaps
    m["kernels.ns_per_swap"] = per(m["kernels.fisher_yates_s"], swaps, 1e9)
    sums = units.get("kernels.split_means", [])
    rowdims = sum(u[0] for u in sums)
    m["kernels.split_means_s"] = own(
        "kernels.split_means", "kernels.batched_partition_sums", "kernels.partition_sums"
    )
    m["kernels.rowdims"] = rowdims
    m["kernels.ns_per_rowdim"] = per(m["kernels.split_means_s"], rowdims, 1e9)
    m["kernels.onehot_bytes"] = max((u[1] for u in sums), default=0)
    m["kernels.log_mean_exp_s"] = own("kernels.log_mean_exp")
    m["kernels.log_mean_exp_calls"] = calls.get("kernels.log_mean_exp", 0)

    evals = sum(units.get("regions.region_boundary_2d", []))
    m["regions.boundary_s"] = own("regions.region_boundary_2d")
    m["regions.member_evals"] = evals
    m["regions.us_per_eval"] = per(m["regions.boundary_s"], evals, 1e6)

    m["specfun.quantile_calls"] = calls.get("specfun.chi2_upper_quantile", 0)
    m["specfun.quantile_s"] = dur_by_name.get("specfun.chi2_upper_quantile", 0.0)
    m["specfun.us_per_quantile"] = per(m["specfun.quantile_s"], m["specfun.quantile_calls"], 1e6)
    m["specfun.noncentral_calls"] = calls.get("specfun.noncentral_chi2_cdf", 0)
    m["specfun.noncentral_s"] = dur_by_name.get("specfun.noncentral_chi2_cdf", 0.0)
    m["specfun.us_per_noncentral"] = per(
        m["specfun.noncentral_s"], m["specfun.noncentral_calls"], 1e6
    )
    m["specfun.cdf_calls"] = calls.get("specfun.chi2_cdf", 0)

    m["power.mc_s"] = dur_by_name.get("power.mc_power", 0.0)
    m["power.exact_s"] = dur_by_name.get("power.power_classical", 0.0) + dur_by_name.get(
        "power.power_limiting_subsampling", 0.0
    )
    m["doughnut.exact_s"] = dur_by_name.get("doughnut.intersection_power_exact", 0.0)

    busy = sum(self_by_name.values())
    m["engine.cells"] = len(cells)
    m["engine.chunks"] = calls.get("engine.chunk", 0)
    m["engine.chunks_per_cell"] = per(m["engine.chunks"], len(cells), 1.0)
    m["engine.chunk_self_s"] = own("engine.chunk")
    m["engine.fold_s"] = own("engine.fold")
    m["engine.csv_s"] = own("engine.rows_to_csv")
    m["engine.wait_s"] = wait
    m["engine.busy_s"] = busy
    m["engine.utilization"] = busy / (traced_wall * workers)
    m["engine.cell_s_p50"] = _percentile(cells, 50) if cells else 0.0
    m["engine.cell_s_p90"] = _percentile(cells, 90) if cells else 0.0
    m["engine.cell_samples"] = len(cells)
    m["trace.spans"] = len(spans)
    return m

