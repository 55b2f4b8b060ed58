"""Deterministic, parallel Monte Carlo experiment runner.

Each preset experiment is stated once, as an entry of :data:`PRESETS`: its
CLI figure id, its default axes, its grid builder and its cell executor.  An
:class:`ExperimentSpec` names a preset and a grid of parameter cells;
:func:`run` produces one or more aggregated :class:`SummaryRow` per cell.
Replication ``r`` of cell ``c`` draws from the stream chain
``root(master_seed) -> substream(1 + c) -> substream(r)`` (``substream(0)``
of the root is reserved for artifacts shared across cells, such as a fixed
dataset).  :func:`_replicate` is the one place that implements this layout;
every Monte Carlo cell, :func:`coverage_suite` and :func:`ulrt.power.mc_power`
run through it; it passes a chunk to :func:`ulrt.data.replicate_split_means`
as a stream and a replication range.  Within a replication, substream 0
draws the data: a single-split (B = 1) cell draws only its two part means
(``2d`` normals, see :func:`ulrt.data.sample_part_means`), and a B > 1 cell
the full ``n``-by-``d`` dataset, or from ``data._EXACT_MIN_D`` coordinates on
the normals of its split sums' exact law; its splits descend from substream
1.  The Monte Carlo annulus cells of fig7, S3 and S4 draw at theta = 0 and
add their own theta to the split means (:func:`_exec_group`); the B > 1
cells of one power curve form a draw group (:func:`_draw_groups`), one task
whose draw, on the stream of its first cell, serves every cell of the group
(common random numbers).  The engine lays out cells and shapes rows; the
statistics come from the library, and the annulus tests are decided by
:func:`ulrt.doughnut.mc_reducer`.

Replications are evaluated in fixed-size chunks (vectorized internally) and
reduced with a streaming count/mean/M2 accumulator merged in chunk order, so
results are a pure function of ``(spec, master_seed)`` no matter how many
worker threads execute the chunks.

Scheduling rule: work goes to the thread pool only when it draws B > 1
splits, whose subset draws and partition sums run in compiled loops that
release the GIL.  So :func:`_replicate` pools the chunks of B > 1 cells only,
fig2 pools its chunks of splits, and :func:`run` overlaps the tasks (cells
and draw groups) of the presets marked ``split_batches`` (fig2, fig7 and
S4).  Every other cell, and
the chunks of every B = 1 cell, run on the calling thread, where threads
would only contend for the GIL.  All pooled work goes through one ordered
helper, :func:`_ordered`, onto one pool per worker count that the whole
process shares: ``workers - 1`` threads, the waiting caller being the extra
worker.  Rows stay in cell order and folds in chunk order.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Iterator

import numpy as np

from . import doughnut as dn
from . import power as pw
from . import regions as rg
from . import specfun
from ._kernels import split_means, sq_norm
from .data import (
    SampleSet,
    _write_csv,
    part_size,
    replicate_split_means,
    sample_gaussian,
    split,
    subsample_splits,
)
from .errors import DomainError, NumericError
from .rng import RngStream

@dataclass(frozen=True)
class ExperimentSpec:
    """A preset experiment, its parameter cells, and the master seed."""

    experiment_id: str
    grid: tuple
    master_seed: int

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise DomainError(f"unknown experiment_id {self.experiment_id!r}")
        if not self.grid:
            raise DomainError("experiment grid is empty")
        _check_cells(self.experiment_id, self.grid)


@dataclass
class SummaryRow:
    """One aggregated result: cell parameters plus estimate and precision."""

    experiment_id: str
    cell: dict
    estimate: float
    stderr: float
    reps_used: int
    status: str = "ok"


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------


class Accumulator:
    """Single-pass count/mean/M2, merged chunk-by-chunk in fixed order."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def fold(self, values: np.ndarray) -> None:
        c = int(values.size)
        if c == 0:
            return
        m = float(values.mean())
        s = float(np.square(values - m).sum())
        if self.count == 0:
            self.count, self.mean, self.m2 = c, m, s
            return
        delta = m - self.mean
        total = self.count + c
        self.mean += delta * c / total
        self.m2 += s + delta * delta * self.count * c / total
        self.count = total

    def se_mean(self) -> float:
        if self.count < 2:
            return math.nan
        return math.sqrt(self.m2 / (self.count - 1) / self.count)

    def se_proportion(self) -> float:
        p = self.mean
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.count)


def _chunk_reps(n: int, d: int, B: int) -> int:
    """Replications per chunk, bounded by a fixed memory budget.

    Depends only on the cell shape (never on worker count), so chunk
    boundaries and therefore aggregation order are deterministic.
    """
    per_rep = n * (8 * d + 12 * max(B, 1)) + 16 * max(B, 1) * d
    return int(np.clip(2**27 // max(per_rep, 1), 1, 512))


#: The shared pools, one per thread count, created on first use.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(threads: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        if threads not in _POOLS:
            _POOLS[threads] = ThreadPoolExecutor(threads, thread_name_prefix="ulrt")
        return _POOLS[threads]


def _inline(task: Callable[[], object]) -> Future:
    fut: Future = Future()
    try:
        fut.set_result(task())
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _ordered(tasks: list[Callable[[], object]], workers: int | None) -> Iterator:
    """Yield each task's result (or raise its exception) in list order.

    With ``workers > 1`` the tasks go to the shared pool of ``workers - 1``
    threads.  While the caller waits for a result, it runs inline any task
    of the list that no pool thread has started, so a task running in the
    pool may itself call this helper without deadlock, and at most
    ``workers`` tasks compute at once.  When a result raises, or the caller
    stops early, the tasks not yet started are cancelled and the running
    ones are waited for.
    """
    if workers is None or workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield task()
        return
    pool = _pool(workers - 1)
    futures = [pool.submit(task) for task in tasks]
    try:
        ahead = 0
        for i in range(len(futures)):
            ahead = max(ahead, i)
            while ahead < len(futures) and not futures[i].done():
                if futures[ahead].cancel():
                    futures[ahead] = _inline(tasks[ahead])
                ahead += 1
            yield futures[i].result()
    finally:
        # a cancelled future counts as done only once a pool thread has
        # dequeued it, so wait for the started ones alone
        wait([fut for fut in futures if not fut.cancel()])


def _map_chunks(
    reps: int,
    chunk: int,
    fn: Callable[[int, int], dict],
    workers: int | None,
    dump: Callable[[str, int, np.ndarray], None] | None = None,
) -> dict[str, Accumulator]:
    """Run ``fn(lo, hi)`` over chunked replication ranges through
    :func:`_ordered`, and fold the returned arrays in chunk order."""
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    acc: dict[str, Accumulator] = {}
    tasks = [partial(fn, lo, hi) for lo, hi in bounds]
    for (lo, _), out in zip(bounds, _ordered(tasks, workers)):
        for name, values in out.items():
            acc.setdefault(name, Accumulator()).fold(np.asarray(values, dtype=np.float64))
            if dump is not None:
                dump(name, lo, np.asarray(values, dtype=np.float64))
    return acc


def _replicate(stream, reps, n, k, theta, B, reduce, workers, dump=None) -> dict[str, Accumulator]:
    """Fold ``reduce(mean0, mean1)`` over ``reps`` replications, where
    replication ``r`` draws from ``stream.substream(r)``; each chunk's
    ``(C, B, d)`` means come from one :func:`ulrt.data.replicate_split_means`.
    Only B > 1 chunks go to the pool.  A non-finite ``theta`` is refused:
    its statistics would be NaN, which never reject."""
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")

    def run_chunk(lo: int, hi: int) -> dict:
        return reduce(*replicate_split_means(stream, lo, hi, n, k, theta, B))

    pooled = workers if B > 1 else None
    return _map_chunks(reps, _chunk_reps(n, theta.shape[0], B), run_chunk, pooled, dump)


# ---------------------------------------------------------------------------
# preset grids
# ---------------------------------------------------------------------------


def build_spec(experiment_id: str, seed: int, **overrides) -> ExperimentSpec:
    """Build a preset grid, with keyword overrides for its documented axes."""
    if experiment_id not in EXPERIMENT_IDS:
        raise DomainError(
            f"unknown experiment_id {experiment_id!r}; known: {', '.join(EXPERIMENT_IDS)}"
        )
    params = dict(PRESETS[experiment_id].axes)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise DomainError(
                f"{experiment_id} has no axis {key!r}; axes: {', '.join(params)}"
            )
        params[key] = value
    _check_counts(experiment_id, params)
    grid = PRESETS[experiment_id].build_grid(params)
    return ExperimentSpec(experiment_id, tuple(grid), seed)


def _check_counts(experiment_id: str, values: dict) -> None:
    """Reject counts and sizes other than integers >= 1 in axes or grid cells."""
    for axis in ("reps", "replicates", "B", "d", "n", "rays", "grid_points"):
        v = values.get(axis, 1)
        if not (_is_integer(v) and v >= 1):
            raise DomainError(f"{experiment_id} needs {axis} >= 1, an integer, got {v!r}")


def _is_integer(value) -> bool:
    """An integer that is not a ``bool``: JSON's ``true`` and ``2.5`` are refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_workers(value, source: str) -> int:
    """A worker count from ``source``, a flag, the environment or a spec
    file: an integer >= 1."""
    if not _is_integer(value):
        raise DomainError(f"{source} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{source} must be at least 1, got {value}")
    return int(value)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: What a cell value must be, by the type of the preset's own default value.
_CELL_TYPES = {
    "an integer": _is_integer,
    "a real number": _is_real,
    "a string": lambda v: isinstance(v, str),
}


@cache
def _cell_schema(experiment_id: str) -> dict[str, str]:
    """Each axis of a preset's cells and what its value must be, read off
    the first cell of the preset's default grid."""
    preset = PRESETS[experiment_id]
    return {
        key: next(kind for kind, check in _CELL_TYPES.items() if check(value))
        for key, value in preset.build_grid(dict(preset.axes))[0].items()
    }


def _check_cells(experiment_id: str, grid) -> None:
    """Refuse, before any cell runs, a cell that lacks one of the preset's
    axes or gives one a value of the wrong type (``bool`` is no number), an
    ``alpha`` outside (0, 1), and data that cannot be split: fewer than two
    observations, a ``p0`` that leaves a part empty, or an odd ``n`` for a
    subsampled annulus test.  Keys beyond the axes are kept: they become CSV
    columns that label the cell's rows, and a misspelled axis still fails as
    a missing one."""
    schema, annulus = _cell_schema(experiment_id), PRESETS[experiment_id].annulus
    for i, cell in enumerate(grid):
        if not isinstance(cell, dict):
            raise DomainError(f"{experiment_id} grid cell {i} is not a mapping: {cell!r}")
        _check_counts(experiment_id, cell)
        for key, kind in schema.items():
            if key not in cell:
                raise DomainError(f"{experiment_id} grid cell {i} lacks the axis {key!r}")
            if not _CELL_TYPES[kind](cell[key]):
                raise DomainError(
                    f"{experiment_id} grid cell {i}: {key} must be {kind}, got {cell[key]!r}"
                )
        try:
            if "n" in schema and cell["n"] < 2:
                raise DomainError(f"n = {cell['n']} observations cannot be split, need n >= 2")
            if "alpha" in schema:
                rg._check_alpha(cell["alpha"])
            if "p0" in schema:
                part_size(cell["n"], cell["p0"])
            if annulus is not None and annulus.method(cell) in _SUBSAMPLED:
                dn._check_even_n(cell["n"])
        except DomainError as exc:
            raise DomainError(f"{experiment_id} grid cell {i}: {exc}") from None


def _grid_fig1(p: dict) -> list[dict]:
    if p["d"] != 2:
        raise DomainError("regions_fig1 requires d = 2")
    base = {k: p[k] for k in ("n", "d", "alpha", "B", "rays", "tol")}
    return [dict(replicate=r, **base) for r in range(int(p["replicates"]))]


def _grid_fig2(p: dict) -> list[dict]:
    return [
        dict(d=d, n=n, B=int(p["B"]), grid_points=int(p["grid_points"]))
        for d in p["ds"]
        for n in p["ns"]
    ]


def _grid_fig3(p: dict) -> list[dict]:
    cells = []
    for d in p["ds"]:
        p0s = p["p0s"]
        if p0s is None:
            p0s = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, rg.optimal_split_proportion(p["alpha"], d)]
        for p0 in p0s:
            cells.append(dict(d=d, n=p["n"], alpha=p["alpha"], p0=float(p0), reps=int(p["reps"])))
    return cells


def _grid_fig4(p: dict) -> list[dict]:
    return [dict(d=d, x=float(x)) for d in p["ds"] for x in p["xs"]]


def _grid_fig5(p: dict) -> list[dict]:
    return [dict(d=d, n=p["n"], alpha=p["alpha"], reps=int(p["reps"])) for d in p["ds"]]


def _grid_fig6(p: dict) -> list[dict]:
    cells = []
    for d in p["ds"]:
        for lam in p["lambdas"]:
            for test, method in (
                ("classical", "exact"),
                ("classical", "approx"),
                ("subsampling_limit", "exact"),
                ("subsampling_limit", "approx"),
                ("split", "mc"),
                ("crossfit", "mc"),
            ):
                cells.append(
                    dict(
                        test=test, method=method, d=d, n=p["n"], alpha=p["alpha"],
                        n_theta_sq=float(lam), reps=int(p["reps"]), B=int(p["B"]),
                    )
                )
    return cells


_FIG7_METHODS = ("intersection", "intersection_exact", "subsampled_split", "subsampled_hybrid")


def _grid_fig7(p: dict) -> list[dict]:
    return [
        dict(
            method=m, d=d, n=p["n"], alpha=p["alpha"], theta_norm=float(t),
            B=int(p["B"]), reps=int(p["reps"]),
        )
        for d in p["ds"]
        for t in p["theta_norms"]
        for m in _FIG7_METHODS
    ]


def _grid_figS2(p: dict) -> list[dict]:
    base = {k: p[k] for k in ("n", "d", "alpha", "rays", "tol")}
    return [dict(p0=float(p0), **base) for p0 in p["p0s"]]


def _grid_figS3(p: dict) -> list[dict]:
    return [
        dict(method=m, d=d, n=p["n"], alpha=p["alpha"], theta_norm=float(t), reps=int(p["reps"]))
        for d in p["ds"]
        for t in p["theta_norms"]
        for m in ("exact", "mc")
    ]


def _grid_figS4(p: dict) -> list[dict]:
    return [
        dict(d=d, n=p["n"], alpha=p["alpha"], theta_norm=float(t), B=int(p["B"]), reps=int(p["reps"]))
        for d in p["ds"]
        for t in p["theta_norms"]
    ]


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


@dataclass
class _RunContext:
    spec: ExperimentSpec
    root: RngStream
    workers: int | None
    dump: Callable[[int, str, int, np.ndarray], None] | None = None
    shared_cache: dict = field(default_factory=dict)
    dump_buffers: dict = field(default_factory=dict)

    def cell_stream(self, cell_index: int) -> RngStream:
        return self.root.substream(1 + cell_index)

    def cell_dump(self, cell_index: int) -> Callable[[str, int, np.ndarray], None] | None:
        """A cell's dump, buffered until :meth:`flush_dump`, so that cells
        running at once in the pool still dump in cell order."""
        if self.dump is None:
            return None
        buffer = self.dump_buffers.setdefault(cell_index, [])
        return lambda name, lo, values: buffer.append((name, lo, values))

    def flush_dump(self, cell_index: int) -> None:
        for entry in self.dump_buffers.pop(cell_index, ()):
            self.dump(cell_index, *entry)

    def shared_sample(self, n: int, d: int) -> SampleSet:
        key = (n, d)
        if key not in self.shared_cache:
            self.shared_cache[key] = sample_gaussian(
                n, d, np.zeros(d), self.root.substream(0).substream(0)
            )
        return self.shared_cache[key]


def _exec_fig1(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    n, alpha = cell["n"], cell["alpha"]
    sample = ctx.shared_sample(n, cell["d"])
    stream = ctx.cell_stream(ci)
    pair = split(sample, 0.5, stream.substream(1))
    splits = subsample_splits(sample, cell["B"], 0.5, stream.substream(2))
    crossfit, subsampling = rg.boundaries_2d(sample, pair, alpha, cell["rays"], cell["tol"], splits)
    base = {k: cell[k] for k in ("replicate", "n", "d", "alpha", "B")}
    return [
        SummaryRow(ctx.spec.experiment_id, dict(base, kind=kind), float(area), 0.0, 1)
        for kind, area in (
            ("classical", math.pi * rg.classical_region(sample, alpha).sq_radius),
            ("split", math.pi * rg.split_region(pair, n, alpha).sq_radius),
            ("crossfit", crossfit.polygon_area()),
            ("subsampling", subsampling.polygon_area()),
        )
    ]


def _exec_fig2(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    n, d, B, points = cell["n"], cell["d"], cell["B"], cell["grid_points"]
    stream = ctx.cell_stream(ci)
    sample = sample_gaussian(n, d, np.zeros(d), stream.substream(0))
    k = part_size(n, 0.5)
    cbar = float(sample.mean.mean())
    offsets = np.linspace(-1.0, 1.0, points) * 2.0 / math.sqrt(n * d)
    cs = cbar + offsets
    thetas = cs[:, None] * np.ones(d)[None, :]
    dist = sq_norm(thetas, sample.mean)
    scaled_dist = np.sqrt(n * dist)
    analytic = np.exp((0.3 * n) * dist) * 0.4 ** (d / 2.0)

    chunk = int(np.clip(2**27 // (16 * n), 256, 8192))
    parent = stream.substream(1)

    def run_chunk(lo: int, hi: int) -> dict:
        keys = parent.substream_keys(lo, hi)
        mean0, mean1 = split_means(sample.values[None], keys[None], k)
        # one (points, chunk) call: no (points, chunk, d) temporary on either kernel path
        values = rg.split_log_values(thetas, mean0[0], mean1[0], k)
        np.exp(values, out=values)
        return {f"t{g}": values[g] for g in range(points)}

    acc = _map_chunks(B, chunk, run_chunk, ctx.workers, ctx.cell_dump(ci))
    rows = []
    base = {k_: cell[k_] for k_ in ("d", "n", "B")}
    for g in range(points):
        a = acc[f"t{g}"]
        rows.append(
            SummaryRow(
                ctx.spec.experiment_id,
                dict(base, c=float(cs[g]), scaled_dist=float(scaled_dist[g]), analytic=float(analytic[g])),
                a.mean, a.se_mean(), a.count,
            )
        )
    return rows


def _exec_fig3(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    n, d, alpha, p0, reps = cell["n"], cell["d"], cell["alpha"], cell["p0"], cell["reps"]
    k = part_size(n, p0)

    def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict:
        return {"sq_radius": rg.split_sq_radius(mean0[:, 0], mean1[:, 0], k, alpha)}

    a = _replicate(ctx.cell_stream(ci), reps, n, k, np.zeros(d), 1, reduce, ctx.workers, ctx.cell_dump(ci))["sq_radius"]
    analytic = rg.expected_sq_radius_split(alpha, d, n, k / n)
    return [
        SummaryRow(
            ctx.spec.experiment_id,
            dict(cell, m0=k, analytic=analytic),
            a.mean, a.se_mean(), a.count,
        )
    ]


def _exec_fig4(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    d, x = cell["d"], cell["x"]
    try:
        L = 10.0**x
    except OverflowError:
        raise DomainError(f"ln(1/alpha) = 10**{x} overflows a double") from None
    bounds = rg.ratio_bounds_log(L, d)
    rows = [
        SummaryRow(ctx.spec.experiment_id, dict(cell, log_inv_alpha=L, quantity="lower"), bounds.lower, 0.0, 0),
        SummaryRow(ctx.spec.experiment_id, dict(cell, log_inv_alpha=L, quantity="upper"), bounds.upper, 0.0, 0),
    ]
    if L <= specfun.MAX_LOG_INV_ALPHA:
        expected = rg.ratio_expected_split_vs_classical(math.exp(-L), d)
        rows.append(
            SummaryRow(ctx.spec.experiment_id, dict(cell, log_inv_alpha=L, quantity="expected"), expected, 0.0, 0)
        )
    return rows


def _exec_fig5(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    n, d, alpha, reps = cell["n"], cell["d"], cell["alpha"], cell["reps"]
    k = part_size(n, 0.5)
    quantile = specfun.chi2_upper_quantile(alpha, d)

    def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict:
        ratio = rg.split_sq_radius(mean0[:, 0], mean1[:, 0], k, alpha) / (quantile / n)
        return {"leq4": (ratio <= 4.0).astype(np.float64)}

    a = _replicate(ctx.cell_stream(ci), reps, n, k, np.zeros(d), 1, reduce, ctx.workers, ctx.cell_dump(ci))["leq4"]
    lower, upper, cond = rg.prob_ratio_leq4_bounds(alpha, d)
    return [
        SummaryRow(
            ctx.spec.experiment_id,
            dict(cell, lower=lower, upper=upper, condition_ok=cond),
            a.mean, a.se_proportion(), a.count,
        )
    ]


def _exec_fig6(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    test, method, d, n, alpha = cell["test"], cell["method"], cell["d"], cell["n"], cell["alpha"]
    lam = cell["n_theta_sq"]
    theta_sq = lam / n
    base = dict(cell, theta_sq_norm=theta_sq)
    if test in ("classical", "subsampling_limit"):
        fn = pw.power_classical if test == "classical" else pw.power_limiting_subsampling
        est = fn(theta_sq, n, d, alpha, method=method)
        return [SummaryRow(ctx.spec.experiment_id, base, est.value, est.stderr, 0)]
    if method != "mc":
        raise DomainError(f"power_fig6 test {test!r} has no method {method!r}")
    theta = math.sqrt(theta_sq / d) * np.ones(d)
    est = pw.mc_power(
        test, theta, n, alpha, B=cell["B"], reps=cell["reps"],
        rng=ctx.cell_stream(ci), workers=ctx.workers, dump=ctx.cell_dump(ci),
    )
    return [SummaryRow(ctx.spec.experiment_id, base, est.value, est.stderr, cell["reps"])]


#: The Monte Carlo annulus tests that draw B > 1 splits.
_SUBSAMPLED = ("subsampled_split", "subsampled_hybrid")


def _draw_groups(grid, method: Callable[[dict], str | None]) -> list[tuple[int, ...]]:
    """The draw groups of an annulus grid, each in cell order: the B > 1
    subsampled cells (``method(cell)`` names a cell's test) whose keys
    other than ``method`` and ``theta_norm`` are all equal, where there are
    two or more of them."""
    groups: dict[str, list[int]] = {}
    for ci, cell in enumerate(grid):
        if method(cell) in _SUBSAMPLED and cell["B"] > 1:
            key = repr(sorted((k, v) for k, v in cell.items() if k not in ("method", "theta_norm")))
            groups.setdefault(key, []).append(ci)
    return [tuple(group) for group in groups.values() if len(group) > 1]


def _exec_group(ctx: _RunContext, cis: tuple[int, ...]) -> dict[int, list[SummaryRow]]:
    """The rows of the Monte Carlo annulus cells ``cis``, a draw group or a
    single cell, all decided on one draw at theta = 0 from the stream of the
    first cell (common random numbers).  The split subsets do not depend on
    the data, so the split means at theta are those at 0 plus theta in law:
    each cell in turn adds its own ``theta_norm * e_1`` to a chunk's ``(C,
    B, d)`` means and folds its own accumulators.  A cell whose test raises
    a ``NumericError`` or ``DomainError`` gets its error row and the others
    keep theirs."""
    grid, annulus = ctx.spec.grid, PRESETS[ctx.spec.experiment_id].annulus
    n, d, reps = grid[cis[0]]["n"], grid[cis[0]]["d"], grid[cis[0]]["reps"]
    k = part_size(n, 0.5)
    tests, failed = {}, {}
    for ci in cis:
        cell, method = grid[ci], annulus.method(grid[ci])
        try:
            if method is None:
                raise DomainError(f"{ctx.spec.experiment_id} has no method {cell['method']!r}")
            if not math.isfinite(cell["theta_norm"]):
                raise DomainError("theta must be finite")
            tests[ci] = (dn.mc_reducer(method, n, k, d, cell["alpha"], dn.AnnulusNull()),
                         cell["theta_norm"])
            B = cell["B"] if method in _SUBSAMPLED else 1
        except (NumericError, DomainError) as exc:
            failed[ci] = exc

    def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict:
        # theta moves the first coordinate only: each cell rewrites that
        # column in place from a copy, so no (C, B, d) temporary is made, and
        # the other columns, drawn at 0 (never -0.0), are what adding 0 gives
        first0, first1 = mean0[..., 0].copy(), mean1[..., 0].copy()
        out = {}
        for ci, (one, theta_norm) in tests.items():
            if ci in failed:
                continue
            np.add(first0, theta_norm, out=mean0[..., 0])
            np.add(first1, theta_norm, out=mean1[..., 0])
            try:
                values = one(mean0, mean1)
            except (NumericError, DomainError) as exc:
                failed.setdefault(ci, exc)
                continue
            out.update({(ci, name): v for name, v in values.items()})
        return out

    dumps = {ci: ctx.cell_dump(ci) for ci in tests}
    dump = None if ctx.dump is None else lambda key, lo, values: dumps[key[0]](key[1], lo, values)
    acc = _replicate(ctx.cell_stream(cis[0]), reps, n, k, np.zeros(d), B, reduce, ctx.workers,
                     dump) if tests else {}
    return {
        ci: [_error_row(ctx.spec.experiment_id, grid[ci], failed[ci])] if ci in failed
        else annulus.rows(ctx, dict(grid[ci]), {name: a for (c, name), a in acc.items() if c == ci})
        for ci in cis
    }


def _exec_annulus(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    """A fig7, S3 or S4 cell run alone: the exact intersection power, or a
    Monte Carlo test as a draw group of one."""
    if PRESETS[ctx.spec.experiment_id].annulus.method(cell) == "intersection_exact":
        value = dn.intersection_power_exact(cell["theta_norm"], cell["n"], cell["d"], cell["alpha"])
        return [SummaryRow(ctx.spec.experiment_id, dict(cell), value, 0.0, 0)]
    return _exec_group(ctx, (ci,))[ci]


def _power_row(ctx: _RunContext, cell: dict, acc: dict) -> list[SummaryRow]:
    """The one row of a fig7 or S3 Monte Carlo cell: the rejection rate,
    with any case fractions its test reports as columns."""
    a = acc.pop("reject")
    extra = {name: b.mean for name, b in acc.items()}
    return [SummaryRow(ctx.spec.experiment_id, dict(cell, **extra), a.mean, a.se_proportion(), a.count)]


def _figS4_rows(ctx: _RunContext, cell: dict, acc: dict) -> list[SummaryRow]:
    """S4's rows of a cell: the power, then each case fraction."""
    a = acc.pop("reject")
    rows = [SummaryRow(ctx.spec.experiment_id, dict(cell, quantity="power"), a.mean, a.se_proportion(), a.count)]
    for name, b in acc.items():
        rows.append(SummaryRow(ctx.spec.experiment_id, dict(cell, quantity=name), b.mean, b.se_mean(), b.count))
    return rows


def _exec_figS2(ctx: _RunContext, ci: int, cell: dict) -> list[SummaryRow]:
    n, d, alpha, p0 = cell["n"], cell["d"], cell["alpha"], cell["p0"]
    sample = ctx.shared_sample(n, d)
    stream = ctx.cell_stream(ci)
    pair = split(sample, p0, stream.substream(1))
    boundary, _ = rg.boundaries_2d(sample, pair, alpha, cell["rays"], cell["tol"])
    pts = boundary.points
    diameter = 0.0
    if pts.shape[0] >= 2:
        diameter = float(np.sqrt(sq_norm(pts[:, None, :], pts[None, :, :])).max())
    return [
        SummaryRow(ctx.spec.experiment_id, dict(cell, quantity="area"), boundary.polygon_area(), 0.0, 1),
        SummaryRow(ctx.spec.experiment_id, dict(cell, quantity="diameter"), diameter, 0.0, 1),
    ]


#: S3's methods are fig7's intersection rows under shorter names.
_FIGS3_METHODS = {"exact": "intersection_exact", "mc": "intersection"}


@dataclass(frozen=True)
class _Annulus:
    """How a preset's cells run the annulus tests: ``method(cell)`` names a
    cell's test (``None`` for an unknown one), and ``rows(ctx, cell, acc)``
    shapes a Monte Carlo cell's rows from its accumulators."""

    method: Callable[[dict], str | None]
    rows: Callable[[_RunContext, dict, dict], list[SummaryRow]]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A figure-data preset: its CLI figure id, the functions that build its
    grid and run one of its cells, and the default axes that
    :func:`build_spec` overrides."""

    figure: str
    build_grid: Callable[[dict], list[dict]]
    execute: Callable[[_RunContext, int, dict], list[SummaryRow]]
    axes: dict
    #: Its cells draw B > 1 split batches, so :func:`run` overlaps them in
    #: the shared pool; the cells of every other preset run on the caller.
    split_batches: bool = False
    #: Its cells run the annulus tests; :func:`run` runs each draw group
    #: (:func:`_draw_groups`) as one task, :func:`_exec_group`.
    annulus: _Annulus | None = None


PRESETS = {
    "regions_fig1": Preset("1", _grid_fig1, _exec_fig1, dict(
        n=1000, d=2, alpha=0.1, B=100, replicates=6, rays=180, tol=1e-5,
    )),
    "approx_fig2": Preset("2", _grid_fig2, _exec_fig2, dict(
        ds=(1, 20), ns=(1000, 10), B=20000, grid_points=21,
    ), split_batches=True),
    "split_p0_fig3": Preset("3", _grid_fig3, _exec_fig3, dict(
        ds=(1, 10, 100), n=1000, alpha=0.1, reps=1000, p0s=None,
    )),
    "ratio_bounds_fig4": Preset("4", _grid_fig4, _exec_fig4, dict(
        ds=(10, 100000), xs=tuple(x / 2.0 for x in range(0, 17)),
    )),
    "ratio_prob_fig5": Preset("5", _grid_fig5, _exec_fig5, dict(
        ds=(2, 10, 100), n=1000, alpha=0.1, reps=10000,
    )),
    "power_fig6": Preset("6", _grid_fig6, _exec_fig6, dict(
        ds=(1, 2), n=1000, alpha=0.1, reps=1000, B=100,
        lambdas=(0.0, 2.0, 4.0, 8.0, 15.0, 25.0, 40.0, 60.0),
    )),
    "doughnut_fig7": Preset("7", _grid_fig7, _exec_annulus, dict(
        ds=(2, 10), n=1000, alpha=0.1, B=100, reps=500,
        theta_norms=(0.0, 0.25, 0.45, 0.5, 0.75, 1.0, 1.1, 1.25, 1.5),
    ), split_batches=True, annulus=_Annulus(
        lambda cell: cell["method"] if cell["method"] in _FIG7_METHODS else None, _power_row,
    )),
    "crossfit_p0_figS2": Preset("S2", _grid_figS2, _exec_figS2, dict(
        n=1000, d=2, alpha=0.1, p0s=(0.1, 0.3, 0.5, 0.7, 0.9), rays=180, tol=1e-5,
    )),
    "intersect_power_figS3": Preset("S3", _grid_figS3, _exec_annulus, dict(
        ds=(2, 10), n=1000, alpha=0.1, reps=1000,
        theta_norms=(0.0, 0.15, 0.3, 0.45, 1.05, 1.2, 1.35, 1.5),
    ), annulus=_Annulus(lambda cell: _FIGS3_METHODS.get(cell["method"]), _power_row)),
    "hybrid_cases_figS4": Preset("S4", _grid_figS4, _exec_annulus, dict(
        ds=(2, 10, 100), n=1000, alpha=0.1, B=100, reps=200,
        theta_norms=(0.0, 0.25, 0.45, 0.75, 1.1, 1.3, 1.5),
    ), split_batches=True, annulus=_Annulus(lambda cell: "subsampled_hybrid", _figS4_rows)),
}

EXPERIMENT_IDS = tuple(PRESETS)

#: CLI figure ids to experiment ids.
FIGURE_ALIASES = {preset.figure: experiment_id for experiment_id, preset in PRESETS.items()}

#: The cell executors; :func:`run` looks each one up here at call time.
_EXECUTORS = {experiment_id: preset.execute for experiment_id, preset in PRESETS.items()}


def run(
    spec: ExperimentSpec,
    workers: int | None = None,
    dump: Callable[[int, str, int, np.ndarray], None] | None = None,
) -> list[SummaryRow]:
    """Execute every grid cell; a ``NumericError`` or ``DomainError`` inside
    one cell yields a diagnostic row for that cell instead of aborting the
    run (a malformed cell never gets here: the spec refuses it).  ``dump(cell,
    name, rep, values)`` gets each chunk's values from replication ``rep`` on.
    The cells of a ``split_batches`` preset overlap in the shared pool."""
    ctx = _RunContext(spec, RngStream(spec.master_seed), workers, dump)
    executor = _EXECUTORS[spec.experiment_id]
    preset = PRESETS[spec.experiment_id]

    def cell_rows(ci: int) -> dict[int, list[SummaryRow]]:
        cell = spec.grid[ci]
        try:
            return {ci: executor(ctx, ci, dict(cell))}
        except (NumericError, DomainError) as exc:
            return {ci: [_error_row(spec.experiment_id, cell, exc)]}

    groups = _draw_groups(spec.grid, preset.annulus.method) if preset.annulus else ()
    grouped = {ci: group for group in groups for ci in group}
    tasks = [
        partial(_exec_group, ctx, grouped[ci]) if ci in grouped else partial(cell_rows, ci)
        for ci in range(len(spec.grid))
        if grouped.get(ci, (ci,))[0] == ci
    ]
    pooled = workers if preset.split_batches else None
    rows: list[SummaryRow] = []
    ready: dict[int, list[SummaryRow]] = {}
    emitted = 0
    for result in _ordered(tasks, pooled):
        # tasks go in the order of their first cells, so every cell before
        # a task's first cell is ready once the task is
        ready.update(result)
        while emitted in ready:
            rows.extend(ready.pop(emitted))
            ctx.flush_dump(emitted)
            emitted += 1
    return rows


def _error_row(experiment_id: str, cell: dict, exc: Exception) -> SummaryRow:
    """The diagnostic row of a cell that raised ``exc``."""
    return SummaryRow(experiment_id, dict(cell), math.nan, math.nan, 0,
                      status=f"error:{type(exc).__name__}")


def coverage_suite(
    d_list,
    n: int,
    alpha: float,
    reps: int,
    B: int,
    rng: RngStream,
    workers: int | None = None,
) -> list[SummaryRow]:
    """Empirical coverage of the true mean for all four set constructions.

    One row per (method, d); the universal sets must cover with probability
    at least ``1 - alpha`` while the classical sphere is exact.
    """
    thresh = rg.log_threshold(alpha)
    k = part_size(n, 0.5)
    rows = []
    methods = ("classical", "split", "crossfit", "subsampling")
    for ci, (method, d) in enumerate((m, d) for d in d_list for m in methods):
        quantile = specfun.chi2_upper_quantile(alpha, d)
        b_eff = B if method == "subsampling" else 1
        theta = np.zeros(d)

        def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict:
            if method == "classical":
                overall = (k * mean0[:, 0] + (n - k) * mean1[:, 0]) / n
                covered = n * sq_norm(overall) <= quantile
            else:
                covered = rg.log_values(method, theta, mean0, mean1, k, n - k) < thresh
            return {"covered": covered.astype(np.float64)}

        a = _replicate(rng.substream(ci), reps, n, k, theta, b_eff, reduce, workers)["covered"]
        rows.append(
            SummaryRow(
                "coverage", dict(method=method, d=d, n=n, alpha=alpha, B=b_eff),
                a.mean, a.se_proportion(), a.count,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CSV and spec files
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[SummaryRow], path) -> None:
    """Write SummaryRows with a header; column order is first-seen cell keys
    followed by the estimate block, deterministic for a given spec.  Fields
    are formatted and quoted by :func:`ulrt.data._write_csv`."""
    if not rows:
        raise DomainError("no rows to write")
    cell_cols: list[str] = []
    for row in rows:
        for key in row.cell:
            if key not in cell_cols:
                cell_cols.append(key)
    columns = ["experiment"] + cell_cols + ["estimate", "stderr", "reps_used", "status"]
    _write_csv(path, columns, (
        [row.experiment_id, *(row.cell.get(c, "") for c in cell_cols),
         row.estimate, row.stderr, row.reps_used, row.status]
        for row in rows
    ))


def load_spec_file(path) -> tuple[ExperimentSpec, int | None]:
    """Read a JSON spec document: experiment_id, seed, optional workers and
    axis overrides, or an explicit grid."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object")
    for key in ("experiment_id", "seed"):
        if key not in doc:
            raise DomainError(f"{path}: missing required key {key!r}")
    experiment_id, seed, workers = doc["experiment_id"], doc["seed"], doc.get("workers")
    if not _is_integer(seed):
        raise DomainError(f"{path}: seed must be an integer, got {seed!r}")
    if workers is not None:
        workers = _check_workers(workers, f"{path}: workers")
    if "grid" in doc:
        grid = doc["grid"]
        if not isinstance(grid, list) or not all(isinstance(c, dict) for c in grid):
            raise DomainError(f"{path}: grid must be a list of objects")
        spec = ExperimentSpec(experiment_id, tuple(grid), seed)
    else:
        overrides = doc.get("overrides", {})
        if not isinstance(overrides, dict):
            raise DomainError(f"{path}: overrides must be an object")
        spec = build_spec(experiment_id, seed, **overrides)
    return spec, workers
