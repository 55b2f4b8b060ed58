"""Command-line surface: region construction, figure-data presets, direct
formula evaluation, and spec-file experiment runs.

All output is CSV (plots are produced by external tooling).  Every command is
reproducible byte for byte from its flags: randomness is controlled solely by
``--seed`` and worker count never changes results.

Exit codes: 0 success, 2 usage or validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import doughnut as dn
from . import engine
from . import power as pw
from . import regions as rg
from . import specfun
from .data import _check_n_d, _write_csv, load_csv, sample_gaussian, split, subsample_splits
from .errors import DomainError, NumericError
from .rng import RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _workers(flag: int | None, file_workers: int | None = None) -> int:
    """``--workers``, else the spec file's count (checked as it is read),
    else ``ULRT_WORKERS``, else the CPU count; each an integer >= 1."""
    if flag is not None:
        return engine._check_workers(flag, "--workers")
    if file_workers is not None:
        return file_workers
    env = os.environ.get("ULRT_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        value = int(env)
    except ValueError:
        value = env
    return engine._check_workers(value, "ULRT_WORKERS")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _fmt12(value: float) -> str:
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# region command
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    alpha = args.alpha
    root = RngStream(args.seed)
    if args.import_path is not None:
        sample = load_csv(args.import_path)
    else:
        _check_n_d(args.n, args.d)
        sample = sample_gaussian(args.n, args.d, np.zeros(args.d), root.substream(0))
    pair = split(sample, args.p0, root.substream(1))
    spheres = [
        rg.classical_region(sample, alpha),
        rg.split_region(pair, alpha),
        rg.limiting_subsampling_region(sample, alpha),
    ]
    # every table is computed before any is written, so a failure writes none
    tables = {"regions.csv": (
        ["kind"] + [f"center_{j + 1}" for j in range(sample.d)] + ["sq_radius"],
        [[sphere.kind, *sphere.center, sphere.sq_radius] for sphere in spheres],
    )}
    if sample.d == 2:
        splits = subsample_splits(sample, args.B, args.p0, root.substream(2))
        boundaries = rg.boundaries_2d(sample, pair, alpha, args.rays, args.tol, splits)
        for kind, b in zip(("crossfit", "subsampling"), boundaries):
            tables[f"boundary_{kind}.csv"] = (["angle", "x", "y"], np.column_stack((b.angles, b.points)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    note = "" if sample.d == 2 else " (boundary polygons need d = 2)"
    print(f"wrote {', '.join(tables)} to {out}{note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------

_FIGURE_OVERRIDE_FLAGS = {
    # flag name -> candidate spec axes, in priority order; a list-valued flag
    # collapses to a scalar when the axis's default is an int, and a scalar
    # flag becomes a list when the default is a tuple
    "d": ("ds", "d"),
    "n": ("ns", "n"),
    "alpha": ("alpha",),
    "B": ("B",),
    "reps": ("reps", "replicates"),
    "p0": ("p0s",),
    "theta_norms": ("theta_norms",),
    "lambdas": ("lambdas",),
}


def cmd_figure(args) -> int:
    figure_id = args.id
    if figure_id not in engine.FIGURE_ALIASES:
        raise DomainError(
            f"unknown figure id {figure_id!r}; known: {', '.join(engine.FIGURE_ALIASES)}"
        )
    experiment_id = engine.FIGURE_ALIASES[figure_id]
    axes = engine.PRESETS[experiment_id].axes
    overrides = {}
    for flag, candidates in _FIGURE_OVERRIDE_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        axis = next((a for a in candidates if a in axes), None)
        if axis is None:
            raise DomainError(f"figure {figure_id} does not take --{flag.replace('_', '-')}")
        if isinstance(axes[axis], int) and isinstance(value, list):
            if len(value) != 1:
                raise DomainError(f"figure {figure_id} takes a single --{flag}")
            value = value[0]
        elif isinstance(axes[axis], tuple) and not isinstance(value, list):
            value = [value]
        overrides[axis] = value
    spec = engine.build_spec(experiment_id, args.seed, **overrides)
    workers = _workers(args.workers)
    out = Path(args.out) if args.out else Path(f"figure_{figure_id}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)  # fail before the run, not after it
    rows = engine.run(spec, workers=workers)
    engine.rows_to_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec, file_workers = engine.load_spec_file(args.spec_file)
    workers = _workers(args.workers, file_workers)
    out = Path(args.out) if args.out else Path(f"experiment_{spec.experiment_id}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    dump = None
    raw_rows: list[tuple] = []
    if args.dump_raw:
        Path(args.dump_raw).parent.mkdir(parents=True, exist_ok=True)

        def dump(cell: int, name: str, lo: int, values: np.ndarray) -> None:
            raw_rows.extend((cell, name, lo + i, v) for i, v in enumerate(values.tolist()))
    rows = engine.run(spec, workers=workers, dump=dump)
    engine.rows_to_csv(rows, out)
    if args.dump_raw:
        _write_csv(args.dump_raw, ["cell", "quantity", "rep", "value"], raw_rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# formula command
# ---------------------------------------------------------------------------


def _log_inv_alpha(args) -> float:
    """ln(1/alpha); --log-inv-alpha wins over --alpha when given."""
    if args.log_inv_alpha is not None:
        if args.log_inv_alpha <= 0:
            raise DomainError("--log-inv-alpha must be positive")
        return args.log_inv_alpha
    return rg.log_threshold(args.alpha)


def _formula_p0star(args):
    return {"p0star": rg.optimal_split_proportion(args.alpha, args.d)}


def _formula_split_sq_radius(args):
    return {
        "expected_sq_radius": rg.expected_sq_radius_split(args.alpha, args.d, args.n, args.p0)
    }


def _formula_ratio(args):
    return {"ratio": rg.ratio_expected_split_vs_classical(args.alpha, args.d)}


def _formula_ratio_bounds(args):
    bounds = rg.ratio_bounds_log(_log_inv_alpha(args), args.d)
    return {"lower": bounds.lower, "upper": bounds.upper, "domain_ok": bounds.domain_ok}


def _formula_prob_bounds(args):
    bounds = rg.prob_ratio_leq4_bounds(args.alpha, args.d)
    return {"lower": bounds.lower, "upper": bounds.upper, "condition_ok": bounds.condition_ok}


def _formula_chi2_quantile(args):
    return {"quantile": specfun.chi2_upper_quantile(args.alpha, args.d)}


def _formula_noncentral_cdf(args):
    if args.x is None:
        raise DomainError("noncentral-cdf requires --x")
    return {"cdf": specfun.noncentral_chi2_cdf(args.x, args.d, args.noncentrality)}


def _formula_power_classical(args):
    est = pw.power_classical(args.theta_sq_norm, args.n, args.d, args.alpha, method=args.method)
    return {"power": est.value, "method": est.method}


def _formula_power_subsampling(args):
    est = pw.power_limiting_subsampling(
        args.theta_sq_norm, args.n, args.d, args.alpha, method=args.method
    )
    return {"power": est.value, "method": est.method}


def _formula_intersect_power(args):
    return {
        "power": dn.intersection_power_exact(args.theta_norm, args.n, args.d, args.alpha)
    }


def _formula_limiting_sq_radius(args):
    return {"limiting_sq_radius": rg.limiting_sq_radius(args.alpha, args.d, args.n)}


_FORMULAS = {
    "p0star": (_formula_p0star, "optimal split proportion (needs --alpha --d)"),
    "split-sq-radius": (_formula_split_sq_radius, "expected squared split radius (--alpha --d --n --p0)"),
    "ratio": (_formula_ratio, "expected split/classical squared-radius ratio (--alpha --d)"),
    "ratio-bounds": (_formula_ratio_bounds, "bounds for the ratio (--alpha or --log-inv-alpha, --d)"),
    "prob-leq4-bounds": (_formula_prob_bounds, "bounds on P(ratio <= 4) (--alpha --d)"),
    "chi2-quantile": (_formula_chi2_quantile, "upper chi-squared quantile (--alpha --d)"),
    "noncentral-cdf": (_formula_noncentral_cdf, "noncentral chi-squared CDF (--x --d --noncentrality)"),
    "power-classical": (_formula_power_classical, "classical power (--theta-sq-norm --n --d --alpha [--method])"),
    "power-subsampling": (_formula_power_subsampling, "limiting subsampling power (--theta-sq-norm --n --d --alpha [--method])"),
    "intersect-power": (_formula_intersect_power, "exact annulus intersection power (--theta-norm --n --d --alpha)"),
    "limiting-sq-radius": (_formula_limiting_sq_radius, "limiting subsampling squared radius (--alpha --d --n)"),
}


def cmd_formula(args) -> int:
    if args.name not in _FORMULAS:
        listing = "\n".join(f"  {name}: {doc}" for name, (_, doc) in _FORMULAS.items())
        print(f"unknown formula {args.name!r}; registry:\n{listing}", file=sys.stderr)
        return EXIT_USAGE
    fn, _ = _FORMULAS[args.name]
    result = fn(args)
    if args.json:
        # JSON has no NaN or infinity: a non-finite float is written as null
        print(json.dumps({
            k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in result.items()
        }))
    else:
        for key, value in result.items():
            print(f"{key} = {_fmt12(value) if isinstance(value, float) else value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulrt",
        description="Universal likelihood-ratio confidence sets and tests for the Gaussian mean",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="construct confidence regions for one dataset")
    region.add_argument("--n", type=int, default=1000)
    region.add_argument("--d", type=int, default=2)
    region.add_argument("--alpha", type=float, default=0.1)
    region.add_argument("--seed", type=int, default=0)
    region.add_argument("--p0", type=float, default=0.5)
    region.add_argument("--B", type=int, default=100)
    region.add_argument("--rays", type=int, default=180)
    region.add_argument("--tol", type=float, default=1e-6)
    region.add_argument("--import", dest="import_path", default=None, metavar="CSV")
    region.add_argument("--out", default="regions_out")
    region.set_defaults(fn=cmd_region)

    figure = sub.add_parser("figure", help="run a figure-data preset and write its CSV")
    figure.add_argument("id", help="1..7, S2, S3, or S4")
    figure.add_argument("--d", type=_int_list, default=None, help="comma-separated dimensions")
    figure.add_argument("--n", type=int, default=None)
    figure.add_argument("--alpha", type=float, default=None)
    figure.add_argument("--B", type=int, default=None)
    figure.add_argument("--reps", type=int, default=None)
    figure.add_argument("--p0", type=_float_list, default=None, help="comma-separated proportions")
    figure.add_argument("--theta-norms", dest="theta_norms", type=_float_list, default=None)
    figure.add_argument("--lambdas", type=_float_list, default=None, help="n*|theta|^2 grid")
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--workers", type=int, default=None)
    figure.add_argument("--out", default=None)
    figure.set_defaults(fn=cmd_figure)

    formula = sub.add_parser("formula", help="evaluate a closed form")
    formula.add_argument("name")
    formula.add_argument("--alpha", type=float, default=0.1)
    formula.add_argument("--log-inv-alpha", dest="log_inv_alpha", type=float, default=None)
    formula.add_argument("--d", type=int, default=2)
    formula.add_argument("--n", type=int, default=1000)
    formula.add_argument("--p0", type=float, default=0.5)
    formula.add_argument("--x", type=float, default=None)
    formula.add_argument("--noncentrality", type=float, default=0.0)
    formula.add_argument("--theta-norm", dest="theta_norm", type=float, default=0.0)
    formula.add_argument("--theta-sq-norm", dest="theta_sq_norm", type=float, default=0.0)
    formula.add_argument("--method", choices=("exact", "approx"), default="exact")
    formula.add_argument("--json", action="store_true")
    formula.set_defaults(fn=cmd_formula)

    experiment = sub.add_parser("experiment", help="run an experiment described by a spec file")
    experiment.add_argument("--spec-file", required=True)
    experiment.add_argument("--workers", type=int, default=None)
    experiment.add_argument("--out", default=None)
    experiment.add_argument("--dump-raw", dest="dump_raw", default=None, metavar="CSV")
    experiment.set_defaults(fn=cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it costs
    about as much as a ``formula`` call, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
