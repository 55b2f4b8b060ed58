"""Command-line behavior: artifacts, reproducibility, exit codes."""

import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from ulrt import engine
from ulrt.cli import main
from ulrt.engine import load_spec_file
from ulrt.errors import DomainError


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ulrt.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# ---------------------------------------------------------------------------
# region command
# ---------------------------------------------------------------------------


def test_region_artifacts_and_area_ordering(tmp_path):
    out = tmp_path / "regions"
    code = main(
        ["region", "--n", "1000", "--d", "2", "--alpha", "0.1", "--seed", "7",
         "--rays", "90", "--out", str(out)]
    )
    assert code == 0
    spheres = {row["kind"]: row for row in csv.DictReader(open(out / "regions.csv"))}
    assert set(spheres) == {"classical", "split", "limiting_subsampling"}
    split_area = math.pi * float(spheres["split"]["sq_radius"])
    points = np.array(
        [[float(r["x"]), float(r["y"])] for r in csv.DictReader(open(out / "boundary_subsampling.csv"))]
    )
    x, y = points[:, 0], points[:, 1]
    sub_area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert sub_area <= split_area
    assert (out / "boundary_crossfit.csv").exists()


def test_region_import_path(tmp_path):
    from ulrt import data
    from ulrt.rng import RngStream

    sample = data.sample_gaussian(200, 2, [0.3, -0.2], RngStream(88))
    source = tmp_path / "data.csv"
    data.save_csv(sample, source)
    out = tmp_path / "imported"
    code = main(["region", "--import", str(source), "--alpha", "0.1", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out / "regions.csv")))
    classical = next(r for r in rows if r["kind"] == "classical")
    assert float(classical["center_1"]) == pytest.approx(float(sample.mean[0]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("y1,y2\n0.5,1.0\n3.0,abc\n", "line 3: could not convert string to float: 'abc'"),
        ("y1,y2\n0.5,1.0\n2.0\n", "line 3: 1 fields under a header of 2"),
    ],
    ids=["not-a-number", "short-row"],
)
def test_region_import_malformed_csv_exits_2_naming_the_line(tmp_path, text, message):
    source = tmp_path / "data.csv"
    source.write_text(text)
    out = tmp_path / "imported"
    proc = run_cli(["region", "--import", str(source), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert f"{source} {message}" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_region_without_subsampling_splits_exits_2(tmp_path):
    out = tmp_path / "regions"
    proc = run_cli(["region", "--B", "0", "--rays", "12", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "error: subsampling needs at least one split, B >= 1, got B=0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "boundary_subsampling.csv").exists()


def test_failing_region_adds_no_file_to_out(tmp_path, capsys):
    out = tmp_path / "regions"
    out.mkdir()
    (out / "keep.txt").write_text("earlier output\n")
    assert main(["region", "--B", "0", "--rays", "12", "--out", str(out)]) == 2
    assert "B >= 1" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]


def test_region_files_end_lines_with_newline_only(tmp_path):
    assert main(["region", "--rays", "12", "--B", "5", "--out", str(tmp_path)]) == 0
    for name in ("regions.csv", "boundary_crossfit.csv", "boundary_subsampling.csv"):
        raw = (tmp_path / name).read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw, name


def test_region_invalid_alpha_exits_2_without_output(tmp_path):
    out = tmp_path / "never"
    code = main(["region", "--alpha", "1.5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------


def test_figure_4_pure_formula(tmp_path):
    out = tmp_path / "fig4.csv"
    code = main(["figure", "4", "--d", "10", "--out", str(out), "--workers", "1"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["quantity"] for r in rows} <= {"lower", "upper", "expected"}
    # expected rows are absent above the double-precision level limit
    xs_with_expected = {r["x"] for r in rows if r["quantity"] == "expected"}
    assert all(10.0 ** float(x) <= 700.0 for x in xs_with_expected)


def test_figure_2_columns(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(
        ["figure", "2", "--d", "1", "--n", "1000", "--B", "1000",
         "--seed", "4", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert {"c", "analytic", "estimate", "stderr"} <= set(rows[0])
    assert len(rows) == 21


def test_figure_7_power_columns(tmp_path):
    out = tmp_path / "fig7.csv"
    code = main(
        ["figure", "7", "--d", "2", "--theta-norms", "1.4", "--reps", "60",
         "--B", "20", "--seed", "5", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    methods = {r["method"] for r in rows}
    assert methods == {"intersection", "intersection_exact", "subsampled_split", "subsampled_hybrid"}
    hybrid = next(r for r in rows if r["method"] == "subsampled_hybrid")
    assert hybrid["frac_ripr_case"] != ""


def test_figure_unknown_id_exits_2(tmp_path):
    assert main(["figure", "99", "--out", str(tmp_path / "x.csv")]) == 2


def test_figure_reproducible_across_workers(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["figure", "5", "--d", "2", "--reps", "400", "--seed", "12"]
    assert main([*base, "--workers", "1", "--out", str(out1)]) == 0
    assert main([*base, "--workers", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["1", "--d", "2"], {"d": {"2"}}),
        (["1", "--d", "2,3"], "takes a single --d"),
        (["2", "--n", "50"], {"n": {"50"}}),
        (["4", "--reps", "5"], "does not take --reps"),
        (["3", "--d", "2", "--reps", "0"], "needs reps >= 1"),
        (["7", "--d", "2", "--reps", "5", "--B", "0"], "needs B >= 1"),
        (["2", "--n", "0"], "needs n >= 1"),
        (["6", "--d", "1", "--reps", "5", "--B", "7"], "does not take --B"),
    ],
    ids=["fig1-single-d", "fig1-two-d", "fig2-n", "fig4-reps", "fig3-reps-0", "fig7-B-0",
         "fig2-n-0", "fig6-B"],
)
def test_figure_flags_map_to_preset_axes(tmp_path, capsys, argv, expected):
    out = tmp_path / "fig.csv"
    code = main(["figure", *argv, "--workers", "1", "--out", str(out)])
    if isinstance(expected, str):
        assert code == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        for column, values in expected.items():
            assert {r[column] for r in rows} == values


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["7", "--n", "1"], "n = 1 observations cannot be split"),
        (["2", "--n", "1"], "approx_fig2 grid cell 0: n = 1 observations cannot be split"),
        (["3", "--n", "1"], "n = 1 observations cannot be split"),
        (["5", "--n", "1"], "n = 1 observations cannot be split"),
        (["3", "--n", "10", "--p0", "0.99"], "split p0=0.99 leaves an empty part for n=10"),
        (["3", "--p0", "1.5"], "p0 must lie in (0, 1)"),
        (["S2", "--p0", "0.5,0.0001"], "grid cell 1: split p0=0.0001 leaves an empty part"),
    ],
    ids=["fig7-n-1", "fig2-ns-1", "fig3-n-1", "fig5-n-1", "fig3-p0-empty-part", "fig3-p0-above-1",
         "S2-p0-empty-part"],
)
def test_data_that_cannot_be_split_exits_2_before_the_run(tmp_path, capsys, argv, expected):
    """Such a grid used to run to a CSV of ``error:DomainError`` rows and
    exit 0; the spec now refuses it, and no file is written."""
    out = tmp_path / "fig.csv"
    assert main(["figure", *argv, "--workers", "1", "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_spec_file_cell_with_one_observation_exits_2(tmp_path, capsys):
    cell = {"method": "intersection", "d": 2, "n": 1, "alpha": 0.1, "theta_norm": 0.5, "B": 2,
            "reps": 4}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": "doughnut_fig7", "seed": 1, "grid": [cell]}))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == 2
    assert "cannot be split" in capsys.readouterr().err
    assert not out.exists()


#: The presets whose cells have an ``alpha`` axis, with the figure flags that
#: reach a cell: fig3's default ``p0s`` derive from alpha in the grid builder,
#: which refuses a bad one itself, so ``--p0`` takes the check to the cells.
_ALPHA_FIGURES = {
    "regions_fig1": ["1"], "split_p0_fig3": ["3", "--p0", "0.5"], "ratio_prob_fig5": ["5"],
    "power_fig6": ["6"], "doughnut_fig7": ["7"], "crossfit_p0_figS2": ["S2"],
    "intersect_power_figS3": ["S3"], "hybrid_cases_figS4": ["S4"],
}


def test_alpha_figures_are_the_presets_with_an_alpha_axis():
    assert set(_ALPHA_FIGURES) == {eid for eid in engine.EXPERIMENT_IDS
                                   if "alpha" in engine._cell_schema(eid)[0]}


@pytest.mark.parametrize("alpha", ["1.5", "nan", "0", "-0.1"])
@pytest.mark.parametrize("experiment_id", sorted(_ALPHA_FIGURES))
def test_alpha_outside_unit_interval_exits_2_before_the_run(tmp_path, capsys, experiment_id, alpha):
    """Such an alpha used to run every cell to an ``error:DomainError`` row
    and exit 0.  Through ``figure --alpha`` and through a spec-file grid,
    the spec now refuses it with the message of the regions check."""
    out = tmp_path / "fig.csv"
    argv = [*_ALPHA_FIGURES[experiment_id], "--alpha", alpha]
    assert main(["figure", *argv, "--workers", "1", "--out", str(out)]) == 2
    assert f"grid cell 0: alpha must lie in (0, 1), got {float(alpha)}" in capsys.readouterr().err
    cell = dict(engine.build_spec(experiment_id, 1).grid[0], alpha=float(alpha))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": experiment_id, "seed": 1, "grid": [cell]}))
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == 2
    assert "grid cell 0: alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["7", "--theta-norms=-0.5"], "theta_norm must be finite and >= 0, got -0.5"),
        (["S3", "--theta-norms", "nan"], "theta_norm must be finite and >= 0, got nan"),
        (["S4", "--theta-norms", "0.5,inf"], "theta_norm must be finite and >= 0, got inf"),
        (["6", "--lambdas=-1", "--d", "1", "--reps", "10"],
         "n_theta_sq must be finite and >= 0, got -1.0"),
        (["6", "--lambdas", "nan"], "n_theta_sq must be finite and >= 0, got nan"),
        (["S4", "--theta-norms", "1e154", "--d", "2", "--B", "4", "--reps", "4"],
         "grid cell 0: noncentrality n * theta_norm^2 overflows at n=1000, theta_norm=1e+154"),
        (["7", "--theta-norms", "1e200"],
         "grid cell 0: noncentrality n * theta_norm^2 overflows at n=1000, theta_norm=1e+200"),
        (["6", "--d", "2", "--reps", "10", "--lambdas", "1e308"],
         "grid cell 0: noncentrality n * theta_sq_norm overflows at n=1000, theta_sq_norm=1e+305"),
    ],
    ids=["fig7-negative", "S3-nan", "S4-inf", "fig6-negative", "fig6-nan", "S4-overflow",
         "fig7-overflow", "fig6-overflow"],
)
def test_bad_theta_exits_2_before_the_run(tmp_path, capsys, argv, message):
    """A negative or non-finite theta used to run: fig7 at -0.5 wrote ``ok``
    rows for the shift by -0.5 e_1, S3 at NaN wrote only error rows, and
    fig6 at lambda = -1 ended in a ``ValueError`` traceback.  A theta whose
    n * theta^2 overflows wrote ``ok`` power rows of 0.0 where the power is
    1: S4 at 1e154, whose RIPR statistics overflowed to -inf, and fig7's
    subsampled hybrid cell at 1e200.  fig6 at lambda = 1e308 wrote two ``ok``
    approximate power rows of 0.5, since the approximation's variance 2 (d +
    2 lambda) overflowed."""
    out = tmp_path / "fig.csv"
    assert main(["figure", *argv, "--workers", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _largest_theta_norm(n):
    """The largest theta_norm at which ``n * theta_norm^2`` is a finite double."""
    t = math.sqrt(sys.float_info.max / n)
    while n * t * t <= sys.float_info.max:
        t = math.nextafter(t, math.inf)
    while not n * t * t <= sys.float_info.max:
        t = math.nextafter(t, 0.0)
    return t


@pytest.mark.parametrize("n", [2, 1000])
@pytest.mark.parametrize("figure", ["7", "S3", "S4"])
def test_largest_accepted_theta_norm_rejects_in_every_monte_carlo_test(tmp_path, capsys, figure, n):
    """At the largest accepted theta every Monte Carlo power reads 1, with
    no overflow warning; one ulp above, the cell is refused."""
    theta, out = _largest_theta_norm(n), tmp_path / "fig.csv"
    if n == 1000:
        assert f"{theta:.2g}" == "4.2e+152"
    argv = ["figure", figure, "--n", str(n), "--d", "2", "--reps", "4", "--workers", "1", "--out", str(out)]
    argv += [] if figure == "S3" else ["--B", "4"]
    assert main([*argv, "--theta-norms", repr(theta)]) == 0
    powers = [(r["estimate"], r["status"]) for r in csv.DictReader(open(out))
              if r.get("method") not in ("exact", "intersection_exact") and r.get("quantity", "power") == "power"]
    assert powers == [("1.0", "ok")] * (3 if figure == "7" else 1)
    out.unlink()
    assert main([*argv, "--theta-norms", repr(math.nextafter(theta, math.inf))]) == 2
    assert "grid cell 0: noncentrality n * theta_norm^2 overflows" in capsys.readouterr().err
    assert not out.exists()


def test_fig7_cell_whose_test_cannot_be_built_gets_its_error_row(tmp_path):
    """At alpha = 1e-305 the intersection tests need a chi-squared quantile
    at ln(1/alpha) > 700, which is refused, so their cells get error rows;
    the subsampled tests need no quantile and keep their rows."""
    out = tmp_path / "fig7.csv"
    assert main(["figure", "7", "--alpha", "1e-305", "--d", "2", "--B", "4", "--reps", "4",
                 "--theta-norms", "0.5", "--workers", "1", "--out", str(out)]) == 0
    assert {r["method"]: r["status"] for r in csv.DictReader(open(out))} == {
        "intersection": "error:NumericError", "intersection_exact": "error:NumericError",
        "subsampled_split": "ok", "subsampled_hybrid": "ok",
    }


@pytest.mark.parametrize("figure", ["7", "S4"])
def test_odd_n_for_a_subsampled_annulus_test_exits_2(tmp_path, capsys, figure):
    """fig7's subsampled cells and every S4 cell split n in halves; n = 999
    used to run to ``ok`` rows on parts of 500 and 499 points."""
    out = tmp_path / "fig.csv"
    assert main(["figure", figure, "--n", "999", "--workers", "1", "--out", str(out)]) == 2
    assert "require even n, got n = 999" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method, code", [("subsampled_split", 2), ("subsampled_hybrid", 2),
                                          ("intersection", 0), ("intersection_exact", 0)])
def test_spec_file_fig7_cell_at_odd_n(tmp_path, capsys, method, code):
    """A spec-file cell at odd n: refused for the subsampled tests, run for
    the intersection tests, which need no split."""
    cell = {"method": method, "d": 2, "n": 999, "alpha": 0.1, "theta_norm": 0.5, "B": 2,
            "reps": 4}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": "doughnut_fig7", "seed": 1, "grid": [cell]}))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == code
    if code:
        assert "grid cell 0: subsampled annulus tests require even n" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert [row["status"] for row in csv.DictReader(open(out))] == ["ok"]


def test_figure_bad_ulrt_workers_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ULRT_WORKERS", "abc")
    out = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--d", "10", "--out", str(out)]) == 2
    assert "ULRT_WORKERS" in capsys.readouterr().err
    assert not out.exists()


_FIG4_SPEC = {"experiment_id": "ratio_bounds_fig4", "seed": 1, "overrides": {"ds": [10], "xs": [1.0]}}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_worker_count_below_1_on_the_command_line_exits_2(tmp_path, capsys, count):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--d", "10", "--workers", count, "--out", str(out)]) == 2
    assert f"--workers must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_worker_count_below_1_in_ulrt_workers_exits_2(tmp_path, monkeypatch, capsys, count):
    monkeypatch.setenv("ULRT_WORKERS", count)
    out = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--d", "10", "--out", str(out)]) == 2
    assert f"ULRT_WORKERS must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -3])
def test_worker_count_below_1_in_a_spec_file_exits_2(tmp_path, capsys, count):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**_FIG4_SPEC, "workers": count}))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == 2
    assert f"workers must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_output_into_new_nested_directories_is_written(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_FIG4_SPEC))
    figure_out = tmp_path / "a" / "b" / "fig4.csv"
    rows, raw = tmp_path / "c" / "rows.csv", tmp_path / "d" / "e" / "raw.csv"
    assert main(["figure", "4", "--d", "10", "--workers", "1", "--out", str(figure_out)]) == 0
    assert main(["experiment", "--spec-file", str(spec), "--workers", "1", "--out", str(rows),
                 "--dump-raw", str(raw)]) == 0
    assert figure_out.read_text().startswith("experiment,d,")
    assert rows.read_text().startswith("experiment,d,")
    assert raw.read_text().startswith("cell,quantity,rep,value")


def test_output_under_a_regular_file_exits_2_before_the_run(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_FIG4_SPEC))
    for argv in (
        ["figure", "4", "--d", "10", "--out", str(blocker / "fig4.csv")],
        ["experiment", "--spec-file", str(spec), "--out", str(blocker / "rows.csv")],
        ["experiment", "--spec-file", str(spec), "--out", str(tmp_path / "rows.csv"),
         "--dump-raw", str(blocker / "raw.csv")],
    ):
        assert main([*argv, "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "spec.json"]


# ---------------------------------------------------------------------------
# formula command
# ---------------------------------------------------------------------------


def test_formula_p0star_digits(capsys):
    assert main(["formula", "p0star", "--alpha", "0.1", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "p0star = 0.703045922917"


@pytest.mark.parametrize("name", ["p0star", "ratio-bounds"])
def test_formula_alpha_outside_unit_interval_exits_2(capsys, name):
    assert main(["formula", name, "--alpha", "0", "--d", "2"]) == 2
    assert "error: alpha must lie in (0, 1)" in capsys.readouterr().err


def test_formula_json_mode(capsys):
    assert main(["formula", "ratio-bounds", "--alpha", "0.1", "--d", "100000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 3.6 <= payload["lower"] <= 4.0
    # the upper expression overshoots 4 by about 8e-6 at this depth
    assert 3.6 <= payload["upper"] <= 4.0001
    assert payload["domain_ok"] is True


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["ratio-bounds", "--log-inv-alpha", "1", "--d", "100000"], "upper"),
        (["prob-leq4-bounds", "--alpha", "0.9", "--d", "1"], "lower"),
    ],
    ids=["nan", "-inf"],
)
def test_formula_json_writes_non_finite_values_as_null(capsys, argv, key):
    assert main(["formula", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload[key] is None
    assert all(v is None or not isinstance(v, float) or math.isfinite(v) for v in payload.values())
    assert main(["formula", *argv]) == 0
    assert f"{key} = {'nan' if key == 'upper' else '-inf'}" in capsys.readouterr().out


def test_formula_intersect_power_matches_library(capsys):
    from ulrt.doughnut import intersection_power_exact

    assert main(
        ["formula", "intersect-power", "--theta-norm", "1.2", "--n", "1000",
         "--d", "2", "--alpha", "0.1", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["power"] < 1.0
    assert payload["power"] == pytest.approx(intersection_power_exact(1.2, 1000, 2, 0.1))


@pytest.mark.parametrize(
    "argv",
    [
        ["limiting-sq-radius", "--n", "0"],
        ["limiting-sq-radius", "--d", "-5"],
        ["intersect-power", "--n", "-5"],
        ["intersect-power", "--n", "0"],
    ],
    ids=["limiting-n-0", "limiting-d-negative", "intersect-n-negative", "intersect-n-0"],
)
def test_formula_size_below_its_domain_exits_2(capsys, argv):
    assert main(["formula", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: need n >= 2 and d >= 1")


@pytest.mark.parametrize("argv", [
    ["noncentral-cdf", "--x", "2200", "--d", "10", "--noncentrality", "2000"],
    ["chi2-quantile", "--alpha", "1e-6", "--d", "100"],
    ["power-classical", "--theta-sq-norm", "0.01", "--n", "1000", "--d", "10", "--alpha", "0.05"],
], ids=["noncentral-cdf", "chi2-quantile", "power-classical"])
def test_formula_prints_the_same_digits_without_a_compiler(capsys, monkeypatch, tmp_path, argv):
    """The special functions' Python twins, which run on a cold cache with
    no compiler, print what the compiled loops print."""
    from ulrt import _kernels, specfun

    outputs = []
    for compiler in (True, False):
        monkeypatch.setattr(specfun, "_QUANTILES", {})
        if compiler:
            assert main(["formula", *argv]) == 0
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
            monkeypatch.setattr(_kernels, "_find_compiler", lambda: None)
            monkeypatch.setattr(_kernels, "_loaded", [])
            with pytest.warns(RuntimeWarning, match="no C compiler"):
                assert main(["formula", *argv]) == 0
            assert _kernels._loaded == [None]
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and " = " in outputs[0]


def test_formula_split_sq_radius_and_power_subsampling_print_the_library_values(capsys):
    from ulrt.power import power_limiting_subsampling
    from ulrt.regions import expected_sq_radius_split

    assert main(["formula", "split-sq-radius", "--alpha", "0.05", "--d", "3", "--n", "500",
                 "--p0", "0.6"]) == 0
    assert main(["formula", "power-subsampling", "--theta-sq-norm", "0.01", "--n", "1000", "--d", "2",
                 "--method", "approx"]) == 0
    power = power_limiting_subsampling(0.01, 1000, 2, 0.1, method="approx")
    assert capsys.readouterr().out.splitlines() == [
        f"expected_sq_radius = {expected_sq_radius_split(0.05, 3, 500, 0.6):.12g}",
        f"power = {power.value:.12g}",
        "method = normal_approx",
    ]


@pytest.mark.parametrize("argv, message", [
    (["ratio-bounds", "--log-inv-alpha", "0"], "--log-inv-alpha must be positive"),
    (["ratio-bounds", "--log-inv-alpha", "-2"], "--log-inv-alpha must be positive"),
    (["noncentral-cdf", "--d", "2", "--noncentrality", "1"], "noncentral-cdf requires --x"),
], ids=["log-inv-alpha-0", "log-inv-alpha-negative", "noncentral-cdf-no-x"])
def test_formula_flag_missing_or_out_of_range_exits_2(capsys, argv, message):
    assert main(["formula", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_formula_unknown_name_lists_registry(capsys):
    assert main(["formula", "not-a-formula"]) == 2
    err = capsys.readouterr().err
    assert "registry" in err
    assert "p0star" in err


def test_formula_numeric_failure_exits_3(capsys):
    assert main(["formula", "chi2-quantile", "--alpha", "1e-310", "--d", "2"]) == 3


def test_formula_noncentral_cdf_beyond_its_series_exits_3(capsys):
    # 1e12 would take 14 s of recurrence steps; 1e300 is past every exact Poisson index
    for x, lam in (("1", "1e300"), ("1e12", "1e12")):
        argv = ["formula", "noncentral-cdf", "--x", x, "--d", "2", "--noncentrality", lam]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: noncentral chi-squared series needs lambda/2 < 2**30")


def test_formula_noncentral_cdf_with_a_subnormal_noncentrality_prints_the_central_cdf(capsys):
    outputs = []
    for lam in ("5e-324", "0"):
        assert main(["formula", "noncentral-cdf", "--x", "1", "--d", "2", "--noncentrality", lam]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("cdf = ")


@pytest.mark.parametrize("argv, message", [
    (["power-classical", "--theta-sq-norm", "1e308", "--n", "1000"],
     "noncentrality n * theta_sq_norm overflows at n=1000, theta_sq_norm=1e+308"),
    (["power-subsampling", "--theta-sq-norm", "1e308", "--n", "1000", "--method", "approx"],
     "noncentrality n * theta_sq_norm overflows at n=1000, theta_sq_norm=1e+308"),
    # n * theta_sq_norm = 1e308 is finite, but the approximation's variance 2 (d + 2e308) is not
    (["power-classical", "--theta-sq-norm", "1e305", "--n", "1000", "--d", "2", "--method", "approx"],
     "noncentrality n * theta_sq_norm overflows at n=1000, theta_sq_norm=1e+305"),
    (["power-subsampling", "--theta-sq-norm", "1e305", "--n", "1000", "--d", "2", "--method", "approx"],
     "noncentrality n * theta_sq_norm overflows at n=1000, theta_sq_norm=1e+305"),
    (["intersect-power", "--theta-norm", "nan"], "theta_norm must be finite and >= 0, got nan"),
    (["intersect-power", "--theta-norm", "1e200"], "noncentrality must be finite and >= 0, got inf"),
    (["noncentral-cdf", "--x", "1", "--d", "2", "--noncentrality", "nan"],
     "noncentrality must be finite and >= 0, got nan"),
], ids=["power-classical", "power-subsampling-approx", "power-classical-variance",
        "power-subsampling-variance", "intersect-nan", "intersect-overflow", "noncentral-cdf-nan"])
def test_formula_non_finite_noncentrality_exits_2_naming_its_cause(capsys, argv, message):
    """The approximate powers at 1e305 used to print ``power = 0.5`` and exit
    0: the variance overflowed to inf and the z-score read 0."""
    assert main(["formula", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_each_main_call_parses_from_the_defaults(capsys):
    """``main`` reuses one parser; a flag of one call must not reach the next."""
    from ulrt.regions import ratio_expected_split_vs_classical

    assert main(["formula", "ratio", "--d", "5"]) == 0
    assert main(["formula", "ratio"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"ratio = {ratio_expected_split_vs_classical(0.1, d):.12g}" for d in (5, 2)
    ]


# ---------------------------------------------------------------------------
# experiment command
# ---------------------------------------------------------------------------


#: Inputs that used to run to error rows (or, for ``figure 1 --d 3``, failed
#: in the grid builder) and are now refused before any cell runs: a figure
#: call, or a spec-file grid of a good default cell followed by a faulty one.
_REFUSED_INPUTS = {
    "figure-S2-d3": ["figure", "S2", "--d", "3"],
    "figure-1-d3": ["figure", "1", "--d", "3"],
    "fig7-method": ("doughnut_fig7", dict(method="bogus")),
    "S3-method": ("intersect_power_figS3", dict(method="bogus")),
    "fig6-test": ("power_fig6", dict(test="bogus")),
    "fig1-d3": ("regions_fig1", dict(d=3)),
    "S2-rays": ("crossfit_p0_figS2", dict(rays=2)),
    "S2-tol": ("crossfit_p0_figS2", dict(tol=-1.0)),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_INPUTS))
def test_refused_input_exits_2_naming_its_cell_and_writes_no_csv(tmp_path, capsys, case):
    out, refused = tmp_path / "rows.csv", _REFUSED_INPUTS[case]
    if isinstance(refused, list):
        argv, index = [*refused, "--workers", "1", "--out", str(out)], 0
    else:
        experiment_id, fault = refused
        good = engine.build_spec(experiment_id, 1).grid[0]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"experiment_id": experiment_id, "seed": 1,
                                    "grid": [good, dict(good, **fault)]}))
        argv, index = ["experiment", "--spec-file", str(spec), "--out", str(out)], 1
    assert main(argv) == 2
    assert f"grid cell {index}: " in capsys.readouterr().err
    assert not out.exists()


def test_experiment_spec_file_and_dump_raw(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "ratio_prob_fig5",
        "seed": 77,
        "workers": 1,
        "overrides": {"ds": [2, 10], "reps": 120},
    }))
    out = tmp_path / "rows.csv"
    raw = tmp_path / "raw.csv"
    code = main(["experiment", "--spec-file", str(spec), "--out", str(out),
                 "--dump-raw", str(raw)])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["experiment"] == "ratio_prob_fig5"
    raw_rows = list(csv.DictReader(open(raw)))
    assert len(raw_rows) == 240
    assert {r["quantity"] for r in raw_rows} == {"leq4"}
    for cell in ("0", "1"):
        reps = [int(r["rep"]) for r in raw_rows if r["cell"] == cell]
        assert reps == list(range(120))
    assert {float(r["value"]) for r in raw_rows} <= {0.0, 1.0}


def test_experiment_dump_raw_ends_lines_with_newline_only(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "split_p0_fig3", "seed": 4,
        "overrides": {"ds": [2], "p0s": [0.5], "reps": 3},
    }))
    out, raw = tmp_path / "rows.csv", tmp_path / "raw.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out),
                 "--dump-raw", str(raw)]) == 0
    for path in (out, raw):
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, path.name
    assert raw.read_text().splitlines()[1].startswith("0,sq_radius,0,")


def test_experiment_dump_raw_without_replications_writes_header_only(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "ratio_bounds_fig4",
        "seed": 1,
        "overrides": {"ds": [10], "xs": [1.0]},
    }))
    raw = tmp_path / "raw.csv"
    code = main(["experiment", "--spec-file", str(spec), "--out", str(tmp_path / "rows.csv"),
                 "--dump-raw", str(raw)])
    assert code == 0
    assert raw.read_text() == "cell,quantity,rep,value\n"


def test_experiment_dump_raw_records_fig6_monte_carlo_cells(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "power_fig6",
        "seed": 5,
        "overrides": {"ds": [2], "lambdas": [2.0], "reps": 50},
    }))
    out, plain, raw = tmp_path / "rows.csv", tmp_path / "plain.csv", tmp_path / "raw.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out),
                 "--dump-raw", str(raw)]) == 0
    assert main(["experiment", "--spec-file", str(spec), "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    rows = list(csv.DictReader(open(out)))
    mc_cells = {str(i) for i, row in enumerate(rows) if row["method"] == "mc"}
    assert len(mc_cells) == 2
    raw_rows = list(csv.DictReader(open(raw)))
    assert {r["cell"] for r in raw_rows} == mc_cells
    assert {r["quantity"] for r in raw_rows} == {"reject"}
    for cell in mc_cells:
        assert [int(r["rep"]) for r in raw_rows if r["cell"] == cell] == list(range(50))
    assert {float(r["value"]) for r in raw_rows} <= {0.0, 1.0}


def test_experiment_csv_quotes_cell_values_holding_commas(tmp_path):
    cell = {"d": 2, "n": 100, "alpha": 0.1, "B": 2, "reps": 4}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "doughnut_fig7",
        "seed": 1,
        "grid": [
            dict(cell, method="intersection", theta_norm=0.5, label="a,b"),
            dict(cell, method="intersection", theta_norm=0.5, label=[0.1, 0.2]),
        ],
    }))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--workers", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert all(None not in row for row in rows)
    assert [r["method"] for r in rows] == ["intersection", "intersection"]
    assert [r["label"] for r in rows] == ["a,b", "[0.1, 0.2]"]
    assert [r["status"] for r in rows] == ["ok", "ok"]


@pytest.mark.parametrize("x", [309, 400, math.nan, math.inf, -400], ids=["309", "400", "nan", "inf", "-400"])
def test_experiment_fig4_cell_past_the_double_range_exits_2(tmp_path, capsys, x):
    """A 10**x that overflows, is NaN or underflows to 0 is no level
    ln(1/alpha); such a cell used to run to an ``error:DomainError`` row."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "ratio_bounds_fig4", "seed": 1,
        "grid": [{"d": 10, "x": 1.0}, {"d": 10, "x": x}],
    }))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == 2
    assert (f"grid cell 1: ln(1/alpha) = 10**{x} is not a positive finite double"
            in capsys.readouterr().err)
    assert not out.exists()


def test_experiment_fig4_cell_at_a_tiny_level_keeps_its_bounds_rows(tmp_path):
    """At x = -17, alpha = e^{-L} rounds to 1, which has no expected ratio:
    the cell used to become one error row, and now keeps its bounds rows."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": "ratio_bounds_fig4", "seed": 1,
                                "grid": [{"d": 10, "x": -17}]}))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec-file", str(spec), "--out", str(out)]) == 0
    rows = [(r["quantity"], r["log_inv_alpha"], r["status"]) for r in csv.DictReader(open(out))]
    assert rows == [("lower", "1e-17", "ok"), ("upper", "1e-17", "ok")]


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"d": 2, "n": 100, "alpha": 0.1, "reps": 5}, "grid cell 0 lacks the axis 'p0'"),
        ({"d": 2, "n": 100, "alpha": "0.1", "p0": 0.5, "reps": 5},
         "grid cell 0: alpha must be a real number, got '0.1'"),
    ],
    ids=["missing-key", "wrong-type"],
)
def test_experiment_spec_file_malformed_grid_cell_exits_2(tmp_path, cell, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": "split_p0_fig3", "seed": 1, "grid": [cell]}))
    out = tmp_path / "rows.csv"
    proc = run_cli(["experiment", "--spec-file", str(spec), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()
    with pytest.raises(DomainError, match=re.escape(message)):
        load_spec_file(spec)


def test_experiment_missing_file_exits_2(tmp_path):
    proc = run_cli(["experiment", "--spec-file", str(tmp_path / "nope.json")])
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "experiment_id, cell, message",
    [
        ("split_p0_fig3", {"d": 2, "n": 100, "alpha": 0.1, "p0": 0.5, "reps": 0}, "needs reps >= 1"),
        (
            "doughnut_fig7",
            {"method": "subsampled_split", "d": 2, "n": 100, "alpha": 0.1,
             "theta_norm": 0.5, "B": 0, "reps": 5},
            "needs B >= 1",
        ),
    ],
)
def test_experiment_spec_file_grid_count_below_one_exits_2(tmp_path, experiment_id, cell, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment_id": experiment_id, "seed": 1, "grid": [cell]}))
    out = tmp_path / "rows.csv"
    proc = run_cli(["experiment", "--spec-file", str(spec), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("reps", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("where", ["overrides", "grid"])
def test_experiment_spec_file_non_integer_count_exits_2(tmp_path, where, reps):
    cell = {"d": 2, "n": 100, "alpha": 0.1, "p0": 0.5, "reps": reps}
    doc = {"experiment_id": "split_p0_fig3", "seed": 1}
    doc.update({"grid": [cell]} if where == "grid" else {"overrides": {"reps": reps}})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    proc = run_cli(["experiment", "--spec-file", str(spec), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert f"needs reps >= 1, an integer, got {reps!r}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("key", ["seed", "workers"])
def test_experiment_spec_file_non_integer_seed_or_workers_exits_2(tmp_path, key, value):
    doc = {"experiment_id": "ratio_bounds_fig4", "seed": 1, "overrides": {"ds": [10], "xs": [1.0]}}
    doc[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    proc = run_cli(["experiment", "--spec-file", str(spec), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert f"{key} must be an integer, got {value!r}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["below", "above"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "rows.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment_id": "ratio_prob_fig5", "seed": seed, "overrides": {"ds": [2], "reps": 10},
    }))
    for argv in (
        ["figure", "5", "--d", "2", "--reps", "10", "--seed", str(seed), "--out", str(out)],
        ["experiment", "--spec-file", str(spec), "--out", str(out)],
        ["region", "--rays", "12", "--seed", str(seed), "--out", str(tmp_path / "region")],
    ):
        assert main(argv) == 2, argv
        assert "must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [spec]


def test_seeds_at_both_ends_of_the_64_bit_range_run(tmp_path):
    texts = []
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"{seed}.csv"
        assert main(["figure", "5", "--d", "2", "--reps", "10", "--seed", str(seed),
                     "--workers", "1", "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] != texts[1]


def test_experiment_pooled_cells_give_the_same_bytes_at_every_worker_count(tmp_path):
    spec = tmp_path / "spec.json"
    # four subsampled cells (B > 1) of two chunks each, and four B = 1 or closed-form cells
    spec.write_text(json.dumps({
        "experiment_id": "doughnut_fig7", "seed": 31,
        "overrides": {"ds": [2], "n": 100, "B": 5, "reps": 600, "theta_norms": [0.5, 1.2]},
    }))
    outputs = []
    for workers in (1, 2, 3):
        out, raw = tmp_path / f"rows{workers}.csv", tmp_path / f"raw{workers}.csv"
        assert main(["experiment", "--spec-file", str(spec), "--workers", str(workers),
                     "--out", str(out), "--dump-raw", str(raw)]) == 0
        outputs.append((out.read_bytes(), raw.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    cells = [r["cell"] for r in csv.DictReader(outputs[0][1].decode().splitlines())]
    assert cells == sorted(cells, key=int) and len(set(cells)) == 6


def test_usage_error_exit_code():
    proc = run_cli(["region", "--alpha", "not-a-number"])
    assert proc.returncode == 2
