"""Experiment runner: determinism, aggregation, presets, failure isolation."""

import json
import math
import re
import threading
import time

import numpy as np
import pytest

from ulrt import doughnut, engine
from ulrt.engine import (
    Accumulator,
    ExperimentSpec,
    SummaryRow,
    build_spec,
    coverage_suite,
    load_spec_file,
    rows_to_csv,
    run,
)
from ulrt.errors import DomainError, NumericError
from ulrt.rng import RngStream


def rows_as_text(rows, tmp_path, name):
    path = tmp_path / name
    rows_to_csv(rows, path)
    return path.read_text()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_accumulator_matches_two_pass_reference():
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=2.0, sigma=1.5, size=1_000_000)
    acc = Accumulator()
    for lo in range(0, values.size, 4096):
        acc.fold(values[lo : lo + 4096])
    ref_mean = values.mean()
    ref_sd = values.std(ddof=1)
    assert acc.count == values.size
    assert abs(acc.mean - ref_mean) <= 1e-10 * abs(ref_mean)
    one_pass_sd = math.sqrt(acc.m2 / (acc.count - 1))
    assert abs(one_pass_sd - ref_sd) <= 1e-10 * ref_sd


def test_accumulator_se_proportion():
    acc = Accumulator()
    acc.fold(np.array([1.0, 0.0, 1.0, 1.0]))
    assert acc.se_proportion() == pytest.approx(math.sqrt(0.75 * 0.25 / 4))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_run_is_deterministic_across_worker_counts(tmp_path):
    specs = [
        build_spec("ratio_prob_fig5", 99, ds=[2], reps=600),
        # pooled cells, each with two chunks of B > 1 replications
        build_spec("hybrid_cases_figS4", 99, ds=[2, 3], n=100, theta_norms=[0.0, 1.1], reps=600, B=5),
        # pooled cells, each with two chunks of splits
        build_spec("approx_fig2", 99, ds=[1, 3], ns=[10, 40], B=9000, grid_points=5),
    ]
    for spec in specs:
        text1 = rows_as_text(run(spec, workers=1), tmp_path, "w1.csv")
        text8 = rows_as_text(run(spec, workers=8), tmp_path, "w8.csv")
        assert text1 == text8, spec.experiment_id


def test_run_is_deterministic_across_invocations(tmp_path):
    spec = build_spec("power_fig6", 5, ds=[2], lambdas=[10.0], reps=300)
    a = rows_as_text(run(spec, workers=2), tmp_path, "a.csv")
    b = rows_as_text(run(spec, workers=2), tmp_path, "b.csv")
    assert a == b


def test_failing_pooled_cell_keeps_its_error_row_and_every_other_row(monkeypatch):
    spec = build_spec("doughnut_fig7", 12, ds=[2, 3], n=100, theta_norms=[0.5, 1.2], reps=1100, B=5)
    expected = run(spec, workers=1)
    mc_reducer = doughnut.mc_reducer

    def failing_reducer(method, n, d, *rest):
        reduce = mc_reducer(method, n, d, *rest)
        if (method, d) != ("subsampled_split", 3):
            return reduce

        def fail(forms):
            raise NumericError("injected")
        return fail

    monkeypatch.setattr(engine.dn, "mc_reducer", failing_reducer)
    rows = run(spec, workers=2)
    failed = [i for i, row in enumerate(rows) if row.status != "ok"]
    assert [rows[i].status for i in failed] == ["error:NumericError"] * 2
    assert {(rows[i].cell["method"], rows[i].cell["d"]) for i in failed} == {("subsampled_split", 3)}
    assert len(rows) == len(expected)
    for i, (row, want) in enumerate(zip(rows, expected)):
        if i not in failed:
            assert row == want


def test_ordered_raises_in_list_order_and_cancels_the_tasks_not_started():
    ran = []

    def fail():
        raise NumericError("first")

    def record(i):
        time.sleep(0.02)
        ran.append(i)
        return i

    tasks = [fail] + [lambda i=i: record(i) for i in range(1, 10)]
    with pytest.raises(NumericError, match="first"):
        list(engine._ordered(tasks, 2))
    settled = len(ran)
    time.sleep(0.1)
    assert len(ran) == settled < 9
    assert list(engine._ordered([lambda i=i: record(i) for i in range(6)], 3)) == list(range(6))


def test_repeated_pooled_runs_leave_one_shared_pool():
    spec = build_spec("doughnut_fig7", 3, ds=[2], n=100, theta_norms=[0.5, 1.2], reps=4, B=5)
    run(spec, workers=2)
    before = threading.active_count()
    for _ in range(20):
        run(spec, workers=2)
    assert threading.active_count() <= before + 1


def test_different_seeds_differ():
    spec_a = build_spec("ratio_prob_fig5", 1, ds=[2], reps=400)
    spec_b = build_spec("ratio_prob_fig5", 2, ds=[2], reps=400)
    assert run(spec_a)[0].estimate != run(spec_b)[0].estimate


# ---------------------------------------------------------------------------
# presets and spec plumbing
# ---------------------------------------------------------------------------


def test_build_spec_rejects_unknown_id_and_axis():
    with pytest.raises(DomainError):
        build_spec("bogus", 1)
    with pytest.raises(DomainError):
        build_spec("ratio_prob_fig5", 1, nope=3)


@pytest.mark.parametrize(
    "experiment_id, axis, value",
    [
        ("regions_fig1", "replicates", 0),
        ("split_p0_fig3", "reps", 0),
        ("ratio_prob_fig5", "reps", -1),
        ("doughnut_fig7", "B", 0),
        ("approx_fig2", "B", 0),
    ],
)
def test_build_spec_rejects_counts_below_one(experiment_id, axis, value):
    with pytest.raises(DomainError, match=f"{axis} >= 1"):
        build_spec(experiment_id, 1, **{axis: value})


def test_experiment_spec_validation():
    with pytest.raises(DomainError):
        ExperimentSpec("bogus", ({},), 1)
    with pytest.raises(DomainError):
        ExperimentSpec("ratio_prob_fig5", (), 1)


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"experiment_id": "ratio_bounds_fig4", "seed": 3, "workers": 2,'
        ' "overrides": {"ds": [10], "xs": [1.0, 2.0]}}'
    )
    spec, workers = load_spec_file(path)
    assert workers == 2
    assert spec.experiment_id == "ratio_bounds_fig4"
    assert len(spec.grid) == 2
    rows = run(spec)
    assert all(row.status == "ok" for row in rows)


def test_spec_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(DomainError):
        load_spec_file(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"experiment_id": "power_fig6"}')
    with pytest.raises(DomainError):
        load_spec_file(missing)


_FIG4_DOC = {"experiment_id": "ratio_bounds_fig4", "seed": 1}


@pytest.mark.parametrize("doc, message", [
    ([_FIG4_DOC], "expected a JSON object"),
    (dict(_FIG4_DOC, grid={"d": 2, "x": 1.0}), "grid must be a list of objects"),
    (dict(_FIG4_DOC, grid=[{"d": 2, "x": 1.0}, 3]), "grid must be a list of objects"),
    (dict(_FIG4_DOC, overrides=[["ds", [10]]]), "overrides must be an object"),
], ids=["array", "grid-object", "grid-number", "overrides-array"])
def test_spec_file_of_the_wrong_shape_is_refused(tmp_path, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_spec_file(path)


def test_explicit_grid_spec(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        '{"experiment_id": "ratio_bounds_fig4", "seed": 1,'
        ' "grid": [{"d": 2, "x": 1.0}]}'
    )
    spec, _ = load_spec_file(path)
    rows = run(spec)
    assert {row.cell["quantity"] for row in rows} == {"lower", "upper", "expected"}


# ---------------------------------------------------------------------------
# failure isolation
# ---------------------------------------------------------------------------


def test_poisoned_cell_yields_diagnostic_row():
    # the chi-squared quantile refuses alpha = 1e-305 by design, since
    # ln(1/alpha) > 700 is beyond what its CDF can resolve
    spec = ExperimentSpec(
        "ratio_prob_fig5",
        (
            dict(d=2, n=100, alpha=0.1, reps=50),
            dict(d=2, n=100, alpha=1e-305, reps=50),
        ),
        7,
    )
    rows = run(spec)
    ok_rows = [r for r in rows if r.status == "ok"]
    bad_rows = [r for r in rows if r.status.startswith("error:")]
    assert len(ok_rows) == 1 and len(bad_rows) == 1
    assert math.isnan(bad_rows[0].estimate)
    assert bad_rows[0].status == "error:NumericError"


def test_noncentral_series_beyond_its_range_yields_an_error_row():
    # lambda = 1e300: the Poisson indices of the series are no longer exact doubles
    cell = dict(test="classical", method="exact", d=2, n=1000, alpha=0.1,
                n_theta_sq=1e300, reps=10, B=1)
    rows = run(ExperimentSpec("power_fig6", (cell, dict(cell, n_theta_sq=8.0)), 7))
    assert [r.status for r in rows] == ["error:NumericError", "ok"]


def test_fig4_default_grid_has_no_error_rows():
    # its (d = 1e5, x = 0) cell needs the chi-squared quantile at a = 50,000
    rows = run(build_spec("ratio_bounds_fig4", 3))
    assert [r.status for r in rows] == ["ok"] * len(rows)


@pytest.mark.parametrize(
    "experiment_id, cell, message",
    [
        ("ratio_bounds_fig4", dict(d=2), "grid cell 1 lacks the axis 'x'"),
        ("ratio_bounds_fig4", dict(d=2, x="1.0"), "grid cell 1: x must be a real number, got '1.0'"),
        ("ratio_bounds_fig4", dict(d=2, x=True), "grid cell 1: x must be a real number, got True"),
        ("ratio_bounds_fig4", dict(d=2.0, x=1.0), "needs d >= 1, an integer, got 2.0"),
        ("ratio_bounds_fig4", dict(d=-3, x=1.0), "needs d >= 1, an integer, got -3"),
        ("split_p0_fig3", dict(d=2, n=100, alpha=0.1, reps=5), "grid cell 1 lacks the axis 'p0'"),
        ("intersect_power_figS3", dict(method=1, d=2, n=100, alpha=0.1, theta_norm=0.3, reps=5),
         "grid cell 1: method must be a string, got 1"),
        ("ratio_bounds_fig4", [2, 1.0], "grid cell 1 is not a mapping: [2, 1.0]"),
    ],
    ids=["missing", "string-number", "bool-number", "float-size", "negative-size",
         "fig3-missing-p0", "number-name", "not-a-mapping"],
)
def test_malformed_explicit_cell_is_refused_before_any_cell_runs(
    experiment_id, cell, message, monkeypatch
):
    ran = []
    monkeypatch.setitem(engine._EXECUTORS, experiment_id, lambda *args: ran.append(args))
    good = build_spec(experiment_id, 3).grid[0]
    with pytest.raises(DomainError, match=re.escape(message)):
        run(ExperimentSpec(experiment_id, (good, cell), 3))
    assert ran == []


def test_extra_cell_keys_become_label_columns(tmp_path):
    spec = ExperimentSpec("ratio_bounds_fig4", (dict(d=2, x=1.0, label="run a"),), 3)
    rows = run(spec)
    assert [r.status for r in rows] == ["ok"] * 3
    header = rows_as_text(rows, tmp_path, "out.csv").splitlines()[0]
    assert header.startswith("experiment,d,x,label,")


@pytest.mark.parametrize(
    "experiment_id, cell",
    [
        ("doughnut_fig7", dict(method="bogus", theta_norm=0.3, B=4)),
        ("intersect_power_figS3", dict(method="bogus", theta_norm=0.3)),
        ("power_fig6", dict(test="bogus", method="exact", n_theta_sq=2.0, B=4)),
        ("power_fig6", dict(test="split", method="bogus", n_theta_sq=2.0, B=4)),
    ],
)
def test_unknown_test_or_method_in_explicit_cell_yields_domain_error(experiment_id, cell):
    """Such a cell used to run to an ``error:DomainError`` row; the spec now
    refuses it and names the combinations the preset's default grid runs."""
    with pytest.raises(DomainError, match=rf"^{experiment_id} grid cell 0: \{{.*'bogus'.*\}} "
                                          r"is not one of \{'(test|method)': '"):
        ExperimentSpec(experiment_id, (dict(cell, d=2, n=100, alpha=0.1, reps=20),), 3)


# ---------------------------------------------------------------------------
# coverage suite
# ---------------------------------------------------------------------------


def test_coverage_suite_classical_is_exact():
    rows = coverage_suite([2], 100, 0.1, 10_000, 50, RngStream(404), workers=2)
    by_method = {row.cell["method"]: row for row in rows}
    classical = by_method["classical"]
    assert abs(classical.estimate - 0.9) <= 0.010
    for method in ("split", "crossfit", "subsampling"):
        row = by_method[method]
        assert row.estimate >= 0.9 - 3.0 * row.stderr


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_rows_to_csv_layout(tmp_path):
    spec = build_spec("ratio_bounds_fig4", 1, ds=[10], xs=[1.0])
    rows = run(spec)
    text = rows_as_text(rows, tmp_path, "out.csv")
    lines = text.splitlines()
    assert lines[0] == "experiment,d,x,log_inv_alpha,quantity,estimate,stderr,reps_used,status"
    assert all(line.startswith("ratio_bounds_fig4,") for line in lines[1:])


def test_rows_to_csv_writes_numpy_scalars_as_python_values(tmp_path):
    cell = {"p": np.float64(0.5), "k": np.int64(3), "ok": np.bool_(True), "flag": False}
    rows = [SummaryRow("ratio_bounds_fig4", cell, np.float64(0.25), 0.0, 1)]
    text = rows_as_text(rows, tmp_path, "out.csv")
    assert text == (
        "experiment,p,k,ok,flag,estimate,stderr,reps_used,status\n"
        "ratio_bounds_fig4,0.5,3,true,false,0.25,0.0,1,ok\n"
    )


def test_non_finite_theta_cells_are_refused_before_the_run():
    """Such cells used to run to ``error:DomainError`` rows."""
    with pytest.raises(DomainError, match="grid cell 0: n_theta_sq must be finite and >= 0, got nan"):
        build_spec("power_fig6", 2, ds=[2], lambdas=[math.nan], reps=20)
    with pytest.raises(DomainError, match="grid cell 0: theta_norm must be finite and >= 0, got nan"):
        build_spec("hybrid_cases_figS4", 2, ds=[2], theta_norms=[math.nan], B=3, reps=5)


def test_fig6_cells_do_not_read_b():
    """A ``B`` key in a fig6 cell is a label column: the rows are those of
    the cell without it."""
    grid = build_spec("power_fig6", 4, ds=[2], lambdas=[0.0, 8.0], reps=30).grid
    plain = run(ExperimentSpec("power_fig6", grid, 4))
    labelled = run(ExperimentSpec("power_fig6", tuple(dict(cell, B=7) for cell in grid), 4))
    assert [row.cell.pop("B") for row in labelled] == [7] * len(grid)
    assert labelled == plain


def test_rows_to_csv_requires_rows(tmp_path):
    with pytest.raises(DomainError):
        rows_to_csv([], tmp_path / "never.csv")


# ---------------------------------------------------------------------------
# light preset smoke checks
# ---------------------------------------------------------------------------


def test_fig1_preset_area_ordering():
    spec = build_spec("regions_fig1", 39, replicates=1, B=100, rays=90)
    rows = run(spec)
    areas = {row.cell["kind"]: row.estimate for row in rows}
    assert set(areas) == {"classical", "split", "crossfit", "subsampling"}
    assert areas["classical"] < areas["split"]
    assert areas["crossfit"] <= areas["split"]
    assert areas["subsampling"] <= areas["split"]


def test_fig2_preset_negative_example_documented():
    # the mismatch panel (d=20, n=10) is produced but not asserted against
    spec = build_spec("approx_fig2", 8, ds=[20], ns=[10], B=2000, grid_points=5)
    rows = run(spec)
    assert len(rows) == 5
    assert all("analytic" in row.cell for row in rows)


def test_fig3_preset_includes_p0star():
    spec = build_spec("split_p0_fig3", 8, ds=[100], reps=1)
    p0s = {row.cell["p0"] for row in run(spec)}
    from ulrt.regions import optimal_split_proportion

    assert any(abs(p - optimal_split_proportion(0.1, 100)) < 1e-12 for p in p0s)


def test_fig5_split_radius_uses_realized_part_size():
    # at odd n the likelihood part has k = 6 of n = 11 points, so the split
    # radius is (2/k) L + ||mean0 - mean1||^2, not (4/n) L + ...
    from ulrt.data import part_size, sample_part_means
    from ulrt.regions import log_threshold
    from ulrt.specfun import chi2_upper_quantile

    n, d, alpha, reps = 11, 2, 0.1, 4000
    dumped = {}
    spec = build_spec("ratio_prob_fig5", 77, ds=[d], n=n, alpha=alpha, reps=reps)
    run(spec, dump=lambda cell, name, lo, values: dumped.update({(cell, name, lo): values}))
    indicators = np.concatenate([dumped[key] for key in sorted(dumped)])

    k = part_size(n, 0.5)
    stream = RngStream(77).substream(1)
    mean0, mean1 = sample_part_means(stream.substream_keys(reps, child=0), n, k, np.zeros(d))
    sq_radius = (2.0 / k) * log_threshold(alpha) + np.sum(np.square(mean0 - mean1), axis=1)
    expected = sq_radius / (chi2_upper_quantile(alpha, d) / n) <= 4.0
    np.testing.assert_array_equal(indicators, expected.astype(np.float64))


def test_figS4_preset_quantities():
    spec = build_spec(
        "hybrid_cases_figS4", 8, ds=[2], theta_norms=[0.0], reps=40, B=16
    )
    rows = run(spec)
    quantities = [row.cell["quantity"] for row in rows]
    assert quantities == ["power", "frac_split_case", "frac_unit_case", "frac_ripr_case"]
    fracs = [row.estimate for row in rows[1:]]
    assert sum(fracs) == pytest.approx(1.0, abs=1e-12)


def test_figS3_exact_and_mc_agree_quickly():
    spec = build_spec(
        "intersect_power_figS3", 21, ds=[2], theta_norms=[1.3], reps=400
    )
    rows = run(spec, workers=2)
    exact = next(r for r in rows if r.cell["method"] == "exact")
    mc = next(r for r in rows if r.cell["method"] == "mc")
    assert abs(exact.estimate - mc.estimate) <= 3.0 * mc.stderr + 1e-9
