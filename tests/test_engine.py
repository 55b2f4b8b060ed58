"""Experiment runner: determinism, aggregation, presets, failure isolation."""

import math

import numpy as np
import pytest

from ulrt.engine import (
    Accumulator,
    ExperimentSpec,
    build_spec,
    coverage_suite,
    load_spec_file,
    rows_to_csv,
    run,
)
from ulrt.errors import DomainError
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
    spec = build_spec("ratio_prob_fig5", 99, ds=[2], reps=600)
    text1 = rows_as_text(run(spec, workers=1), tmp_path, "w1.csv")
    text8 = rows_as_text(run(spec, workers=8), tmp_path, "w8.csv")
    assert text1 == text8


def test_run_is_deterministic_across_invocations(tmp_path):
    spec = build_spec("power_fig6", 5, ds=[2], lambdas=[10.0], reps=300)
    a = rows_as_text(run(spec, workers=2), tmp_path, "a.csv")
    b = rows_as_text(run(spec, workers=2), tmp_path, "b.csv")
    assert a == b


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


def test_fig4_default_grid_has_no_error_rows():
    # its (d = 1e5, x = 0) cell needs the chi-squared quantile at a = 50,000
    rows = run(build_spec("ratio_bounds_fig4", 3))
    assert [r.status for r in rows] == ["ok"] * len(rows)


def test_malformed_explicit_cell_yields_diagnostic_row():
    spec = ExperimentSpec(
        "ratio_bounds_fig4",
        (dict(d=2, x=1.0), dict(d=2)),  # second cell is missing its axis
        3,
    )
    rows = run(spec)
    assert sum(r.status == "error:KeyError" for r in rows) == 1
    assert sum(r.status == "ok" for r in rows) == 3


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
    spec = ExperimentSpec(experiment_id, (dict(cell, d=2, n=100, alpha=0.1, reps=20),), 3)
    (row,) = run(spec)
    assert row.status == "error:DomainError"
    assert math.isnan(row.estimate) and row.reps_used == 0


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
