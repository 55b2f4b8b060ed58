"""Split sums of B > 1 replications drawn from their exact law given the
subsets (``ulrt._kernels.exact_split_means``, which
``ulrt.data.replicate_split_means`` takes from ``d >= data._EXACT_MIN_D``),
and the draw groups of fig7 and S4: the B > 1 cells of one power curve
decided on one draw at theta = 0, each shifted by its own theta."""

import math

import numpy as np
import pytest

from ulrt import _kernels, data, engine
from ulrt.errors import DomainError, NumericError
from ulrt.rng import RngStream, batch_normals

#: (n, k, B, d): the smallest case, a preset shape, and B + 1 > n, where G
#: has rank at most n = 12 and the factor stops early
CASES = [(12, 6, 3, 2), (1000, 500, 100, 100), (12, 6, 20, 40)]
CASE_IDS = ["small", "preset", "rank-deficient"]


def _inputs(n, B, d, c=2):
    stream = RngStream(71, n + B + d)
    keys = stream.substream_keys(c * B).reshape(c, B)
    z = batch_normals(stream.substream(1).substream_keys(c), (B + 1) * d).reshape(c, B + 1, d)
    return keys, z, np.linspace(-1.0, 2.0, d)


def _bytes(means):
    return b"".join(m.tobytes() for m in means)


@pytest.mark.parametrize("n,k,B,d", CASES, ids=CASE_IDS)
def test_compiled_exact_sums_equal_the_numpy_twin_bit_for_bit(n, k, B, d, monkeypatch):
    keys, z, theta = _inputs(n, B, d)
    if _kernels._compiled() is None:
        pytest.skip("no compiled module")
    compiled = _kernels.exact_split_means(z, keys, n, k, theta)
    assert all(m.shape == (2, B, d) for m in compiled)
    monkeypatch.setattr(_kernels, "_loaded", [None])
    assert _bytes(_kernels.exact_split_means(z, keys, n, k, theta)) == _bytes(compiled)


@pytest.mark.parametrize("n,k,B,d", CASES, ids=CASE_IDS)
def test_pivoted_factor_reproduces_the_gram_matrix_of_the_subsets(n, k, B, d):
    """``L L'`` is ``G`` with rows and columns in pivot order, to roundoff,
    and the rank is at most ``min(B + 1, n)``."""
    keys, _, _ = _inputs(n, B, d, c=1)
    subsets = _kernels._numpy_fisher_yates(keys.reshape(-1), n, k)
    member = np.zeros((B + 1, n))
    member[np.arange(B)[:, None], subsets] = 1.0
    member[B] = 1.0
    gram = member @ member.T
    lower, piv = _kernels._numpy_pivoted_cholesky(gram, n * _kernels._RANK_RTOL)
    assert lower.shape[1] == min(B + 1, n) == np.linalg.matrix_rank(gram)
    assert sorted(piv) == list(range(B + 1))
    np.testing.assert_allclose(lower @ lower.T, gram[np.ix_(piv, piv)], rtol=0, atol=1e-9 * n)


def test_exact_sums_refuses_buffers_that_do_not_fit():
    lib = _kernels._compiled()
    if lib is None:
        pytest.skip("no compiled module")
    keys = RngStream(72).substream_keys(6)
    z = RngStream(73).normals(16)

    def call(keys=keys, B=3, k=4, z=z, d=2, tol=1e-8, out=16):
        out = np.zeros(out)
        lib.exact_sums(keys, B, 10, k, z, d, tol, out)
        return out

    assert np.all(call() != 0.0)
    for bad in (dict(z=z[:15]), dict(out=17), dict(B=4), dict(d=3), dict(k=0), dict(k=11),
                dict(tol=0.0), dict(keys=keys[:5])):
        with pytest.raises(ValueError, match="buffer sizes"):
            call(**bad)


@pytest.mark.parametrize(
    "z_shape,theta_d,k,dtype",
    [((2, 4, 3), 3, 10, np.float64), ((2, 3, 3), 3, 5, np.float64), ((2, 4, 3), 2, 5, np.float64),
     ((2, 4, 3), 3, 5, np.float32), ((2, 4, 3), 3, 0, np.float64)],
    ids=["k-n", "z-rows", "theta-d", "float32", "k-0"],
)
def test_exact_split_means_rejects_bad_arguments_before_the_foreign_call(
    z_shape, theta_d, k, dtype, monkeypatch
):
    refusing = type("Refusing", (), {"exact_sums": lambda *a: pytest.fail("reached the C call")})
    monkeypatch.setattr(_kernels, "_loaded", [refusing])
    keys = RngStream(74).substream_keys(6).reshape(2, 3)
    with pytest.raises(DomainError):
        _kernels.exact_split_means(np.zeros(z_shape, dtype=dtype), keys, 10, k, np.zeros(theta_d))


def test_exact_law_has_the_moments_of_summing_rows():
    """Over random subsets, every part mean has mean theta, Var(mean0) =
    1/k, Var(mean1) = 1/(n - k), Cov(mean0_b, mean1_b) = 0, and 1/n for each
    pair of parts of two different splits.  Seed fixed; tolerance 5 standard
    errors of each sample moment (normal theory, with the exact covariance),
    so a correct law fails one of these 27 checks with probability below
    1e-5."""
    n, k, B, d, reps = 12, 5, 3, 16, 4000
    assert d >= data._EXACT_MIN_D
    theta = np.linspace(-0.5, 0.5, d)
    mean0, mean1 = data.replicate_split_means(RngStream(75), 0, reps, n, k, theta, B)
    parts = np.concatenate([mean0, mean1], axis=1) - theta  # (reps, 2B, d)
    samples = parts.transpose(0, 2, 1).reshape(-1, 2 * B)  # coordinates are independent copies
    count = samples.shape[0]
    exact = np.full((2 * B, 2 * B), 1.0 / n)
    exact[np.arange(B), np.arange(B, 2 * B)] = exact[np.arange(B, 2 * B), np.arange(B)] = 0.0
    exact[np.arange(B), np.arange(B)] = 1.0 / k
    exact[np.arange(B, 2 * B), np.arange(B, 2 * B)] = 1.0 / (n - k)
    mean_se = np.sqrt(np.diag(exact) / count)
    assert np.all(np.abs(samples.mean(axis=0)) <= 5.0 * mean_se)
    centred = samples - samples.mean(axis=0)
    cov = centred.T @ centred / (count - 1)
    cov_se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / count)
    assert np.all(np.abs(cov - exact) <= 5.0 * cov_se), (cov - exact) / cov_se


def test_replications_below_the_gate_still_sum_rows():
    """Below ``_EXACT_MIN_D`` a replication splits its simulated dataset."""
    n, k, B, d = 40, 20, 4, data._EXACT_MIN_D - 1
    theta = np.zeros(d)
    stream = RngStream(76)
    got = data.replicate_split_means(stream, 3, 5, n, k, theta, B)
    rows = batch_normals(stream.substream_keys(3, 5, child=0), n * d).reshape(2, n, d)
    want = _kernels.split_means(rows, stream.substream_keys(3, 5, child=1, grandchildren=B), k)
    assert _bytes(got) == _bytes(want)


def _groups(experiment_id, grid):
    return engine._draw_groups(grid, engine.PRESETS[experiment_id].annulus.method)


def _alone(ctx, stream_ci, cell, shifted=True):
    """``cell``'s test run alone on cell ``stream_ci``'s stream: on the forms
    of a draw at theta = 0 with the cell's theta added to its means, or
    (``shifted=False``) on the forms of a draw at the cell's own theta.  Its
    accumulators and dumped values."""
    n, d = cell["n"], cell["d"]
    k = data.part_size(n, 0.5)
    reduce = engine.dn.mc_reducer(cell.get("method", "subsampled_hybrid"), n, d, cell["alpha"],
                                  engine.dn.AnnulusNull())
    theta = np.zeros(d)
    theta[0] = cell["theta_norm"]
    shift = theta if shifted else 0.0
    dumped: list = []
    acc = engine._replicate(
        ctx.cell_stream(stream_ci), cell["reps"], n, k, np.zeros(d) if shifted else theta, cell["B"],
        lambda mean0, mean1: reduce(engine.dn._split_forms(mean0 + shift, mean1 + shift)),
        ctx.workers, lambda name, lo, values: dumped.append((name, lo, values)),
    )
    return acc, dumped


def _run_with_dumps(spec):
    dumped: dict = {}
    rows = engine.run(spec, workers=2,
                      dump=lambda *entry: dumped.setdefault(entry[0], []).append(entry[1:]))
    return rows, dumped


def _dumped_bytes(entries):
    return [(name, lo, np.asarray(v, dtype=np.float64).tobytes()) for name, lo, v in entries]


def _cell_rows(rows):
    """The rows of each cell, in cell order: an S4 cell's rows start with
    its power row, and an error row stands alone."""
    cells: list = []
    for row in rows:
        if row.cell.get("quantity", "power") == "power":
            cells.append([])
        cells[-1].append(row)
    return cells


def test_fig7_pairs_join_equal_b_above_1_cells_only():
    """A split and a hybrid cell at one theta are a group of two."""
    base = dict(d=2, n=100, alpha=0.1, theta_norm=0.5, B=4, reps=10)
    grid = [
        dict(base, method="subsampled_hybrid"),
        dict(base, method="intersection"),
        dict(base, method="subsampled_split"),
        dict(base, method="subsampled_split", label="y"),
        dict(base, method="subsampled_split", theta_norm=0.75, label="z"),
        dict(base, method="subsampled_hybrid", theta_norm=0.75, label="x"),
        dict(base, method="subsampled_split", B=1),
        dict(base, method="subsampled_hybrid", B=1),
        dict(base, method="subsampled_hybrid", label="y"),
    ]
    assert _groups("doughnut_fig7", grid) == [(0, 2), (3, 8)]


def test_draw_groups_join_the_b_above_1_cells_of_one_curve_only():
    """On the grid of the pairing rule: every B > 1 subsampled cell whose
    keys other than method and theta are equal joins one group; B = 1 cells,
    the intersection cell and the cell with another label stay apart."""
    base = dict(d=2, n=100, alpha=0.1, theta_norm=0.5, B=4, reps=10)
    grid = [
        dict(base, method="subsampled_hybrid"),
        dict(base, method="intersection"),
        dict(base, method="subsampled_split"),
        dict(base, method="subsampled_split"),
        dict(base, method="subsampled_split", theta_norm=0.75),
        dict(base, method="subsampled_hybrid", theta_norm=0.75, label="x"),
        dict(base, method="subsampled_split", B=1),
        dict(base, method="subsampled_hybrid", B=1),
        dict(base, method="subsampled_hybrid"),
    ]
    assert _groups("doughnut_fig7", grid) == [(0, 2, 3, 4, 8)]
    fig7 = engine.build_spec("doughnut_fig7", 1).grid
    assert [{fig7[ci]["d"] for ci in g} for g in _groups("doughnut_fig7", fig7)] == [{2}, {10}]
    assert [len(g) for g in _groups("doughnut_fig7", fig7)] == [18, 18]
    s4 = engine.build_spec("hybrid_cases_figS4", 1)
    assert _groups("hybrid_cases_figS4", s4.grid) == [tuple(range(i, i + 7)) for i in (0, 7, 14)]
    assert _groups("hybrid_cases_figS4", engine.build_spec("hybrid_cases_figS4", 1, B=1).grid) == []
    assert _groups("intersect_power_figS3", engine.build_spec("intersect_power_figS3", 1).grid) == []


@pytest.mark.parametrize("d", [2, 20], ids=["rows", "exact-law"])
def test_fig7_pair_rows_equal_each_method_run_alone_on_the_split_cells_stream(d):
    """Both rows of a pair, and their raw values, are those of each method
    run alone on the split cell's stream, on its draw at theta = 0 with the
    pair's theta added."""
    spec = engine.build_spec("doughnut_fig7", 77, ds=[d], n=60, theta_norms=[0.5], B=4, reps=700)
    rows, dumped = _run_with_dumps(spec)
    ctx = engine._RunContext(spec, RngStream(77), 2)
    pairs = _groups("doughnut_fig7", spec.grid)
    assert pairs == [(2, 3)] and all(r.status == "ok" for r in rows)
    for ci in pairs[0]:
        cell = spec.grid[ci]
        acc, alone = _alone(ctx, 2, cell)
        assert rows[ci] == engine._power_row(ctx, dict(cell), acc)[0]
        assert _dumped_bytes(dumped[ci]) == _dumped_bytes(alone)


@pytest.mark.parametrize("experiment_id", ["doughnut_fig7", "hybrid_cases_figS4"])
@pytest.mark.parametrize("d", [2, 20], ids=["rows", "exact-law"])
def test_group_rows_and_dumps_equal_each_cell_run_alone_on_the_groups_stream(experiment_id, d):
    """Every row of a group, and its raw values in chunk order, are those of
    the cell run alone on the stream of the group's first cell with its theta
    added; one and two workers give the same rows."""
    spec = engine.build_spec(experiment_id, 79, ds=[d], n=60, theta_norms=[0.0, 0.5, 1.2], B=4,
                             reps=700)
    rows, dumped = _run_with_dumps(spec)
    assert engine.run(spec, workers=1) == rows and all(r.status == "ok" for r in rows)
    ctx = engine._RunContext(spec, RngStream(79), 2)
    (group,) = _groups(experiment_id, spec.grid)
    assert len(group) == (6 if experiment_id == "doughnut_fig7" else 3)
    rows_of = _cell_rows(rows)
    for ci in group:
        cell = spec.grid[ci]
        acc, alone = _alone(ctx, group[0], cell)
        assert len({lo for _, lo, _ in alone}) == 2  # two chunks
        assert rows_of[ci] == engine.PRESETS[experiment_id].annulus.rows(ctx, dict(cell), acc)
        assert _dumped_bytes(dumped[ci]) == _dumped_bytes(alone)


@pytest.mark.parametrize("experiment_id", ["doughnut_fig7", "hybrid_cases_figS4"])
@pytest.mark.parametrize("d", [2, 20], ids=["rows", "exact-law"])
def test_the_first_cell_of_a_group_at_theta_0_keeps_the_bytes_of_its_own_draw(experiment_id, d):
    """The group draws at theta = 0 on its first cell's stream, so a first
    cell at theta = 0 gives the rows of a draw at its own theta, as it did
    before cells shared draws."""
    spec = engine.build_spec(experiment_id, 80, ds=[d], n=60, theta_norms=[0.0, 0.75], B=4, reps=700)
    rows = engine.run(spec, workers=2)
    ctx = engine._RunContext(spec, RngStream(80), 2)
    first = _groups(experiment_id, spec.grid)[0][0]
    cell = spec.grid[first]
    assert cell["theta_norm"] == 0.0
    acc, _ = _alone(ctx, first, cell, shifted=False)
    assert _cell_rows(rows)[first] == engine.PRESETS[experiment_id].annulus.rows(
        ctx, dict(cell), acc)


def test_a_failing_method_of_a_pair_leaves_the_other_row(monkeypatch):
    spec = engine.build_spec("doughnut_fig7", 78, ds=[2], n=60, theta_norms=[0.5], B=4, reps=30)
    expected = engine.run(spec)
    reducer = engine.dn.mc_reducer

    def failing(method, *args):
        if method != "subsampled_hybrid":
            return reducer(method, *args)

        def fail(forms):
            raise DomainError("injected")
        return fail

    monkeypatch.setattr(engine.dn, "mc_reducer", failing)
    rows = engine.run(spec, workers=2)
    statuses = {r.cell["method"]: r.status for r in rows}
    assert statuses["subsampled_hybrid"] == "error:DomainError"
    assert [r for r in rows if r.cell["method"] != "subsampled_hybrid"] == [
        r for r in expected if r.cell["method"] != "subsampled_hybrid"
    ]


@pytest.mark.parametrize("experiment_id", ["doughnut_fig7", "hybrid_cases_figS4"])
def test_a_failing_cell_leaves_the_other_rows_of_its_group(experiment_id, monkeypatch):
    """The hybrid test fails only at theta = 1.2, where its shifted means
    average about 1.2 in the first coordinate: it gets an error row, and
    every other cell of its group keeps its row.  A cell with a non-finite
    theta is refused before the run."""
    grid = engine.build_spec(experiment_id, 81, ds=[2], n=60, theta_norms=[0.0, 0.5, 1.2], B=4,
                             reps=600).grid
    with pytest.raises(DomainError, match="theta_norm must be finite and >= 0, got inf"):
        engine.ExperimentSpec(experiment_id, grid + (dict(grid[-1], theta_norm=math.inf),), 81)
    spec = engine.ExperimentSpec(experiment_id, grid, 81)
    expected = _cell_rows(engine.run(spec, workers=2))
    reducer = engine.dn.mc_reducer

    def failing(method, *args):
        reduce = reducer(method, *args)

        def maybe_fail(forms):
            if method == "subsampled_hybrid" and forms.a1.mean() > 0.85:
                raise NumericError("injected")
            return reduce(forms)
        return maybe_fail

    monkeypatch.setattr(engine.dn, "mc_reducer", failing)
    rows = _cell_rows(engine.run(spec, workers=2))
    assert len(_groups(experiment_id, spec.grid)) == 1
    bad = {ci for ci, cell in enumerate(spec.grid)
           if cell.get("method", "subsampled_hybrid") == "subsampled_hybrid"
           and cell["theta_norm"] > 1.0}
    assert len(bad) == 1
    for ci, (got, want) in enumerate(zip(rows, expected)):
        if ci in bad:
            assert {r.status for r in got} == {"error:NumericError"}
        else:
            assert got == want
