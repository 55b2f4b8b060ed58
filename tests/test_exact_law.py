"""Split sums of B > 1 replications drawn from their exact law given the
subsets (``ulrt._kernels.exact_split_means``, which
``ulrt.data.replicate_split_means`` takes from ``d >= data._EXACT_MIN_D``),
and fig7's split and hybrid cells sharing one draw."""

import numpy as np
import pytest

from ulrt import _kernels, data, engine
from ulrt.errors import DomainError
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


def test_fig7_pairs_join_equal_b_above_1_cells_only():
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
    assert engine._fig7_pairs(grid) == [(2, 0), (3, 8)]


@pytest.mark.parametrize("d", [2, 20], ids=["rows", "exact-law"])
def test_fig7_pair_rows_equal_each_method_run_alone_on_the_split_cells_stream(d):
    """Both rows of a pair, and their raw values, are those of each method
    on the split cell's own draw: the split rows are the ones that cell gives
    alone, and the hybrid rows share its draw."""
    spec = engine.build_spec("doughnut_fig7", 77, ds=[d], n=60, theta_norms=[0.5, 1.2], B=4,
                             reps=700)
    dumped: dict = {}
    rows = engine.run(spec, workers=2, dump=lambda *entry: dumped.setdefault(entry[0], []).append(entry[1:]))
    ctx = engine._RunContext(spec, RngStream(77), 2)
    pairs = engine._fig7_pairs(spec.grid)
    assert len(pairs) == 2 and all(r.status == "ok" for r in rows)
    for pair in pairs:
        split_ci = pair[0]
        for ci in pair:
            cell = spec.grid[ci]
            alone: list = []
            acc = engine._annulus_draw(ctx, split_ci, cell, {
                cell["method"]: lambda name, lo, values: alone.append((name, lo, values))
            })[cell["method"]]
            assert rows[ci] == engine._mc_annulus_row(ctx, dict(cell), acc)[0]
            assert [(name, lo, v.tobytes()) for name, lo, v in dumped[ci]] == [
                (name, lo, np.asarray(v, dtype=np.float64).tobytes()) for name, lo, v in alone
            ]


def test_a_failing_method_of_a_pair_leaves_the_other_row(monkeypatch):
    spec = engine.build_spec("doughnut_fig7", 78, ds=[2], n=60, theta_norms=[0.5], B=4, reps=30)
    expected = engine.run(spec)
    reducer = engine.dn.mc_reducer

    def failing(method, *args):
        if method != "subsampled_hybrid":
            return reducer(method, *args)

        def fail(mean0, mean1):
            raise DomainError("injected")
        return fail

    monkeypatch.setattr(engine.dn, "mc_reducer", failing)
    rows = engine.run(spec, workers=2)
    statuses = {r.cell["method"]: r.status for r in rows}
    assert statuses["subsampled_hybrid"] == "error:DomainError"
    assert [r for r in rows if r.cell["method"] != "subsampled_hybrid"] == [
        r for r in expected if r.cell["method"] != "subsampled_hybrid"
    ]
