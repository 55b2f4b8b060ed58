"""Region constructions, log statistics, and the size theory closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrt import _kernels, data, engine, regions
from ulrt.doughnut import AnnulusNull, intersection_power_exact, subsampled_doughnut_test
from ulrt.errors import DomainError
from ulrt.regions import (
    Boundary2D,
    LogStatistic,
    SphericalRegion,
    classical_region,
    crossfit_log_statistic,
    expected_sq_radius_split,
    limiting_sq_radius,
    limiting_subsampling_region,
    limiting_vs_expected_split_ratio,
    log_threshold,
    optimal_split_proportion,
    prob_ratio_leq4_bounds,
    ratio_bounds,
    ratio_bounds_log,
    ratio_expected_split_vs_classical,
    region_boundary_2d,
    split_log_statistic,
    split_region,
    subsampling_log_statistic,
)
from ulrt.rng import RngStream

LN10 = math.log(10.0)


@pytest.fixture(scope="module")
def dataset():
    root = RngStream(301)
    sample = data.sample_gaussian(1000, 2, [0.0, 0.0], root.substream(0))
    pair = data.split(sample, 0.5, root.substream(1))
    return sample, pair


def golden_section_min(fn, lo=1e-4, hi=1.0 - 1e-4, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > tol:
        a = hi - invphi * (hi - lo)
        b = lo + invphi * (hi - lo)
        if fn(a) < fn(b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# classical region
# ---------------------------------------------------------------------------


def test_classical_region_sq_radius(dataset):
    sample, _ = dataset
    region = classical_region(sample, 0.1)
    assert region.sq_radius == pytest.approx(2.0 * LN10 / 1000.0, rel=1e-9)
    assert region.kind == "classical"


def test_classical_region_contains_center(dataset):
    sample, _ = dataset
    region = classical_region(sample, 0.1)
    assert region.contains(sample.mean)


def test_classical_membership_is_closed():
    region = SphericalRegion(np.zeros(2), 1.0, 0.1, "classical")
    assert region.contains([1.0, 0.0])
    open_region = SphericalRegion(np.zeros(2), 1.0, 0.1, "split")
    assert not open_region.contains([1.0, 0.0])


def test_contains_takes_a_point_or_a_batch():
    points = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 0.0]])
    for kind in ("classical", "split"):
        region = SphericalRegion(np.zeros(2), 1.0, 0.1, kind)
        batch = region.contains(points)
        assert batch.shape == (3,) and batch.dtype == bool
        singles = [region.contains(p) for p in points]
        assert all(type(s) is bool for s in singles)
        assert batch.tolist() == singles


# ---------------------------------------------------------------------------
# split statistic and region
# ---------------------------------------------------------------------------


def test_split_statistic_zero_at_estimation_mean(dataset):
    _, pair = dataset
    assert split_log_statistic(pair.mean1, pair).log_value == 0.0


def test_split_statistic_minimized_at_mean0(dataset):
    _, pair = dataset
    delta = float(np.sum((pair.mean0 - pair.mean1) ** 2))
    value = split_log_statistic(pair.mean0, pair).log_value
    assert value == pytest.approx(-(pair.m0 / 2.0) * delta, rel=1e-12)
    assert value <= 0.0


def test_split_membership_matches_statistic(dataset):
    _, pair = dataset
    region = split_region(pair, 0.1)
    thresh = log_threshold(0.1)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        theta = pair.mean0 + rng.normal(scale=0.12, size=2)
        member = region.contains(theta)
        stat = split_log_statistic(theta, pair).log_value
        assert member == (stat < thresh)
        # boundary distance identity to 1e-10
        if abs(stat - thresh) < 1e-10:
            continue


def test_split_statistic_region_algebraic_identity(dataset):
    # log T(theta) - ln(1/alpha) equals (m0/2) (dist^2 - sq_radius)
    _, pair = dataset
    region = split_region(pair, 0.1)
    thresh = log_threshold(0.1)
    rng = np.random.default_rng(8)
    for _ in range(200):
        theta = pair.mean0 + rng.normal(scale=0.2, size=2)
        stat = split_log_statistic(theta, pair).log_value
        dist_sq = float(np.sum((theta - region.center) ** 2))
        lhs = stat - thresh
        rhs = (pair.m0 / 2.0) * (dist_sq - region.sq_radius)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_split_region_estimation_mean_member(dataset):
    _, pair = dataset
    region = split_region(pair, 0.1)
    assert region.contains(pair.mean1)


def test_split_expected_sq_radius_value():
    assert expected_sq_radius_split(0.1, 2, 1000, 0.5) == pytest.approx(
        (4.0 / 1000.0) * (LN10 + 2.0), rel=1e-12
    )


def test_split_expected_sq_radius_monte_carlo():
    spec = engine.build_spec("split_p0_fig3", 4001, ds=[2], p0s=[0.5], reps=5000)
    row = engine.run(spec)[0]
    expected = 0.0172103404
    assert expected == pytest.approx((4.0 / 1000.0) * (LN10 + 2.0), abs=1e-9)
    assert abs(row.estimate - expected) <= 3.0 * row.stderr


def test_split_e_variable_bound():
    # mean of exp(log T) at the true mean stays below 1 within MC error
    n, d, reps = 20, 2, 20_000
    root = RngStream(881)
    values = np.empty(reps)
    for r in range(reps):
        rep = root.substream(r)
        sample = data.sample_gaussian(n, d, np.zeros(d), rep.substream(0))
        pair = data.split(sample, 0.5, rep.substream(1))
        values[r] = math.exp(split_log_statistic(np.zeros(d), pair).log_value)
    mc_se = values.std(ddof=1) / math.sqrt(reps)
    assert values.mean() <= 1.0 + 3.0 * mc_se


# ---------------------------------------------------------------------------
# squared distances: numpy's summation order, bit for bit
# ---------------------------------------------------------------------------


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def _spread(rng, shape):
    # magnitudes over six decades, so that any other summation order rounds differently
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def _old_log_mean_exp(values, axis=-1):
    """``_kernels.log_mean_exp`` as written before it reused its one temporary."""
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(peak, axis=axis) + np.log(np.mean(np.exp(values - peak), axis=axis))


def test_log_mean_exp_equals_the_two_temporary_expression_bit_for_bit():
    """Rows of finite values over many decades, rows holding -inf, and rows
    of -inf alone (whose result is -inf), along either axis."""
    values = RngStream(61).normals(40 * 137).reshape(40, 137) * 10.0 ** np.linspace(-3, 3, 137)
    values[3, ::5] = -np.inf
    values[7] = -np.inf
    for axis in (-1, 0):
        got, want = _kernels.log_mean_exp(values, axis=axis), _old_log_mean_exp(values, axis=axis)
        assert got.tobytes() == want.tobytes()
    assert _kernels.log_mean_exp(values)[7] == -np.inf
    assert _kernels.log_mean_exp(values[3]).tobytes() == _old_log_mean_exp(values[3]).tobytes()


@pytest.mark.parametrize("d", range(1, 141))
def test_sq_norm_is_numpys_sum_bit_for_bit(d, monkeypatch):
    """``sq_norm(a, b)`` equals ``np.sum(np.square(a - b), axis=-1)`` on both
    sides of its column gate; this also fails if numpy changes its order."""
    column_sums, columns = _kernels._column_sq_norm, []

    def spy(a, b, d):
        columns.append(d)
        return column_sums(a, b, d)

    monkeypatch.setattr(_kernels, "_column_sq_norm", spy)
    rng = np.random.default_rng(d)
    column_path = d <= _kernels._COLUMN_MAX_D
    gate = _kernels._COLUMN_MIN_VECTORS * d if column_path else 3
    cases = []
    for vectors in (gate - 1, gate):
        a = _spread(rng, (vectors, d))
        cases += [(a, _spread(rng, (vectors, d))), (a, 0.0), (a, 0.5)]
    means = _spread(rng, (gate, 2, d))
    cases.append((means[:, 0], means[:, 1]))  # strided outer axis
    cases.append((_spread(rng, (3, gate, d)), _spread(rng, (3, gate, d))))
    cases.append((_spread(rng, (gate, d)), _spread(rng, (5, 1, d))))  # broadcast (G, 1, d)
    for a, b in cases:
        _assert_same_bits(_kernels.sq_norm(a, b), np.sum(np.square(a - b), axis=-1))
    # the three cases one vector below the gate go to numpy, the rest by column
    assert columns == ([d] * (len(cases) - 3) if column_path else [])
    if column_path:
        # the column order itself, also where the gate sends vectors to numpy
        for a, b in cases:
            _assert_same_bits(column_sums(a, b, d), np.sum(np.square(a - b), axis=-1))


class _LoopSpy:
    """The compiled module, recording the points times splits (the size of
    ``out``) of each ``split_log_values`` call."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def split_log_values(self, theta, mean0, mean1, d, half_m0, out):
        self.calls.append(out.size)
        return self.lib.split_log_values(theta, mean0, mean1, d, half_m0, out)


def _statistic_as_written(thetas, mean0, mean1, m0):
    dist = np.sum(np.square(mean0 - thetas[..., None, :]), axis=-1)
    return 0.5 * m0 * (dist - np.sum(np.square(mean0 - mean1), axis=-1))


def _check_split_log_values(d, shapes, monkeypatch):
    """``split_log_values`` at ``(points, mean shape)`` pairs (``points`` 0
    for one ``(d,)`` point) equals the numpy expression bit for bit: on the
    compiled loop where its domain says so, and on the twin for the rest and
    when no library is loaded."""
    if _kernels._find_compiler() is None:
        pytest.skip("no C compiler found")
    spy = _LoopSpy(_kernels._compiled())
    monkeypatch.setattr(_kernels, "_loaded", [spy])
    rng = np.random.default_rng(1000 + d)
    expected_calls = []
    for points, shape in shapes:
        thetas = _spread(rng, (max(points, 1), d))
        thetas = thetas if points else thetas[0]
        mean0, mean1 = _spread(rng, (*shape, d)), _spread(rng, (*shape, d))
        want = _statistic_as_written(thetas, mean0, mean1, 37)
        _assert_same_bits(regions.split_log_values(thetas, mean0, mean1, 37), want)
        if (points == 0 or len(shape) == 1) and d <= _kernels._PAIRWISE_BLOCK:
            expected_calls.append(math.prod(thetas.shape[:-1] + shape))
        with monkeypatch.context() as numpy_only:
            numpy_only.setattr(_kernels, "_loaded", [None])
            _assert_same_bits(regions.split_log_values(thetas, mean0, mean1, 37), want)
    assert spy.calls == expected_calls
    return len(expected_calls)


def _split_counts(points):
    """One split, the B = 1 reducers' shape, and 98 splits, for ``points``
    points."""
    return [(points, (1,)), (points, (98,))]


@pytest.mark.parametrize("d", range(1, 141))
def test_split_log_values_is_the_statistic_as_written(d, monkeypatch):
    """Every d the loop sums (1 to 128) and some past it, at 21 grid points."""
    calls = _check_split_log_values(d, _split_counts(21), monkeypatch)
    assert calls == (2 if d <= _kernels._PAIRWISE_BLOCK else 0)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 20, 128, 129])
def test_split_log_values_takes_the_loop_only_in_its_domain(d, monkeypatch):
    """One point, 21 and 180 points against ``(R, d)`` means, and one point
    against ``(C, B, d)`` means, at every split count."""
    shapes = _split_counts(0) + _split_counts(21) + _split_counts(180)
    shapes += [(0, (31, 66)), (0, (64, 32)), (0, (2048,)), (21, (1, 98))]
    calls = _check_split_log_values(d, shapes, monkeypatch)
    # (21, d) points against (1, 98, d) means broadcast, so they stay on numpy
    assert calls == (9 if d <= _kernels._PAIRWISE_BLOCK else 0)


@pytest.mark.parametrize("numpy_loops", [False, True], ids=["compiled", "numpy"])
def test_fig2_chunk_in_one_call_equals_its_points_one_by_one(numpy_loops, monkeypatch):
    """fig2 scores a chunk's splits at all grid points in one call, then takes
    ``np.exp`` in place; its rows equal the per-point values and exps."""
    if numpy_loops:
        monkeypatch.setattr(_kernels, "_loaded", [None])
    n, d, k, chunk = 100, 20, 50, 8192
    sample = data.sample_gaussian(n, d, np.zeros(d), RngStream(17))
    keys = RngStream(18).substream_keys(chunk)
    mean0, mean1 = _kernels.split_means(sample.values[None], keys[None], k)
    thetas = (sample.mean.mean() + np.linspace(-0.2, 0.2, 21))[:, None] * np.ones(d)
    values = regions.split_log_values(thetas, mean0[0], mean1[0], k)
    np.exp(values, out=values)
    for g, theta in enumerate(thetas):
        _assert_same_bits(values[g], np.exp(regions.split_log_values(theta, mean0[0], mean1[0], k)))


# ---------------------------------------------------------------------------
# cross-fit statistic
# ---------------------------------------------------------------------------


def test_crossfit_equals_split_when_means_coincide():
    # the half-split {(1, 2), (3, -1)} | {(3, -1), (1, 2)} of four observations
    pair = data.SplitPair([[2.0, 0.5]], [[2.0, 0.5]], 2, 2)
    for theta in ([0.0, 0.0], [2.0, 0.5], [-1.0, 3.0]):
        split_val = split_log_statistic(theta, pair).log_value
        cf_val = crossfit_log_statistic(theta, pair).log_value
        assert cf_val == pytest.approx(split_val, abs=1e-12)


def test_crossfit_midpoint_simplification(dataset):
    sample, pair = dataset
    delta = float(np.sum((pair.mean0 - pair.mean1) ** 2))
    value = crossfit_log_statistic(sample.mean, pair).log_value
    assert value == pytest.approx(-(3.0 * 1000.0 / 16.0) * delta, rel=1e-10)


def test_crossfit_contained_in_recentered_ball(dataset):
    sample, pair = dataset
    thresh = log_threshold(0.1)
    ball_sq = (4.0 / 1000.0) * LN10 + float(np.sum((pair.mean0 - pair.mean1) ** 2))
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(10_000):
        theta = sample.mean + rng.normal(scale=0.2, size=2)
        if crossfit_log_statistic(theta, pair).log_value < thresh:
            hits += 1
            assert float(np.sum((theta - sample.mean) ** 2)) < ball_sq
    assert hits > 100  # the probe cloud actually intersects the region


# ---------------------------------------------------------------------------
# subsampling statistic
# ---------------------------------------------------------------------------


def test_subsampling_single_split_reduction(dataset):
    _, pair = dataset
    theta = [0.01, -0.02]
    lone = subsampling_log_statistic(theta, pair).log_value
    assert lone == split_log_statistic(theta, pair).log_value


def test_subsampling_log_sum_exp_shift_invariance(dataset):
    sample, _ = dataset
    splits = data.subsample_splits(sample, 50, 0.5, RngStream(9))
    theta = np.array([0.05, 0.0])
    stat = subsampling_log_statistic(theta, splits).log_value
    logs = regions.split_log_values(theta, splits.mean0, splits.mean1, splits.m0)
    peak = logs.max()
    reference = peak + math.log(np.mean(np.exp(logs - peak)))
    assert stat == pytest.approx(reference, abs=1e-12)


def test_subsampling_matches_batch_kernel(dataset):
    sample, _ = dataset
    splits = data.subsample_splits(sample, 50, 0.5, RngStream(10))
    thetas = np.array([[0.0, 0.0], [0.08, -0.03], [0.2, 0.2]])
    batch = regions.log_values("subsampling", thetas, splits.mean0, splits.mean1, 500)
    for g, theta in enumerate(thetas):
        direct = subsampling_log_statistic(theta, splits).log_value
        assert batch[g] == pytest.approx(direct, abs=1e-12)


def test_subsampling_stable_for_huge_exponents():
    sample = data.sample_gaussian(1_000_000, 1, [0.0], RngStream(12))
    splits = data.subsample_splits(sample, 3, 0.5, RngStream(13))
    theta = splits.mean0[0] + 10.0
    stat = subsampling_log_statistic(theta, splits).log_value
    assert math.isfinite(stat)
    assert stat > 2.0e7  # exponent about (n/4) * 100 in the raw domain


def test_subsampling_requires_splits():
    with pytest.raises(DomainError):
        no_splits = data.SplitPair(np.empty((0, 1)), np.empty((0, 1)), 5, 5)
        subsampling_log_statistic([0.0], no_splits)


@pytest.mark.parametrize("mean0, mean1, m0, m1", [
    ([0.0, 1.0], [1.0, 0.0], 2, 2),  # (d,) means, not (B, d)
    ([[0.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]], 2, 2),  # parts of different B
    ([[0.0, 1.0]], [[1.0, 0.0]], 0, 4),  # an empty part
], ids=["one-dimensional", "mismatched", "empty-part"])
def test_split_record_refuses_malformed_means(mean0, mean1, m0, m1):
    with pytest.raises(DomainError):
        data.SplitPair(mean0, mean1, m0, m1)


def test_one_split_functions_refuse_a_record_of_many(dataset):
    sample, _ = dataset
    splits = data.subsample_splits(sample, 2, 0.5, RngStream(9))
    for call in (
        lambda: split_log_statistic([0.0, 0.0], splits),
        lambda: crossfit_log_statistic([0.0, 0.0], splits),
        lambda: split_region(splits, 0.1),
        lambda: regions.boundaries_2d(sample, splits, 0.1, 8, 1e-3),
    ):
        with pytest.raises(DomainError, match="expected one split, got a record of B=2"):
            call()


def test_boundaries_refuse_splits_of_another_sample(dataset):
    """``boundaries_2d`` traces from ``sample``'s mean, so both records must
    split ``sample``: n = m0 + m1 of each is checked against it."""
    sample, pair = dataset
    other = data.sample_gaussian(998, 2, [0.0, 0.0], RngStream(14))
    other_splits = data.subsample_splits(other, 3, 0.5, RngStream(15))
    with pytest.raises(DomainError, match="splits of 1000 observations do not split the sample of n=998"):
        regions.boundaries_2d(other, pair, 0.1, 8, 1e-3)
    with pytest.raises(DomainError, match="splits of 998 observations do not split the sample of n=1000"):
        regions.boundaries_2d(sample, pair, 0.1, 8, 1e-3, other_splits)


# ---------------------------------------------------------------------------
# limiting subsampling region
# ---------------------------------------------------------------------------


def test_limiting_region_value(dataset):
    sample, _ = dataset
    region = limiting_subsampling_region(sample, 0.1)
    assert region.sq_radius == pytest.approx((10.0 / 3000.0) * math.log(25.0), rel=1e-12)
    assert region.kind == "limiting_subsampling"


@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_limiting_vs_expected_split_identity(d):
    alpha, n = 0.1, 1000
    sample = data.sample_gaussian(4, d, np.zeros(d), RngStream(1))
    lim = (10.0 / (3.0 * n)) * (0.5 * d * math.log(2.5) + LN10)
    expected_split = expected_sq_radius_split(alpha, d, n, 0.5)
    assert lim / expected_split == pytest.approx(
        limiting_vs_expected_split_ratio(alpha, d), rel=1e-12
    )


def test_limiting_vs_classical_high_dim_constant():
    assert regions.LIMITING_VS_CLASSICAL_HIGH_DIM == pytest.approx(
        (5.0 / 3.0) * math.log(2.5), rel=1e-15
    )
    # the finite-d ratio approaches the constant from within 2 percent by 1e5
    ratio_1e3 = limiting_ratio_vs_classical(0.1, 1000)
    ratio_1e5 = limiting_ratio_vs_classical(0.1, 100_000)
    limit = regions.LIMITING_VS_CLASSICAL_HIGH_DIM
    assert abs(ratio_1e5 - limit) < abs(ratio_1e3 - limit)
    assert ratio_1e5 == pytest.approx(limit, rel=0.02)


def limiting_ratio_vs_classical(alpha: float, d: int) -> float:
    from ulrt import specfun

    lim = (10.0 / 3.0) * (0.5 * d * math.log(2.5) + math.log(1.0 / alpha))
    return lim / specfun.chi2_upper_quantile(alpha, d)


# ---------------------------------------------------------------------------
# split proportion theory
# ---------------------------------------------------------------------------


def test_optimal_split_proportion_frozen_value():
    # frozen from golden-section minimization of r(p0): 0.7030459229
    oracle = golden_section_min(
        lambda p: (2.0 / p) * LN10 + (1.0 / p + 1.0 / (1.0 - p))
    )
    assert oracle == pytest.approx(0.7030459229, abs=1e-8)
    assert optimal_split_proportion(0.1, 1) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.01, 1e-4])
@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_optimal_split_matches_golden_section(alpha, d):
    L = math.log(1.0 / alpha)
    oracle = golden_section_min(
        lambda p: (2.0 / p) * L + (1.0 / p + 1.0 / (1.0 - p)) * d
    )
    assert optimal_split_proportion(alpha, d) == pytest.approx(oracle, abs=1e-6)


def test_optimal_split_high_dim_limit():
    assert 0.499 <= optimal_split_proportion(0.1, 10**8) <= 0.501


def test_optimal_split_small_alpha_limit():
    assert optimal_split_proportion(math.exp(-100.0), 1) > 0.93


@given(
    alpha_exp=st.floats(0.01, 200.0),
    d=st.integers(1, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_optimal_split_always_in_half_one(alpha_exp, d):
    p0 = optimal_split_proportion(math.exp(-alpha_exp), d)
    assert 0.5 < p0 < 1.0


def test_expected_sq_radius_minimized_at_p0star():
    for alpha in (0.1, 0.01):
        for d in (1, 2, 10, 100):
            star = optimal_split_proportion(alpha, d)
            r_star = expected_sq_radius_split(alpha, d, 1000, star)
            for p0 in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                assert r_star <= expected_sq_radius_split(alpha, d, 1000, p0) + 1e-15


def test_expected_sq_radius_discretely_convex():
    grid = np.linspace(0.05, 0.95, 19)
    values = [expected_sq_radius_split(0.1, 5, 1000, float(p)) for p in grid]
    second = np.diff(values, 2)
    assert np.all(second > 0.0)


def test_expected_sq_radius_boundary_rejected():
    with pytest.raises(DomainError):
        expected_sq_radius_split(0.1, 2, 1000, 0.0)
    with pytest.raises(DomainError):
        expected_sq_radius_split(0.1, 2, 1000, 1.0)


@pytest.mark.parametrize("n,d", [(1, 2), (0, 2), (-5, 2), (1000, 0), (1000, -5)])
def test_closed_forms_refuse_n_below_2_or_d_below_1(n, d):
    for closed_form in (lambda: expected_sq_radius_split(0.1, d, n, 0.5),
                        lambda: limiting_sq_radius(0.1, d, n),
                        lambda: intersection_power_exact(0.5, n, d, 0.1)):
        with pytest.raises(DomainError, match="need n >= 2 and d >= 1"):
            closed_form()
    if d < 1:
        with pytest.raises(DomainError, match="degrees of freedom must be a positive integer"):
            limiting_vs_expected_split_ratio(0.1, d)


@pytest.mark.parametrize("d", [2.5, True])
@pytest.mark.parametrize("closed_form", [
    lambda d: optimal_split_proportion(0.1, d),
    lambda d: limiting_vs_expected_split_ratio(0.1, d),
    lambda d: ratio_bounds_log(2.0, d),
    lambda d: expected_sq_radius_split(0.1, d, 1000, 0.5),
    lambda d: limiting_sq_radius(0.1, d, 1000),
], ids=["p0star", "limiting_vs_split", "ratio_bounds_log", "expected_sq_radius", "limiting_sq_radius"])
def test_closed_forms_refuse_a_non_integer_or_boolean_d(closed_form, d):
    """Each used to return a number at d = 2.5 or True (p0* was 0.6277 at
    2.5); they now share the package's one d check."""
    with pytest.raises(DomainError, match=f"degrees of freedom must be a positive integer, got {d}"):
        closed_form(d)


# ---------------------------------------------------------------------------
# ratio and bounds
# ---------------------------------------------------------------------------


def test_ratio_value():
    assert ratio_expected_split_vs_classical(0.1, 2) == pytest.approx(
        (4.0 * LN10 + 8.0) / (2.0 * LN10), rel=1e-9
    )
    assert ratio_expected_split_vs_classical(0.1, 2) == pytest.approx(3.7372, abs=5e-4)


@pytest.mark.parametrize("alpha", [0.17, 0.1, 0.01, 1e-6])
@pytest.mark.parametrize("d", [2, 10, 100])
def test_ratio_within_bounds_on_domain(alpha, d):
    lower, upper, ok = ratio_bounds(alpha, d)
    assert ok
    assert lower <= upper
    ratio = ratio_expected_split_vs_classical(alpha, d)
    assert lower <= ratio <= upper


def test_ratio_bounds_high_dim_limit():
    lower, upper, ok = ratio_bounds(0.1, 10**8)
    assert ok
    assert abs(lower - 4.0) <= 0.004
    assert abs(upper - 4.0) <= 0.004


def test_ratio_bounds_small_alpha_limit():
    lower, upper, ok = ratio_bounds_log(1e8, 2)
    assert ok
    assert abs(lower - 2.0) <= 0.01
    assert abs(upper - 2.0) <= 0.01


def test_ratio_bounds_outside_domain_flagged():
    lower, upper, ok = ratio_bounds(0.5, 5)
    assert not ok
    assert math.isnan(upper)
    assert lower > 0.0
    lower, upper, ok = ratio_bounds(0.05, 1)  # d=1 needs alpha <= exp(-4.045)
    assert not ok


def test_ratio_not_monotone_in_alpha():
    # alpha1 < alpha2 yet ratio(alpha1) > ratio(alpha2)
    d = 10
    r_small = ratio_expected_split_vs_classical(math.exp(-700.0), d)
    r_mid = ratio_expected_split_vs_classical(math.exp(-100.0), d)
    assert math.exp(-700.0) < math.exp(-100.0)
    assert r_small > r_mid


def test_prob_ratio_bounds_ordering():
    for alpha in (0.1, 0.05):
        for d in (2, 10, 100):
            lower, upper, ok = prob_ratio_leq4_bounds(alpha, d)
            assert ok
            assert lower <= upper
            assert upper <= 1.0 - alpha


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------


def test_boundary_recovers_sphere(dataset):
    _, pair = dataset
    region = split_region(pair, 0.1)
    radius = math.sqrt(region.sq_radius)
    boundary = region_boundary_2d(
        region.contains, region.center, 64, 1e-8, 10.0 * radius
    )
    assert boundary.failed_angles.size == 0
    assert np.all(np.abs(boundary.radii() - radius) <= 1e-7)
    assert boundary.polygon_area() == pytest.approx(math.pi * region.sq_radius, rel=1e-2)


def test_boundary_reports_failed_rays():
    # a half plane has no boundary in the +x direction within the search radius
    def member(theta):
        return theta[:, 0] < 0.5

    boundary = region_boundary_2d(member, np.zeros(2), 8, 1e-6, 1.0)
    assert boundary.failed_angles.size > 0
    assert boundary.points.shape[0] + boundary.failed_angles.size == 8


def test_boundary_requires_member_center(dataset):
    _, pair = dataset
    region = split_region(pair, 0.1)
    with pytest.raises(DomainError):
        region_boundary_2d(
            region.contains, region.center + 10.0, 16, 1e-6, 1.0
        )


def test_crossfit_polygon_area_below_split(dataset):
    sample, pair = dataset
    thresh = log_threshold(0.1)
    split_reg = split_region(pair, 0.1)
    search = 10.0 * math.sqrt(split_reg.sq_radius)
    cf_boundary = region_boundary_2d(
        regions.crossfit_member(pair, thresh), sample.mean, 128, 1e-7, search
    )
    split_boundary = region_boundary_2d(
        split_reg.contains, split_reg.center, 128, 1e-7, search
    )
    assert cf_boundary.polygon_area() <= split_boundary.polygon_area() + 1e-9


def test_subsampling_boundary_inside_split_seeded():
    # seed chosen so the single-split region is wide enough to contain the
    # subsampling set on every ray; typical seeds only contain most rays
    root = RngStream(39)
    sample = data.sample_gaussian(1000, 2, [0.0, 0.0], root.substream(0))
    pair = data.split(sample, 0.5, root.substream(1))
    split_reg = split_region(pair, 0.1)
    splits = data.subsample_splits(sample, 100, 0.5, root.substream(2))
    member = regions.subsampling_member(splits, log_threshold(0.1))
    boundary = region_boundary_2d(
        member, sample.mean, 90, 1e-6, 10.0 * math.sqrt(split_reg.sq_radius)
    )
    inside = np.array([split_reg.contains(p) for p in boundary.points])
    assert inside.mean() >= 0.95


def _per_ray_boundary(evaluator, center_hint, rays, tol, search_radius):
    """The per-ray scalar bisection that ``region_boundary_2d`` replaced,
    kept verbatim as the reference; ``evaluator`` takes one point."""
    center = np.asarray(center_hint, dtype=np.float64).reshape(-1)
    angles = 2.0 * math.pi * np.arange(rays) / rays
    points = []
    kept = []
    failed = []
    for phi in angles:
        direction = np.array([math.cos(phi), math.sin(phi)])
        if evaluator(center + search_radius * direction):
            failed.append(phi)
            continue
        lo, hi = 0.0, search_radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if evaluator(center + mid * direction):
                lo = mid
            else:
                hi = mid
        radius = 0.5 * (lo + hi)
        kept.append(phi)
        points.append(center + radius * direction)
    return (
        np.asarray(kept, dtype=np.float64),
        np.asarray(points, dtype=np.float64).reshape(-1, 2),
        np.asarray(failed, dtype=np.float64),
    )


def _boundary_cases():
    root = RngStream(301)
    sample = data.sample_gaussian(1000, 2, [0.0, 0.0], root.substream(0))
    pair = data.split(sample, 0.5, root.substream(1))
    split_reg = split_region(pair, 0.1)
    search = 10.0 * math.sqrt(split_reg.sq_radius)
    splits = data.subsample_splits(sample, 100, 0.5, root.substream(2))
    thresh = log_threshold(0.1)
    crossfit = regions.crossfit_member(pair, thresh)
    half_plane = lambda theta: theta[:, 0] < 0.5  # noqa: E731
    return {
        "split_sphere": (split_reg.contains, split_reg.center, 64, 1e-8, search),
        "crossfit": (crossfit, sample.mean, 90, 1e-6, search),
        "subsampling_B100": (
            regions.subsampling_member(splits, thresh), sample.mean, 90, 1e-6, search
        ),
        "half_plane": (half_plane, np.zeros(2), 8, 1e-6, 1.0),
        "odd_rays": (crossfit, sample.mean, 7, 1e-6, search),
        # tol is the width after 20 halvings in exact arithmetic, so whether
        # a ray takes a 21st step depends on how its hi - lo rounds
        "uneven_widths": (crossfit, sample.mean, 45, 0.3 / 2**20, 0.3),
    }


@pytest.mark.parametrize("case", sorted(_boundary_cases()))
def test_boundary_matches_per_ray_bisection(case):
    evaluator, center, rays, tol, search = _boundary_cases()[case]
    calls = []

    def counted(thetas):
        calls.append(thetas.shape[0])
        return evaluator(thetas)

    boundary = region_boundary_2d(counted, center, rays, tol, search)
    angles, points, failed = _per_ray_boundary(
        lambda theta: bool(evaluator(theta[None])[0]), center, rays, tol, search
    )
    np.testing.assert_array_equal(boundary.angles, angles)
    np.testing.assert_array_equal(boundary.points, points)
    np.testing.assert_array_equal(boundary.failed_angles, failed)
    assert max(calls) <= rays
    if case == "uneven_widths":
        assert 0 < calls[-1] < calls[2] == rays


def _outlier_splits():
    """A sample of 1000 points with one observation at (1000, 0), and a
    record of 100 of its splits whose split 0 holds the outlier in part 0."""
    root = RngStream(301)
    values = data.sample_gaussian(1000, 2, [0.0, 0.0], root.substream(0)).values.copy()
    values[0] = (1000.0, 0.0)
    sample = data.SampleSet.from_values(values)
    drawn = data.subsample_splits(sample, 100, 0.5, root.substream(2))
    order = np.argsort(drawn.mean1[:, 0] - drawn.mean0[:, 0] > 1.0, kind="stable")
    assert drawn.mean0[order[0], 0] - drawn.mean1[order[0], 0] > 1.0
    return sample, data.SplitPair(drawn.mean0[order], drawn.mean1[order], drawn.m0, drawn.m1)


def _margin_cases():
    """Every ``_boundary_cases`` case in margin form, as ``(margin, member,
    center, rays, tol, search)``, with four more: a search radius at which
    the subsampling margin's ``exp`` overflows on some rays, a record whose
    split statistics differ from split 0's by more than 709 inside the set,
    a cross-fit statistic that is NaN on part of the plane, and a margin
    whose secant steps settle where it touches zero inside the region."""
    root = RngStream(301)
    sample = data.sample_gaussian(1000, 2, [0.0, 0.0], root.substream(0))
    pair = data.split(sample, 0.5, root.substream(1))
    split_reg = split_region(pair, 0.1)
    splits = data.subsample_splits(sample, 100, 0.5, root.substream(2))
    thresh = log_threshold(0.1)
    crossfit = regions._crossfit_margin(pair, thresh)
    subsampling = regions._subsampling_margin(splits, thresh)
    margins = {
        "split_sphere": lambda theta: split_reg.sq_radius - _kernels.sq_norm(theta, split_reg.center),
        "crossfit": crossfit,
        "subsampling_B100": subsampling,
        "half_plane": lambda theta: 0.5 - theta[:, 0],
        "odd_rays": crossfit,
        "uneven_widths": crossfit,
    }
    cases = {name: (margin, *_boundary_cases()[name]) for name, margin in margins.items()}

    def cut(thetas):  # NaN wherever theta lies 0.03 or more above the mean
        values = regions.log_values("crossfit", thetas, pair.mean0, pair.mean1, pair.m0, pair.m1)
        return np.where(thetas[..., 1] - sample.mean[1] >= 0.03, np.nan, values)

    cases["overflowing_probe"] = (
        subsampling, regions.subsampling_member(splits, thresh), sample.mean, 90, 1e-6, 10.0)
    outlier_sample, outlier_splits = _outlier_splits()
    cases["outlier_in_part0"] = (
        regions._subsampling_margin(outlier_splits, thresh), regions.subsampling_member(outlier_splits, thresh),
        outlier_sample.mean, 90, 1e-6, 4.0)
    cases["nan_statistic"] = (
        lambda thetas: thresh - cut(thetas), lambda thetas: cut(thetas) < thresh, sample.mean, 90, 1e-6, 1.0)

    def touching(thetas):  # positive on |theta| < 0.3, nearly 0 at |theta| = 0.1
        r = np.hypot(thetas[:, 0], thetas[:, 1])
        return np.where(r < 0.3, np.abs(r - 0.1) + 1e-12, -9.9)

    # the first secant step lands on |theta| = 0.1, where the steps settle
    cases["touching_margin"] = (
        touching, lambda thetas: touching(thetas) > 0, np.zeros(2), 16, 1e-6, 1.0)
    return cases


@pytest.mark.parametrize("case", sorted(_margin_cases()))
def test_margin_boundary_matches_per_ray_bisection(case):
    """A margin gives, bit for bit, the boundary that per-ray bisection of
    its boolean evaluator gives, evaluating far fewer points."""
    margin, member, center, rays, tol, search = _margin_cases()[case]
    calls, member_calls = [], []

    def counted(thetas):
        calls.append(thetas.shape[0])
        return margin(thetas)

    def member_counted(thetas):
        member_calls.append(thetas.shape[0])
        return member(thetas)

    boundary = region_boundary_2d(counted, center, rays, tol, search)
    angles, points, failed = _per_ray_boundary(
        lambda theta: bool(member(theta[None])[0]), center, rays, tol, search
    )
    np.testing.assert_array_equal(boundary.angles, angles)
    np.testing.assert_array_equal(boundary.points, points)
    np.testing.assert_array_equal(boundary.failed_angles, failed)
    assert max(calls) <= rays
    region_boundary_2d(member_counted, center, rays, tol, search)
    if case in ("crossfit", "subsampling_B100"):
        assert sum(calls) <= 0.6 * sum(member_calls)
    if case == "overflowing_probe":
        with np.errstate(over="ignore"):
            outer = margin(center + search * regions._ray_dirs(rays)[1])
        assert 0 < np.isneginf(outer).sum() < rays
    if case == "outlier_in_part0":
        # on some boundary points a sum taken relative to v_0 alone would overflow
        splits = _outlier_splits()[1]
        values = regions.split_log_values(points, splits.mean0, splits.mean1, splits.m0)
        assert 0 < (values.max(axis=-1) - values[:, 0] > 710.0).sum() < rays
    if case == "nan_statistic":
        assert 0 < (np.abs(points[:, 1] - center[1] - 0.03) <= tol).sum() < rays


@pytest.mark.sweep
def test_margin_boundaries_equal_boolean_traces_sweep():
    """``boundaries_2d`` traces margins; on 200 fig1-shaped records its
    boundaries equal, bit for bit, the bisection of the boolean evaluators."""
    root = RngStream(2029)
    for i in range(200):
        stream = root.substream(i)
        sample = data.sample_gaussian(1000, 2, [0.0, 0.0], stream.substream(0))
        pair = data.split(sample, 0.5, stream.substream(1))
        splits = data.subsample_splits(sample, 100, 0.5, stream.substream(2))
        thresh = log_threshold(0.1)
        search = 10.0 * math.sqrt(split_region(pair, 0.1).sq_radius)
        traced = regions.boundaries_2d(sample, pair, 0.1, 180, 1e-5, splits)
        members = (regions.crossfit_member(pair, thresh), regions.subsampling_member(splits, thresh))
        for boundary, member in zip(traced, members):
            reference = region_boundary_2d(member, sample.mean, 180, 1e-5, search)
            for field in ("angles", "points", "failed_angles"):
                np.testing.assert_array_equal(getattr(boundary, field), getattr(reference, field))


# ---------------------------------------------------------------------------
# log statistic plumbing
# ---------------------------------------------------------------------------


def test_log_statistic_rejection_rule():
    stat = LogStatistic(math.log(10.0), "split", 100, alpha=0.1)
    assert stat.rejects()
    assert not LogStatistic(math.log(10.0) - 1e-9, "split", 100).rejects(0.1)
    with pytest.raises(DomainError):
        LogStatistic(0.0, "split", 100).rejects()


def test_log_statistic_kind_validation():
    with pytest.raises(DomainError):
        LogStatistic(0.0, "bogus", 10)


def test_dimension_mismatch_rejected(dataset):
    _, pair = dataset
    with pytest.raises(DomainError):
        split_log_statistic([0.0, 0.0, 0.0], pair)


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    """``==`` on two records with equal arrays returns a bool, not numpy's
    ambiguous truth value, and ``hash`` does not raise."""
    sample = data.sample_gaussian(20, 2, [0.0, 0.0], RngStream(11))
    twins = [
        lambda: data.SampleSet.from_values(sample.values),
        lambda: data.split(sample, 0.5, RngStream(12)),
        lambda: classical_region(sample, 0.1),
        lambda: Boundary2D(np.zeros(2), np.zeros(3), np.zeros((3, 2)), np.zeros(0)),
        lambda: subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 4, "hybrid", RngStream(13)),
    ]
    for make in twins:
        first, second = make(), make()
        assert (first == second) is False and (first != second) is True
        assert (first == first) is True
        assert isinstance(hash(first), int) and len({first, second, first}) == 2
