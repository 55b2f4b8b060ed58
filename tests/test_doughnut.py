"""Annulus-null tests: projection, statistics, case selection, validity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrt import data, specfun
from ulrt.doughnut import (
    AnnulusNull,
    HybridCase,
    doughnut_ripr_log_statistic,
    doughnut_split_log_statistic,
    hybrid_log_statistic,
    intersection_power_exact,
    intersection_test,
    mc_reducer,
    project_to_annulus,
    subsampled_doughnut_test,
    _split_forms,
)
from ulrt.errors import DegenerateDirectionError, DomainError, NumericError
from ulrt.rng import RngStream


def pair_with_means(mean0, mean1):
    """The half-split of a 4-observation sample with the given part means."""
    return data.SplitPair(np.atleast_2d(mean0), np.atleast_2d(mean1), 2, 2)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_keeps_interior_point():
    y = np.array([0.45, 0.6])  # norm 0.75
    assert np.allclose(project_to_annulus(y), y)


def test_projection_clips_outside():
    assert np.allclose(project_to_annulus(np.array([2.0, 0.0])), [1.0, 0.0])


def test_projection_pushes_inside_out():
    assert np.allclose(project_to_annulus(np.array([0.1, 0.0])), [0.5, 0.0])


def test_projection_idempotent_samples():
    rng = np.random.default_rng(2)
    for _ in range(200):
        y = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        if np.linalg.norm(y) == 0.0:
            continue
        once = project_to_annulus(y)
        twice = project_to_annulus(once)
        assert np.allclose(once, twice, atol=1e-12)


@given(
    scale=st.floats(0.01, 4.0),
    angle=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=100, deadline=None)
def test_projection_idempotent_property(scale, angle):
    y = scale * np.array([math.cos(angle), math.sin(angle)])
    once = project_to_annulus(y)
    assert np.allclose(project_to_annulus(once), once, atol=1e-12)


def test_projection_optimality():
    rng = np.random.default_rng(7)
    null = AnnulusNull()
    for _ in range(10_000):
        y = rng.normal(size=2) * rng.uniform(0.05, 2.5)
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            continue
        proj = project_to_annulus(y, null)
        radius = rng.uniform(null.r_in, null.r_out)
        theta = radius * _random_direction(rng, 2)
        assert np.linalg.norm(proj - y) <= np.linalg.norm(theta - y) + 1e-12


def _random_direction(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_projection_zero_vector_raises():
    with pytest.raises(DegenerateDirectionError):
        project_to_annulus(np.zeros(2))


def test_annulus_validation():
    with pytest.raises(DomainError):
        AnnulusNull(r_in=0.0)
    with pytest.raises(DomainError):
        AnnulusNull(r_in=1.5, r_out=1.0)


# ---------------------------------------------------------------------------
# intersection test
# ---------------------------------------------------------------------------


def test_intersection_never_rejects_interior_mean():
    rng = RngStream(31)
    theta = np.array([0.53, 0.53])  # norm ~0.75
    sample = data.sample_gaussian(4000, 2, theta, rng)
    assert abs(np.linalg.norm(sample.mean) - 0.75) < 0.1
    assert not intersection_test(sample, AnnulusNull(), 0.1)


def test_intersection_rejects_far_mean():
    sample = data.sample_gaussian(1000, 2, [2.0, 0.0], RngStream(32))
    assert intersection_test(sample, AnnulusNull(), 0.1)


def test_intersection_exact_interior_is_type_one_error():
    value = intersection_power_exact(0.75, 1000, 2, 0.1)
    assert value <= 0.1


def test_intersection_exact_deep_interior_is_not_truncation_noise():
    # both edges of the annulus lie 8 or more standard deviations from the
    # noncentral mean, so the size is far below the series' truncation level
    assert intersection_power_exact(0.75, 1000, 2, 0.1) < specfun.ABS_TOL


def test_intersection_exact_increasing_in_n_at_strong_alternative():
    values = [intersection_power_exact(1.5, n, 2, 0.1) for n in (100, 400, 1000)]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("theta_norm", [math.nan, math.inf, -0.5])
def test_intersection_exact_refuses_a_non_finite_or_negative_theta_norm(theta_norm):
    with pytest.raises(DomainError, match=f"^theta_norm must be finite and >= 0, got {theta_norm}$"):
        intersection_power_exact(theta_norm, 1000, 2, 0.1)


def test_intersection_exact_matches_simulation_quick():
    n, d, alpha, reps = 1000, 2, 0.1, 800
    root = RngStream(710)
    for theta_norm in (0.0, 1.2):
        theta = np.array([theta_norm, 0.0])
        rejections = 0
        for r in range(reps):
            sample = data.sample_gaussian(n, d, theta, root.substream(r))
            rejections += intersection_test(sample, AnnulusNull(), alpha)
        p_hat = rejections / reps
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-6) / reps)
        exact = intersection_power_exact(theta_norm, n, d, alpha)
        assert abs(p_hat - exact) <= 3.0 * se + 1e-3


# ---------------------------------------------------------------------------
# split and RIPR statistics
# ---------------------------------------------------------------------------


def test_split_statistic_interior_mean0():
    pair = pair_with_means([0.45, 0.6], [0.2, 0.1])  # ||mean0|| = 0.75
    delta = float(np.sum((pair.mean0 - pair.mean1) ** 2))
    value = doughnut_split_log_statistic(pair, AnnulusNull())
    assert value == pytest.approx(-delta, rel=1e-12)  # (n/4) = 1 here
    assert value <= 0.0


def test_split_statistic_projection_maximizes_null_likelihood():
    rng = np.random.default_rng(11)
    null = AnnulusNull()
    pair = pair_with_means([1.4, 0.2], [0.3, 0.3])
    base = doughnut_split_log_statistic(pair, null)
    delta = float(np.sum((pair.mean0 - pair.mean1) ** 2))
    for _ in range(1000):
        radius = rng.uniform(null.r_in, null.r_out)
        theta = radius * _random_direction(rng, 2)
        competitor = (4 / 4.0) * (float(np.sum((pair.mean0 - theta) ** 2)) - delta)
        assert base <= competitor + 1e-12


def test_split_statistic_e_variable_inside_null():
    n, d, reps = 20, 2, 20_000
    theta = np.array([0.75, 0.0])
    root = RngStream(808)
    values = np.empty(reps)
    for r in range(reps):
        rep = root.substream(r)
        sample = data.sample_gaussian(n, d, theta, rep.substream(0))
        pair = data.split(sample, 0.5, rep.substream(1))
        values[r] = math.exp(doughnut_split_log_statistic(pair, AnnulusNull()))
    se = values.std(ddof=1) / math.sqrt(reps)
    assert values.mean() <= 1.0 + 3.0 * se


def test_ripr_unit_normalization_1d():
    pair = pair_with_means([0.3], [2.0])
    value = doughnut_ripr_log_statistic(pair, AnnulusNull())
    # denominator parameter is mean1 / ||mean1|| = 1
    expected = (0.3 - 1.0) ** 2 - (0.3 - 2.0) ** 2
    assert value == pytest.approx(expected, rel=1e-12)


def test_ripr_requires_outside_mean1():
    pair = pair_with_means([0.3, 0.0], [0.9, 0.0])
    with pytest.raises(DomainError):
        doughnut_ripr_log_statistic(pair, AnnulusNull())


def test_ripr_dominates_split_statistic():
    rng = np.random.default_rng(23)
    null = AnnulusNull()
    checked = 0
    for _ in range(500):
        mean0 = rng.normal(size=2) * rng.uniform(0.1, 2.0)
        mean1 = rng.normal(size=2) * rng.uniform(0.1, 2.0)
        if np.linalg.norm(mean1) <= null.r_out:
            continue
        pair = pair_with_means(mean0, mean1)
        split_val = doughnut_split_log_statistic(pair, null)
        ripr_val = doughnut_ripr_log_statistic(pair, null)
        assert ripr_val >= split_val - 1e-12
        checked += 1
    assert checked > 50


def test_scalar_statistics_refuse_unequal_parts():
    """The annulus statistics scale by n/4, so they need half splits."""
    pair = data.SplitPair([[0.9, 0.0]], [[1.4, 0.0]], 3, 2)
    for statistic in (doughnut_split_log_statistic, doughnut_ripr_log_statistic, hybrid_log_statistic):
        with pytest.raises(DomainError, match=r"^annulus tests are defined for half splits"):
            statistic(pair, AnnulusNull())


def test_mc_reducer_refuses_an_unknown_test():
    with pytest.raises(DomainError, match="^unknown annulus test 'bogus'$"):
        mc_reducer("bogus", 100, 2, 0.1, AnnulusNull())


def test_scalar_statistics_refuse_a_record_of_many():
    pair = data.SplitPair([[0.9, 0.0], [0.3, 0.0]], [[1.4, 0.0], [1.2, 0.0]], 2, 2)
    for statistic in (doughnut_split_log_statistic, doughnut_ripr_log_statistic, hybrid_log_statistic):
        with pytest.raises(DomainError, match="expected one split"):
            statistic(pair, AnnulusNull())


def test_ripr_e_variable_with_indicator():
    # E[R 1(applicable)] <= 1 at the null boundary ||theta|| = 1
    n, d, reps = 20, 2, 20_000
    theta = np.array([1.0, 0.0])
    null = AnnulusNull()
    root = RngStream(809)
    values = np.zeros(reps)
    for r in range(reps):
        rep = root.substream(r)
        sample = data.sample_gaussian(n, d, theta, rep.substream(0))
        pair = data.split(sample, 0.5, rep.substream(1))
        if float(np.linalg.norm(pair.mean1)) > null.r_out:
            values[r] = math.exp(doughnut_ripr_log_statistic(pair, null))
    se = values.std(ddof=1) / math.sqrt(reps)
    assert values.mean() <= 1.0 + 3.0 * se


# ---------------------------------------------------------------------------
# hybrid statistic
# ---------------------------------------------------------------------------


def test_hybrid_unit_case():
    pair = pair_with_means([0.3, 0.0], [0.45, 0.6])  # ||mean1|| = 0.75
    value, case = hybrid_log_statistic(pair, AnnulusNull())
    assert value == 0.0
    assert case is HybridCase.UNIT_CASE


def test_hybrid_split_case():
    pair = pair_with_means([0.9, 0.0], [0.3, 0.0])
    value, case = hybrid_log_statistic(pair, AnnulusNull())
    assert case is HybridCase.SPLIT_CASE
    assert value == doughnut_split_log_statistic(pair, AnnulusNull())


def test_hybrid_ripr_case():
    pair = pair_with_means([0.9, 0.0], [1.4, 0.0])
    value, case = hybrid_log_statistic(pair, AnnulusNull())
    assert case is HybridCase.RIPR_CASE
    assert value == doughnut_ripr_log_statistic(pair, AnnulusNull())


def test_hybrid_degenerate_mean0_is_total():
    pair = pair_with_means([0.0, 0.0], [0.2, 0.0])
    value, case = hybrid_log_statistic(pair, AnnulusNull())
    assert case is HybridCase.SPLIT_CASE
    assert math.isfinite(value)


# ---------------------------------------------------------------------------
# split forms
# ---------------------------------------------------------------------------

#: A shifted form is within FORMS_EPS * (1 + ||a||^2 + ||c||^2 + t^2) of the
#: form of the shifted means: 16 units of 2^-52 (the worst seen is about 3).
FORMS_EPS = 16 * 2.0**-52


def _shift(means, t):
    return means + np.eye(means.shape[-1])[0] * t


@pytest.mark.parametrize("t", [0.0, 0.25, 1.1, 1.5])
@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_shifted_forms_are_the_forms_of_the_shifted_means(d, t):
    rng = np.random.default_rng(1000 + d)
    a, c = rng.normal(size=(2, 7, 5, d)) * rng.uniform(0.05, 3.0, size=(2, 7, 5, 1))
    forms = _split_forms(a, c)
    shifted, direct = forms.shifted(t), _split_forms(_shift(a, t), _shift(c, t))
    tol = FORMS_EPS * (1.0 + forms.aa + forms.cc + t * t)
    for name, got, want in zip(forms._fields, shifted, direct):
        assert got.shape == (7, 5), name
        assert np.all(np.abs(got - want) <= tol), name
    if t == 0.0:
        assert all(got.tobytes() == want.tobytes() for got, want in zip(shifted, forms))


@pytest.mark.parametrize("t", [0.25, 1.1, 1.5])
def test_shifted_squared_norms_are_clamped_at_zero(t):
    """With a = -t e_1 up to 1e-12, ||a + t e_1||^2 ~ 1e-24 is below the
    rounding.  One shift of the forms of a cannot go below 0 (rounding is
    monotone), but the forms of a shifted by s and then by u = t - s can:
    ||a||^2 + u(2 a_1 + u) is negative on some splits, where the clamp gives
    0, never NaN."""
    rng = np.random.default_rng(7)
    a = np.zeros((50, 4, 3))
    a[..., 0] = -t + rng.normal(size=(50, 4)) * 1e-12
    negative = 0
    for first in (0.1, 0.7, 1.3):
        forms, u = _split_forms(a, -a).shifted(first), t - first
        negative += np.count_nonzero(forms.aa + u * (2.0 * forms.a1 + u) < 0.0)
        shifted = forms.shifted(u)
        assert np.all(shifted.aa >= 0.0) and not np.any(np.isnan(np.sqrt(shifted.aa)))
        assert np.all(shifted.aa <= FORMS_EPS * (1.0 + 2.0 * (t * t + first * first)))
    assert negative > 0


# ---------------------------------------------------------------------------
# subsampled tests
# ---------------------------------------------------------------------------


def test_subsampled_split_reports_convention_fractions():
    sample = data.sample_gaussian(200, 2, [1.5, 0.0], RngStream(41))
    result = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 50, "split", RngStream(42))
    assert result.case_fractions == (1.0, 0.0, 0.0)
    assert result.log_values.shape == (50,)


def test_subsampled_hybrid_fractions_sum_to_one():
    sample = data.sample_gaussian(200, 2, [1.0, 0.0], RngStream(43))
    result = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 64, "hybrid", RngStream(44))
    assert sum(result.case_fractions) == pytest.approx(1.0, abs=1e-12)
    assert result.cases.shape == (64,)


def test_subsampled_matches_scalar_statistics():
    sample = data.sample_gaussian(100, 2, [0.9, 0.4], RngStream(45))
    stream = RngStream(46)
    result = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 16, "hybrid", stream)
    for b in range(16):
        pair = data.split(sample, 0.5, stream.substream(b))
        value, case = hybrid_log_statistic(pair, AnnulusNull())
        assert result.log_values[b] == pytest.approx(value, abs=1e-10)
        assert ("split_case", "unit_case", "ripr_case")[result.cases[b]] == case.value


def test_subsampled_rejects_far_alternative():
    sample = data.sample_gaussian(1000, 2, [1.6, 0.0], RngStream(47))
    for kind in ("split", "hybrid"):
        result = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 100, kind, RngStream(48))
        assert result.reject


def test_subsampled_requires_even_n():
    sample = data.sample_gaussian(101, 2, [0.0, 0.0], RngStream(49))
    with pytest.raises(DomainError):
        subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 10, "split", RngStream(50))


def test_mc_reducer_refuses_odd_n_for_the_subsampled_tests():
    """The Monte Carlo reducers refuse what ``subsampled_doughnut_test``
    refuses: at n = 999 the parts hold 500 and 499 points, and the
    statistic scales by n/4.  The intersection test takes any n."""
    for method in ("subsampled_split", "subsampled_hybrid"):
        with pytest.raises(DomainError, match="require even n, got n = 999"):
            mc_reducer(method, 999, 2, 0.1, AnnulusNull())
    intersect = mc_reducer("intersection", 999, 2, 0.1, AnnulusNull())
    means = np.zeros((3, 1, 2))
    assert intersect(_split_forms(means, means))["reject"].shape == (3,)


def test_subsampled_kind_validation():
    sample = data.sample_gaussian(100, 2, [0.0, 0.0], RngStream(51))
    with pytest.raises(DomainError):
        subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 10, "bogus", RngStream(52))


def test_mc_reducer_computes_the_quantile_only_for_the_intersection_test():
    # the chi-squared quantile refuses alpha = 1e-305 (ln(1/alpha) > 700),
    # and only the intersection test reads it
    for method in ("subsampled_split", "subsampled_hybrid"):
        assert callable(mc_reducer(method, 1000, 2, 1e-305, AnnulusNull()))
    with pytest.raises(NumericError):
        mc_reducer("intersection", 1000, 2, 1e-305, AnnulusNull())


def test_hybrid_dominates_split_in_ripr_case():
    sample = data.sample_gaussian(400, 3, [1.3, 0.0, 0.0], RngStream(53))
    stream = RngStream(54)
    hybrid = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 80, "hybrid", stream)
    split_res = subsampled_doughnut_test(sample, AnnulusNull(), 0.1, 80, "split", stream)
    ripr_rows = hybrid.cases == 2
    assert ripr_rows.any()
    assert np.all(hybrid.log_values[ripr_rows] >= split_res.log_values[ripr_rows] - 1e-10)


def test_power_ordering_at_strong_alternative():
    # desk-scale check of the documented orderings at d = 10, theta beyond
    # r_out: hybrid >= split (within error) and intersection >= split
    n, d, alpha, B, reps = 400, 10, 0.1, 60, 300
    theta = np.zeros(d)
    theta[0] = 1.5
    root = RngStream(900)
    hybrid_hits = split_hits = intersect_hits = 0
    for r in range(reps):
        rep = root.substream(r)
        sample = data.sample_gaussian(n, d, theta, rep.substream(0))
        intersect_hits += intersection_test(sample, AnnulusNull(), alpha)
        hybrid_hits += subsampled_doughnut_test(
            sample, AnnulusNull(), alpha, B, "hybrid", rep.substream(1)
        ).reject
        split_hits += subsampled_doughnut_test(
            sample, AnnulusNull(), alpha, B, "split", rep.substream(1)
        ).reject
    p_hybrid, p_split = hybrid_hits / reps, split_hits / reps
    p_intersect = intersect_hits / reps
    pooled = math.sqrt(
        max(p_hybrid * (1 - p_hybrid), 1e-6) / reps + max(p_split * (1 - p_split), 1e-6) / reps
    )
    assert p_hybrid >= p_split - 2.0 * pooled
    pooled_i = math.sqrt(
        max(p_intersect * (1 - p_intersect), 1e-6) / reps
        + max(p_split * (1 - p_split), 1e-6) / reps
    )
    assert p_intersect >= p_split - 2.0 * pooled_i
