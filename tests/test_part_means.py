"""The single-split sampler agrees in law with the dataset path.

``data.sample_part_means`` draws the two part means of a random split
straight from N(theta, I/k) and N(theta, I/(n - k)).  The reference builds
each replication the long way, a full dataset from ``data.sample_gaussian``
split by ``data.split``.  The two paths use different streams, so their
estimates are independent, and each pair must agree within ``Z`` standard
errors of its difference.
"""

import math

import numpy as np
import pytest

from ulrt import data, regions, specfun
from ulrt._kernels import sq_norm
from ulrt.errors import DomainError
from ulrt.rng import RngStream

N, ALPHA, REPS = 100, 0.1, 2000
K = data.part_size(N, 0.5)
Z = 5.0


def _reference_means(theta: np.ndarray, root: RngStream):
    d = theta.shape[0]
    mean0, mean1 = np.empty((REPS, d)), np.empty((REPS, d))
    for r in range(REPS):
        rs = root.substream(r)
        pair = data.split(data.sample_gaussian(N, d, theta, rs.substream(0)), 0.5, rs.substream(1))
        mean0[r], mean1[r] = pair.mean0, pair.mean1
    return mean0, mean1


def _sampled_means(theta: np.ndarray, root: RngStream):
    return data.sample_part_means(root.substream_keys(REPS, child=0), N, K, theta)


def _statistics(mean0, mean1, theta: np.ndarray) -> dict:
    """What the B = 1 cells reduce, per replication: split and cross-fit
    rejection of the origin, classical coverage of the true mean, and the
    split set's squared radius (figure 3)."""
    L = regions.log_threshold(ALPHA)
    delta = sq_norm(mean0 - mean1, axis=1)
    log_split = 0.5 * K * (sq_norm(mean0, axis=1) - delta)
    log_swap = 0.5 * (N - K) * (sq_norm(mean1, axis=1) - delta)
    overall = (K * mean0 + (N - K) * mean1) / N
    quantile = specfun.chi2_upper_quantile(ALPHA, theta.shape[0])
    return {
        "split_reject": log_split >= L,
        "crossfit_reject": np.logaddexp(log_split, log_swap) - math.log(2.0) >= L,
        "classical_cover": N * sq_norm(overall - theta, axis=1) <= quantile,
        "sq_radius": (2.0 / K) * L + delta,
    }


@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("n_theta_sq", [0.0, 15.0])
def test_sampler_matches_dataset_path(d, n_theta_sq):
    theta = math.sqrt(n_theta_sq / (N * d)) * np.ones(d)
    ref = _statistics(*_reference_means(theta, RngStream(31)), theta)
    new = _statistics(*_sampled_means(theta, RngStream(32)), theta)
    for name in ref:
        a, b = ref[name].astype(np.float64), new[name].astype(np.float64)
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= Z * se, (name, a.mean(), b.mean(), se)


def test_sampler_moments():
    n, k, d, reps = 100, 30, 3, 20_000
    theta = np.array([0.5, -1.0, 2.0])
    root = RngStream(33)
    mean0, mean1 = data.sample_part_means(root.substream_keys(reps, child=0), n, k, theta)
    # standardized, each coordinate of each mean is N(0, 1)
    z0 = (mean0 - theta) * math.sqrt(k)
    z1 = (mean1 - theta) * math.sqrt(n - k)
    zbar = ((k * mean0 + (n - k) * mean1) / n - theta) * math.sqrt(n)
    for z in (z0, z1, zbar):
        assert np.all(np.abs(z.mean(axis=0)) <= Z / math.sqrt(reps)), z.mean(axis=0)
        var = z.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) <= Z * math.sqrt(2.0 / (reps - 1))), var
    # the two means are independent: near-zero correlation, coordinate by coordinate
    corr = (z0 * z1).mean(axis=0)
    assert np.all(np.abs(corr) <= Z / math.sqrt(reps)), corr


def test_sampler_is_per_replication():
    theta = np.array([1.0, 0.0])
    keys = RngStream(34).substream_keys(12, child=0)
    full0, full1 = data.sample_part_means(keys, 50, 20, theta)
    part0, part1 = data.sample_part_means(keys[5:9], 50, 20, theta)
    assert np.array_equal(part0, full0[5:9]) and np.array_equal(part1, full1[5:9])


@pytest.mark.parametrize("k", [0, 50])
def test_sampler_rejects_empty_part(k):
    with pytest.raises(DomainError):
        data.sample_part_means(RngStream(1).substream_keys(1), 50, k, np.zeros(2))
