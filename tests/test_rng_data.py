"""Stream determinism, Gaussian sampling quality, and splitting contracts."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ulrt import data
from ulrt._kernels import batch_fisher_yates, split_means
from ulrt.errors import DomainError
from ulrt.rng import _U64_GOLDEN, RngStream, _finalize_array

# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_raw_draws_are_reproducible():
    a = RngStream(123, 5).raw64(16)
    b = RngStream(123, 5).raw64(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123).substream(0).raw64(8)
    b = RngStream(123).substream(1).raw64(8)
    c = RngStream(124).substream(0).raw64(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_keys_match_scalar_derivation():
    stream = RngStream(99, 7)
    keys = stream.substream_keys(32)
    for b in range(32):
        assert int(keys[b]) == stream.substream(b).key


def test_raw_block_offsets_are_consistent():
    stream = RngStream(5)
    whole = stream.raw64(20)
    assert np.array_equal(stream.raw64(8, start=12), whole[12:])


def test_uniforms_in_unit_interval():
    u = RngStream(2).uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normals_prefix_stable_and_reproducible():
    stream = RngStream(42)
    assert np.array_equal(stream.normals(7), stream.normals(12)[:7])
    assert np.array_equal(stream.normals(1000), stream.normals(1000))


def test_normals_moments():
    z = RngStream(7).normals(1_000_000)
    mean, var = z.mean(), z.var()
    skew = float(((z - mean) ** 3).mean() / var**1.5)
    exkurt = float(((z - mean) ** 4).mean() / var**2 - 3.0)
    assert abs(skew) <= 0.05
    assert abs(exkurt) <= 0.1


def test_substream_index_validation():
    with pytest.raises(DomainError):
        RngStream(1).substream(-1)


# ---------------------------------------------------------------------------
# gaussian sampling
# ---------------------------------------------------------------------------


def test_sample_gaussian_bit_identical():
    a = data.sample_gaussian(50, 3, [1.0, -2.0, 0.5], RngStream(11))
    b = data.sample_gaussian(50, 3, [1.0, -2.0, 0.5], RngStream(11))
    assert np.array_equal(a.values, b.values)
    assert np.allclose(a.mean, a.values.mean(axis=0), rtol=1e-12)


def test_sample_gaussian_mean_concentration():
    n = 100_000
    sample = data.sample_gaussian(n, 1, [0.0], RngStream(3))
    assert abs(float(sample.mean[0])) <= 4.0 / math.sqrt(n)


def test_sample_gaussian_variance_concentration():
    sample = data.sample_gaussian(100_000, 1, [0.0], RngStream(4))
    assert 0.97 <= float(sample.values.var()) <= 1.03


def test_sample_gaussian_validation():
    with pytest.raises(DomainError):
        data.sample_gaussian(1, 2, [0.0, 0.0], RngStream(0))
    with pytest.raises(DomainError):
        data.sample_gaussian(10, 0, [], RngStream(0))
    with pytest.raises(DomainError):
        data.sample_gaussian(10, 2, [0.0], RngStream(0))


def test_sample_values_are_frozen():
    sample = data.sample_gaussian(10, 2, [0.0, 0.0], RngStream(8))
    with pytest.raises(ValueError):
        sample.values[0, 0] = 7.0


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_sizes_even():
    sample = data.sample_gaussian(1000, 2, [0.0, 0.0], RngStream(1))
    pair = data.split(sample, 0.5, RngStream(2))
    assert pair.m0 == 500 and pair.m1 == 500


def test_split_rounds_half_up_for_odd_n():
    sample = data.sample_gaussian(5, 1, [0.0], RngStream(1))
    pair = data.split(sample, 0.5, RngStream(2))
    assert pair.m0 == 3 and pair.m1 == 2


def test_split_deterministic():
    sample = data.sample_gaussian(100, 2, [0.0, 0.0], RngStream(1))
    a = data.split(sample, 0.3, RngStream(9))
    b = data.split(sample, 0.3, RngStream(9))
    assert np.array_equal(a.indices0, b.indices0)


def test_split_mean_identity():
    sample = data.sample_gaussian(1000, 3, [0.5, 0.0, -1.0], RngStream(6))
    pair = data.split(sample, 0.5, RngStream(7))
    recombined = 0.5 * pair.mean0 + 0.5 * pair.mean1
    assert np.allclose(recombined, sample.mean, atol=1e-12)


@given(
    n=st.integers(4, 60),
    p0_pct=st.integers(10, 90),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_split_partition_property(n, p0_pct, seed):
    assume(1 <= math.floor(n * p0_pct / 100.0 + 0.5) <= n - 1)
    sample = data.sample_gaussian(n, 1, [0.0], RngStream(5, 5))
    pair = data.split(sample, p0_pct / 100.0, RngStream(seed))
    merged = np.concatenate([pair.indices0, pair.indices1])
    assert np.array_equal(np.sort(merged), np.arange(n))
    assert pair.m0 == int(math.floor(n * p0_pct / 100.0 + 0.5))


def test_split_exchangeability():
    sample = data.sample_gaussian(10, 1, [0.0], RngStream(123))
    root = RngStream(77)
    counts = np.zeros(10)
    reps = 10_000
    for r in range(reps):
        pair = data.split(sample, 0.5, root.substream(r))
        counts[pair.indices0] += 1
    freqs = counts / reps
    assert np.all(np.abs(freqs - 0.5) <= 0.02)


def test_split_degenerate_p0_rejected():
    sample = data.sample_gaussian(10, 1, [0.0], RngStream(1))
    for p0 in (0.001, 0.999, 0.0, 1.0):
        with pytest.raises(DomainError):
            data.split(sample, p0, RngStream(2))


def test_split_matches_batch_kernel():
    sample = data.sample_gaussian(257, 2, [0.0, 0.0], RngStream(14))
    stream = RngStream(15)
    pair = data.split(sample, 0.4, stream)
    k = pair.m0
    perm = batch_fisher_yates(np.array([stream.key], dtype=np.uint64), 257, k)
    assert set(perm[0, :k].tolist()) == set(pair.indices0.tolist())


# ---------------------------------------------------------------------------
# batched subset draws and partition sums
# ---------------------------------------------------------------------------


def _row_major_fisher_yates(keys, n, k):
    """The row-major loop ``batch_fisher_yates`` replaced, kept as reference."""
    keys = np.asarray(keys, dtype=np.uint64)
    rows = keys.shape[0]
    ctr = np.arange(1, k + 1, dtype=np.uint64)
    ctr *= _U64_GOLDEN
    draws = _finalize_array(keys[:, None] + ctr[None, :], inplace=True)
    perm = np.broadcast_to(np.arange(n, dtype=np.int32), (rows, n)).copy()
    row_ix = np.arange(rows)
    for i in range(k):
        j = i + (draws[:, i] % np.uint64(n - i)).astype(np.int64)
        tmp = perm[row_ix, j].copy()
        perm[row_ix, j] = perm[:, i]
        perm[:, i] = tmp
    return perm


@pytest.mark.parametrize("rows", [1, 7, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("n,k", [(2, 1), (10, 5), (257, 128), (1000, 500), (1000, 999)])
def test_batch_fisher_yates_matches_row_major_loop(rows, n, k):
    keys = RngStream(31, rows).substream_keys(rows)
    subsets = batch_fisher_yates(keys, n, k)
    assert subsets.shape == (rows, k) and subsets.dtype == np.int32
    assert np.array_equal(subsets, _row_major_fisher_yates(keys, n, k)[:, :k])
    assert subsets.min() >= 0 and subsets.max() < n
    ordered = np.sort(subsets, axis=1)
    assert np.all(ordered[:, 1:] != ordered[:, :-1])


def test_split_means_matches_put_along_axis_sums():
    c, b, n, d, k = 3, 40, 50, 4, 20
    values = RngStream(32).normals(c * n * d).reshape(c, n, d)
    subsets = batch_fisher_yates(RngStream(33).substream_keys(c * b), n, k).reshape(c, b, k)
    onehot = np.zeros((c, b, n))
    np.put_along_axis(onehot, subsets.astype(np.int64), 1.0, axis=2)
    sums0 = onehot @ values
    mean0, mean1 = split_means(values, subsets, k)
    assert np.array_equal(mean0, sums0 / k)
    assert np.array_equal(mean1, (values.sum(axis=1, keepdims=True) - sums0) / (n - k))


# ---------------------------------------------------------------------------
# subsampling splits
# ---------------------------------------------------------------------------


def test_subsample_splits_sizes_and_determinism():
    sample = data.sample_gaussian(100, 2, [0.0, 0.0], RngStream(1))
    stream = RngStream(55)
    splits_a = data.subsample_splits(sample, 100, 0.5, stream)
    splits_b = data.subsample_splits(sample, 100, 0.5, stream)
    assert len(splits_a) == 100
    for a, b in zip(splits_a, splits_b):
        assert a.m0 == 50
        assert np.array_equal(a.indices0, b.indices0)


def test_subsample_splits_match_per_stream_split():
    sample = data.sample_gaussian(64, 2, [0.0, 0.0], RngStream(2))
    stream = RngStream(3)
    splits = data.subsample_splits(sample, 8, 0.5, stream)
    for b, pair in enumerate(splits):
        direct = data.split(sample, 0.5, stream.substream(b))
        assert np.array_equal(pair.indices0, direct.indices0)
        assert np.allclose(pair.mean0, direct.mean0, atol=1e-12)


def test_subsample_splits_validation():
    sample = data.sample_gaussian(10, 1, [0.0], RngStream(1))
    with pytest.raises(DomainError):
        data.subsample_splits(sample, 0, 0.5, RngStream(2))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    sample = data.sample_gaussian(37, 4, [0.0, 1.0, -1.0, 2.5], RngStream(21))
    path = tmp_path / "sample.csv"
    data.save_csv(sample, path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.values, sample.values)
    assert path.read_text().splitlines()[0] == "y1,y2,y3,y4"


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DomainError):
        data.load_csv(path)
