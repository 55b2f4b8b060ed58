"""Stream determinism, Gaussian sampling quality, and splitting contracts."""

import hashlib
import math
import os
import subprocess
import sys
import sysconfig
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ulrt import _kernels, data
from ulrt._kernels import split_means
from ulrt.errors import DomainError
from ulrt.rng import _U64_GOLDEN, RngStream, _finalize_array, batch_normals

# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_normal_draws_are_reproducible():
    a = RngStream(123, 5).normals(16)
    b = RngStream(123, 5).normals(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123).substream(0).normals(8)
    b = RngStream(123).substream(1).normals(8)
    c = RngStream(124).substream(0).normals(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_keys_match_scalar_derivation():
    stream = RngStream(99, 7)
    keys = stream.substream_keys(32)
    for b in range(32):
        assert int(keys[b]) == stream.substream(b).key
    ranged = stream.substream_keys(5, 40)
    children = stream.substream_keys(5, 40, child=2)
    nested = stream.substream_keys(5, 40, child=1, grandchildren=6)
    assert ranged.shape == children.shape == (35,) and nested.shape == (35, 6)
    for r in range(5, 40):
        assert int(ranged[r - 5]) == stream.substream(r).key
        assert int(children[r - 5]) == stream.substream(r).substream(2).key
        for b in range(6):
            assert int(nested[r - 5, b]) == stream.substream(r).substream(1).substream(b).key


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.substream(2**64),
        lambda s: s.substream(-1),
        lambda s: s.substream(2.0),
        lambda s: s.substream_keys(2**64 - 1, 2**64 + 1),
        lambda s: s.substream_keys(-1, 3),
        lambda s: s.substream_keys(2.0),
        lambda s: s.substream_keys(3, child=2**64),
    ],
    ids=["index-2**64", "index-negative", "index-float", "stop-above", "start-negative",
         "stop-float", "child-2**64"],
)
def test_substream_indices_outside_64_bits_or_not_integers_are_refused(call):
    """Masking 2**64 to 64 bits would give substream 0 again."""
    with pytest.raises(DomainError, match=r"must be an integer in \[0, 2\*\*64\)"):
        call(RngStream(5))


def test_substream_indices_at_both_ends_of_the_64_bit_range_derive():
    stream = RngStream(5)
    assert stream.substream(2**64 - 1) != stream.substream(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy integers must not overflow in the key arithmetic
        assert stream.substream(np.uint64(7)) == stream.substream(7)
        assert RngStream(np.uint64(2**64 - 1)).key == RngStream(2**64 - 1).key
    keys = stream.substream_keys(2**64 - 2, 2**64)
    assert [int(k) for k in keys] == [stream.substream(2**64 - i).key for i in (2, 1)]


# SHA-256 of RngStream(2718, 28).normals(count).tobytes(), taken before the
# polar method was batched over rows
NORMALS_SHA256 = {
    1: "28a3fd1b6cf6c2ccca7463f588256b4f99fceace98a546864bce85bc55230cfe",
    2: "f998373aff1bdbc2d3ca50e2d416385ee950a84b0ab0f0c1de6f0bd460ef6929",
    3: "85da1b2e6db79ecaac7b5f59fb4adfac124afb08b808f76578462f4a882712c8",
    17: "e74a0978e558fe0d3f424025217260a0d353b6a62d319f12e71338fc86832fa7",
    1000: "6bde57693606d0437ef02350634e03e5ad1515ce566dd9e68fdcc17f729c2eef",
    100001: "ccef8ab37fd70d520418d1f1fcbea2be4cb98aa35be145d17eb45ec44b5ebc8d",
}


@pytest.mark.parametrize("count", sorted(NORMALS_SHA256))
def test_normals_pinned(count):
    z = RngStream(2718, 28).normals(count)
    assert hashlib.sha256(z.tobytes()).hexdigest() == NORMALS_SHA256[count]


@pytest.mark.parametrize("rows", [1, 7, 513])
@pytest.mark.parametrize("count", [0, 1, 2, 4, 301, 5000])
def test_batch_normals_rows_equal_one_row_draws(rows, count):
    # at 2**12 trials per block, 513 rows span 3 blocks at count 4, 35 at
    # count 301 and 513 at count 5000
    stream = RngStream(41, rows)
    z = batch_normals(stream.substream_keys(rows), count)
    assert z.shape == (rows, count)
    for r in range(0, rows, max(1, rows // 40)):
        assert np.array_equal(z[r], stream.substream(r).normals(count))


def _bits(z):
    return z.view(np.uint64)


def _polar_trials(keys, count):
    """The raw ``(out, s)`` of the trial scan on the path ``_kernels`` picks."""
    out, s = np.empty((keys.size, count)), np.empty((keys.size, (count + 1) // 2))
    _kernels._lib().polar(keys, count, out, s)
    return out, s


# 513 rows of 100001 normals would hold 410 MB, so that pair is left out; at
# 2**12 accepted trials per block, 513 rows span 1, 1, 1, 2, 3, 257 and 513
# blocks at the other counts
_POLAR_SHAPES = pytest.mark.parametrize(
    "rows,count",
    [(rows, count) for rows in (1, 7, 513) for count in (0, 1, 2, 3, 17, 4097, 100001)
     if rows * count <= 10**6],
)


@_POLAR_SHAPES
def test_batch_normals_compiled_and_fallback_equal_numpy_polar(rows, count, monkeypatch):
    """Bit for bit, through the compiled ``polar`` and through its numpy twin: one raw
    scan of all rows (the unscaled ``(u, v)`` pairs, whose last ``v`` an odd
    count drops, and ``s``), and the draw in row blocks."""
    keys = RngStream(44, rows).substream_keys(rows)
    monkeypatch.setattr(_kernels, "_loaded", [None])
    twin, fallback = _polar_trials(keys, count), batch_normals(keys, count)
    assert fallback.shape == (rows, count) and np.all((twin[1] > 0.0) & (twin[1] < 1.0))
    if _kernels._find_compiler() is None:
        pytest.skip("no C compiler found")
    monkeypatch.undo()
    assert _kernels._compiled() is not None
    compiled = batch_normals(keys, count)
    assert compiled.flags.c_contiguous
    for got, want in zip((*_polar_trials(keys, count), compiled), (*twin, fallback)):
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("count", [1, 2, 17, 1000])
def test_short_rows_are_redrawn_with_the_same_bytes(count):
    keys = RngStream(43).substream_keys(50)
    # 3 trials hold at most 3 accepted pairs, so every row with count > 6
    # and some with fewer take the redraw path
    for got, want in zip(_kernels._numpy_polar(keys, count, 3), _polar_trials(keys, count)):
        assert np.array_equal(_bits(got), _bits(want))


def test_batch_normals_rejects_negative_count(monkeypatch):
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    with pytest.raises(DomainError):
        batch_normals(RngStream(1).substream_keys(2), -1)


@pytest.mark.parametrize("count", [2.0, "3", None])
def test_batch_normals_rejects_non_integer_count(count, monkeypatch):
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    with pytest.raises(DomainError):
        batch_normals(RngStream(1).substream_keys(2), count)


def test_sizes_and_counts_take_any_integer_index_and_refuse_the_rest(monkeypatch):
    """``operator.index``: numpy integers pass, a float or a string is a
    ``DomainError`` before the foreign call."""
    assert _kernels._check_sizes(np.int64(10), np.int32(5)) == (10, 5)
    assert type(_kernels._check_sizes(np.int64(10), np.int64(5))[0]) is int
    keys = RngStream(1).substream_keys(2)
    expected = _bits(batch_normals(keys, 3))
    assert np.array_equal(_bits(batch_normals(keys, np.int64(3))), expected)
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    for bad in (2.0, "3"):
        with pytest.raises(DomainError):
            _kernels._check_sizes(bad, 1)
        with pytest.raises(DomainError):
            _kernels._check_sizes(10, bad)
        with pytest.raises(DomainError):
            batch_normals(keys, bad)


def test_concurrent_draws_equal_the_serial_draw():
    keys = RngStream(45).substream_keys(40)
    expected = _bits(batch_normals(keys, 3001))
    threads = 4
    start = threading.Barrier(threads)
    results = [None] * threads

    def draw(i):
        start.wait(timeout=30)
        results[i] = batch_normals(keys, 3001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(np.array_equal(_bits(r), expected) for r in results)


@pytest.fixture
def cold_cache(monkeypatch, tmp_path):
    """An empty per-user cache.  A cached build loads without looking for a
    compiler or the headers, so their absence shows only on a cold cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))


def test_fallback_without_compiler_warns_once_and_draws_same_normals(monkeypatch, cold_cache):
    keys = np.array([RngStream(2718, 28).key, *RngStream(46).substream_keys(29)], dtype=np.uint64)
    monkeypatch.setattr(_kernels, "_find_compiler", lambda: None)
    monkeypatch.setattr(_kernels, "_loaded", [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = batch_normals(keys, 1000)
        second = batch_normals(keys[:1], 1000)
    assert _kernels._loaded == [None]
    assert [w.category for w in caught] == [RuntimeWarning]
    message = str(caught[0].message)
    assert "normals" in message and "numpy loop" in message
    assert hashlib.sha256(first[0].tobytes()).hexdigest() == NORMALS_SHA256[1000]
    assert np.array_equal(_bits(second), _bits(first[:1]))


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
    assert np.array_equal(a.mean0, b.mean0) and np.array_equal(a.mean1, b.mean1)


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
    k = int(math.floor(n * p0_pct / 100.0 + 0.5))
    assert pair.m0 == k and pair.m1 == n - k
    # the split's parts are the drawn subset and its complement
    subset = _row_major_fisher_yates([RngStream(seed).key], n, k)[0, :k]
    assert np.unique(subset).size == k and 0 <= subset.min() and subset.max() < n
    rest = np.setdiff1d(np.arange(n), subset)
    assert np.allclose(pair.mean0[0], sample.values[subset].mean(axis=0), rtol=0.0, atol=1e-12)
    assert np.allclose(pair.mean1[0], sample.values[rest].mean(axis=0), rtol=0.0, atol=1e-12)


def test_split_exchangeability():
    # observation i is the unit vector e_i, so m0 * mean0 indicates the first part
    sample = data.SampleSet.from_values(np.eye(10))
    root = RngStream(77)
    counts = np.zeros(10)
    reps = 10_000
    for r in range(reps):
        pair = data.split(sample, 0.5, root.substream(r))
        counts += pair.m0 * pair.mean0[0]
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
    perm = _row_major_fisher_yates([stream.key], 257, k)[:, :k]
    assert np.allclose(pair.mean0[0], sample.values[perm[0]].mean(axis=0), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# batched subset draws and partition sums
# ---------------------------------------------------------------------------


def _row_major_fisher_yates(keys, n, k):
    """The reference shuffle, row-major: every row's permutation after ``k``
    partial Fisher-Yates steps; the subset is its first ``k`` entries."""
    keys = np.asarray(keys, dtype=np.uint64)
    rows = keys.shape[0]
    ctr = np.arange(1, k + 1, dtype=np.uint64)
    ctr *= _U64_GOLDEN
    draws = _finalize_array(keys[:, None] + ctr[None, :])
    perm = np.broadcast_to(np.arange(n, dtype=np.int32), (rows, n)).copy()
    row_ix = np.arange(rows)
    for i in range(k):
        j = i + (draws[:, i] % np.uint64(n - i)).astype(np.int64)
        tmp = perm[row_ix, j].copy()
        perm[row_ix, j] = perm[:, i]
        perm[:, i] = tmp
    return perm


_FY_ROWS = pytest.mark.parametrize("rows", [1, 7, 1023, 1024, 1025, 3000])
_FY_SIZES = pytest.mark.parametrize("n,k", [(2, 1), (10, 5), (257, 128), (1000, 500), (1000, 999)])


@_FY_ROWS
@_FY_SIZES
def test_batch_fisher_yates_matches_row_major_loop(rows, n, k):
    """The compiled shuffle, seen through ``split_means`` at d = 1: each
    split's sum is the reference subset's values added in draw order, bit for
    bit.  The values spread over six decades, so that another subset or
    another order rounds differently.  Skipped only where no C compiler is
    found."""
    if _kernels._find_compiler() is None:
        pytest.skip("no C compiler found")
    assert _kernels._compiled() is not None
    keys = RngStream(31, rows).substream_keys(rows).reshape(1, rows)
    values = _spread_values(n).reshape(1, n, 1)
    means = split_means(values, keys, k)
    assert all(m.shape == (1, rows, 1) for m in means)
    assert _means_bytes(means) == _means_bytes(_sequential_split_means(values, keys, k))


@_FY_ROWS
@_FY_SIZES
def test_numpy_fisher_yates_matches_row_major_loop(rows, n, k):
    keys = RngStream(31, rows).substream_keys(rows)
    subsets = _kernels._numpy_fisher_yates(keys, n, k)
    assert subsets.shape == (rows, k) and subsets.dtype == np.int32
    assert np.array_equal(subsets, _row_major_fisher_yates(keys, n, k)[:, :k])
    assert subsets.min() >= 0 and subsets.max() < n
    ordered = np.sort(subsets, axis=1)
    assert np.all(ordered[:, 1:] != ordered[:, :-1])


def test_fallback_without_compiler_warns_once_and_draws_same_subsets(monkeypatch, cold_cache):
    keys = RngStream(34).substream_keys(300).reshape(1, 300)
    values = _spread_values(100).reshape(1, 100, 1)
    expected = _sequential_split_means(values, keys, 40)
    monkeypatch.setattr(_kernels, "_find_compiler", lambda: None)
    monkeypatch.setattr(_kernels, "_loaded", [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = split_means(values, keys, 40)
        second = split_means(values, keys[:, :1], 40)
    assert _kernels._loaded == [None]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy loop" in str(caught[0].message)
    assert _means_bytes(first) == _means_bytes(expected)
    assert _means_bytes(second) == _means_bytes(m[:, :1] for m in expected)


def test_build_goes_to_a_private_per_user_cache(monkeypatch, tmp_path):
    """Each fresh cache gets its own build, which loads beside the modules
    already loaded in this process and sums the same bytes."""
    if _kernels._find_compiler() is None or _kernels._find_headers() is None:
        pytest.skip("no C compiler or no Python.h found")
    values, keys = _split_means_case(2, 5, 30, 3)
    expected = _means_bytes(_sequential_split_means(values, keys, 12))
    modules = []
    for name in ("first", "second"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / name))
        monkeypatch.setattr(_kernels, "_loaded", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modules.append(_kernels._compiled())
        assert modules[-1] is not None
        assert _means_bytes(split_means(values, keys, 12)) == expected
        cache = tmp_path / name / "ulrt"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert [p.name.endswith(sysconfig.get_config_var("EXT_SUFFIX")) for p in cache.iterdir()] == [True]
    assert modules[0] is not modules[1]


def test_warm_cache_loads_without_sysconfig_data():
    """A cached build loads in a fresh process without ``sysconfig``'s
    data module, whose import was most of a warm load's time.  The first of
    the two processes builds the module if the cache lacks it."""
    if _kernels._compiled() is None:
        pytest.skip("no compiled module")
    script = ("import sys; from ulrt import _kernels; lib = _kernels._compiled(); "
              "print(lib is not None, sorted(m for m in sys.modules if '_sysconfigdata' in m))")
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "[]"]


def test_compiled_source_builds_without_warnings(tmp_path):
    """The build flags and headers plus -Wall -Wextra -Werror, so that a
    warning in a C loop or the method glue fails here instead of passing
    silently into the per-user cache."""
    cc, include = _kernels._find_compiler(), _kernels._find_headers()
    if cc is None or include is None:
        pytest.skip("no C compiler or no Python.h found")
    proc = subprocess.run(
        [cc, *_kernels._CFLAGS, f"-I{include}", "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "subsets.so"), _kernels._SOURCE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_fallback_without_python_headers_warns_once_and_gives_same_bytes(monkeypatch, cold_cache):
    keys = np.array([RngStream(2718, 28).key, *RngStream(46).substream_keys(29)], dtype=np.uint64)
    values, split_keys = _split_means_case(3, 7, 40, 5)
    expected = _sequential_split_means(values, split_keys, 17)
    monkeypatch.setattr(_kernels, "_find_headers", lambda: None)
    monkeypatch.setattr(_kernels, "_loaded", [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        normals = batch_normals(keys, 1000)
        means = split_means(values, split_keys, 17)
    assert _kernels._loaded == [None]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "Python.h" in str(caught[0].message) and "numpy loop" in str(caught[0].message)
    assert hashlib.sha256(normals[0].tobytes()).hexdigest() == NORMALS_SHA256[1000]
    assert _means_bytes(means) == _means_bytes(expected)


def _read_only(a):
    a.flags.writeable = False
    return a


def _method_call(method):
    """A call of the compiled ``method`` whose output buffer is the
    argument, and the size that output must have."""
    lib = _kernels._compiled()
    if lib is None:
        pytest.skip("no compiled module")
    keys = RngStream(47).substream_keys(3)
    if method == "split_sums":
        return lambda out: lib.split_sums(keys, 3, 10, 4, np.ones((1, 10, 2)), 2,
                                          np.empty(10, dtype=np.int32), out), 6
    if method == "polar":
        return lambda out: lib.polar(keys, 2, np.empty((3, 2)), out), 3
    if method == "exact_sums":
        z = RngStream(48).normals(8)
        return lambda out: lib.exact_sums(keys, 3, 10, 4, z, 2, 1e-8, out), 8
    return lambda out: lib.split_log_values(np.full(2, 2.0), np.zeros((3, 2)), np.ones((3, 2)),
                                            2, 1.0, out), 3


@pytest.mark.parametrize("bad_out", [_read_only, lambda a: np.repeat(a, 2)[::2]],
                         ids=["read-only", "strided"])
@pytest.mark.parametrize("method", ["split_sums", "exact_sums", "polar", "split_log_values"])
def test_methods_refuse_an_output_buffer_they_cannot_write_in_place(method, bad_out):
    """An output that the loop could not fill in place is a ``TypeError``
    before the loop runs, and the same call with a writable contiguous
    buffer fills it."""
    call, size = _method_call(method)
    with pytest.raises(TypeError):
        call(bad_out(np.zeros(size)))
    out = np.zeros(size)
    assert call(out) is None
    assert np.all(out != 0.0)


@pytest.mark.parametrize("method", ["split_sums", "exact_sums", "polar", "split_log_values"])
def test_methods_refuse_an_output_buffer_of_another_size(method):
    """The methods read their row counts from the buffer lengths, so an
    output one value short or long is a ``ValueError`` and stays unwritten."""
    call, size = _method_call(method)
    for wrong in (size - 1, size + 1):
        out = np.zeros(wrong)
        with pytest.raises(ValueError, match="buffer sizes"):
            call(out)
        assert not out.any()


def test_shared_writable_cache_falls_back(monkeypatch, tmp_path):
    cache = tmp_path / "ulrt"
    cache.mkdir()
    os.chmod(cache, 0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_loaded", [])
    with pytest.warns(RuntimeWarning, match="numpy loop"):
        assert _kernels._compiled() is None
    assert list(cache.iterdir()) == []


def test_failed_build_falls_back_and_leaves_no_partial_file(monkeypatch, tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho broken compiler >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(_kernels, "_find_compiler", lambda: str(compiler))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_loaded", [])
    with pytest.warns(RuntimeWarning, match="broken compiler"):
        assert _kernels._compiled() is None
    assert list((tmp_path / "ulrt").iterdir()) == []


def _refuse_foreign_call(*args):
    raise AssertionError("a bad argument reached the foreign call")


_REFUSING_LIBRARY = SimpleNamespace(
    split_sums=_refuse_foreign_call,
    exact_sums=_refuse_foreign_call,
    polar=_refuse_foreign_call,
    split_log_values=_refuse_foreign_call,
)


def test_twins_have_the_compiled_module_s_method_names():
    """``_TWINS`` holds a twin for each method of the compiled module and
    nothing else, so a C method cannot land without its twin."""
    lib = _kernels._compiled()
    if lib is None:
        pytest.skip("no compiled module")
    assert {name for name in dir(lib) if not name.startswith("_")} == set(vars(_kernels._TWINS))
    assert len(vars(_kernels._TWINS)) == 7


def test_lib_is_the_one_switch(monkeypatch):
    """``_lib()`` is the loaded module, or ``_TWINS`` when none loads."""
    monkeypatch.setattr(_kernels, "_loaded", [None])
    assert _kernels._lib() is _kernels._TWINS
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    assert _kernels._lib() is _REFUSING_LIBRARY


@pytest.mark.parametrize("n,k", [(10, 11), (10, -1), (2**31, 1), (10.0, 5), (10, 5.0)])
def test_subset_sizes_outside_the_c_loops_range_are_refused(n, k):
    """The size check of ``split_means``: the C shuffle indexes rows with
    int32, so ``n`` must stay below 2**31, which no test array can reach."""
    with pytest.raises(DomainError):
        _kernels._check_sizes(n, k)


@pytest.mark.parametrize(
    "keys,n,k",
    [
        pytest.param(np.arange(3.0).reshape(1, 3), 10, 5, id="keys4-10-5"),
        pytest.param(np.arange(6, dtype=np.uint64).reshape(1, 2, 3), 10, 5, id="keys5-10-5"),
    ],
)
def test_batch_fisher_yates_rejects_bad_arguments_before_the_foreign_call(keys, n, k, monkeypatch):
    """Float keys and keys of the wrong rank never reach the C shuffle.

    The name and ids are those of the key cases of the shuffle's former
    one-row-per-stream entry point; ``split_means`` now runs its key check.
    Its size cases are ``test_subset_sizes_outside_the_c_loops_range_are_refused``.
    """
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    with pytest.raises(DomainError):
        split_means(np.zeros((1, n, 3)), keys, k)


def test_split_means_converts_keys_to_contiguous_uint64():
    values, keys = _split_means_case(2, 20, 50, 3)
    expected = _means_bytes(split_means(values, keys, 20))
    assert _means_bytes(split_means(values, keys.view(np.int64), 20)) == expected
    spaced = np.empty((2, 40), dtype=np.uint64)
    spaced[:, ::2] = keys
    assert _means_bytes(split_means(values, spaced[:, ::2], 20)) == expected


def test_racing_first_calls_load_once_and_agree(monkeypatch):
    keys = RngStream(36).substream_keys(64).reshape(1, 64)
    values = _spread_values(1000).reshape(1, 1000, 1)
    expected = _means_bytes(_sequential_split_means(values, keys, 500))
    loads = []
    load = _kernels._load_compiled
    monkeypatch.setattr(_kernels, "_load_compiled", lambda: loads.append(1) or load())
    monkeypatch.setattr(_kernels, "_loaded", [])
    threads = 4
    start = threading.Barrier(threads)
    results = [None] * threads

    def first_call(i):
        start.wait(timeout=30)
        results[i] = _means_bytes(split_means(values, keys, 500))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=first_call, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert loads == [1]
    assert results == [expected] * threads


def test_split_means_matches_put_along_axis_sums():
    """Within rounding of the one-hot matrix product it replaced."""
    c, b, n, d, k = 3, 40, 50, 4, 20
    values = RngStream(32).normals(c * n * d).reshape(c, n, d)
    keys = RngStream(33).substream_keys(c * b).reshape(c, b)
    subsets = _row_major_fisher_yates(keys.reshape(-1), n, k)[:, :k].reshape(c, b, k)
    onehot = np.zeros((c, b, n))
    np.put_along_axis(onehot, subsets.astype(np.int64), 1.0, axis=2)
    sums0 = onehot @ values
    mean0, mean1 = split_means(values, keys, k)
    np.testing.assert_allclose(mean0, sums0 / k, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        mean1, (values.sum(axis=1, keepdims=True) - sums0) / (n - k), rtol=0, atol=1e-14
    )


def _sequential_split_means(values, keys, k):
    """Each first part's rows added one at a time, in draw order, to the
    reference subsets: one numpy add per step across all splits."""
    c, b = keys.shape
    n = values.shape[1]
    subsets = _row_major_fisher_yates(keys.reshape(-1), n, k)[:, :k].reshape(c, b, k)
    datasets = np.arange(c)[:, None]
    sums = values[datasets, subsets[..., 0]]
    for i in range(1, k):
        sums = sums + values[datasets, subsets[..., i]]
    return sums / k, (values.sum(axis=1, keepdims=True) - sums) / (n - k)


def _means_bytes(means):
    return b"".join(m.tobytes() for m in means)


def _spread_values(n):
    """``n`` values over six decades, so that a sum of other values, or of
    the same ones in another order, rounds differently."""
    return RngStream(39, n).normals(n) * 10.0 ** np.linspace(-3.0, 3.0, n)


def _split_means_case(c, b, n, d):
    values = RngStream(37, c * n * d).normals(c * n * d).reshape(c, n, d)
    return values, RngStream(38, b).substream_keys(c * b).reshape(c, b)


@pytest.mark.parametrize("n,k", [(2, 1), (70, 1), (70, 69)])
@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 15, 20, 100])
def test_split_means_compiled_equals_numpy_and_sequential_sums(d, c, b, n, k, monkeypatch):
    """Bit for bit: the compiled kernel, the numpy loop and a plain sum.

    d = 15 takes every column block below 16; k = 69 at d > 16 spans three
    tiles of rows."""
    values, keys = _split_means_case(c, b, n, d)
    expected = _means_bytes(_sequential_split_means(values, keys, k))
    monkeypatch.setattr(_kernels, "_loaded", [None])
    fallback = split_means(values, keys, k)
    assert all(m.shape == (c, b, d) for m in fallback)
    assert _means_bytes(fallback) == expected
    if _kernels._find_compiler() is None:
        pytest.skip("no C compiler found")
    monkeypatch.undo()
    assert _kernels._compiled() is not None
    assert _means_bytes(split_means(values, keys, k)) == expected


_GOOD_VALUES = np.zeros((2, 10, 3))
_GOOD_KEYS = np.arange(8, dtype=np.uint64).reshape(2, 4)


@pytest.mark.parametrize(
    "values,keys,k",
    [
        (np.zeros((10, 3)), _GOOD_KEYS, 5),
        (np.zeros((2, 10, 3), dtype=np.float32), _GOOD_KEYS, 5),
        (np.zeros((2, 10, 6))[:, :, ::2], _GOOD_KEYS, 5),
        (np.zeros((2, 10, 3)).tolist(), _GOOD_KEYS, 5),
        (_GOOD_VALUES, np.arange(8, dtype=np.uint64), 5),
        (_GOOD_VALUES, np.zeros((2, 4)), 5),
        (_GOOD_VALUES, np.arange(12, dtype=np.uint64).reshape(3, 4), 5),
        (_GOOD_VALUES, _GOOD_KEYS, 0),
        (_GOOD_VALUES, _GOOD_KEYS, 10),
        (_GOOD_VALUES, _GOOD_KEYS, 11),
        (_GOOD_VALUES, _GOOD_KEYS, -1),
        (_GOOD_VALUES, _GOOD_KEYS, 5.0),
    ],
    ids=["2-d", "float32", "strided", "list", "1-d-keys", "float-keys", "keys-per-dataset",
         "k-0", "k-n", "k-above-n", "k-negative", "k-float"],
)
def test_split_means_rejects_bad_arguments_before_the_foreign_call(values, keys, k, monkeypatch):
    monkeypatch.setattr(_kernels, "_loaded", [_REFUSING_LIBRARY])
    with pytest.raises(DomainError):
        split_means(values, keys, k)


def test_fallback_without_compiler_warns_once_and_draws_same_means(monkeypatch, cold_cache):
    values, keys = _split_means_case(3, 7, 40, 5)
    expected = _sequential_split_means(values, keys, 17)
    monkeypatch.setattr(_kernels, "_find_compiler", lambda: None)
    monkeypatch.setattr(_kernels, "_loaded", [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = split_means(values, keys, 17)
        second = split_means(values[:1], keys[:1, :2], 17)
    assert _kernels._loaded == [None]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy loop" in str(caught[0].message)
    for got, want in zip(first, expected):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(second, expected):
        assert got.tobytes() == want[:1, :2].tobytes()


# ---------------------------------------------------------------------------
# subsampling splits
# ---------------------------------------------------------------------------


def test_subsample_splits_sizes_and_determinism():
    sample = data.sample_gaussian(100, 2, [0.0, 0.0], RngStream(1))
    stream = RngStream(55)
    splits_a = data.subsample_splits(sample, 100, 0.5, stream)
    splits_b = data.subsample_splits(sample, 100, 0.5, stream)
    assert splits_a.mean0.shape == splits_a.mean1.shape == (100, 2)
    assert splits_a.m0 == splits_a.m1 == 50
    assert np.array_equal(splits_a.mean0, splits_b.mean0)
    assert np.array_equal(splits_a.mean1, splits_b.mean1)


def test_subsample_splits_match_per_stream_split():
    sample = data.sample_gaussian(64, 2, [0.0, 0.0], RngStream(2))
    stream = RngStream(3)
    splits = data.subsample_splits(sample, 8, 0.5, stream)
    for b in range(8):
        direct = data.split(sample, 0.5, stream.substream(b))
        assert np.array_equal(splits.mean0[b], direct.mean0[0])
        assert np.array_equal(splits.mean1[b], direct.mean1[0])


@pytest.mark.parametrize("numpy_loops", [False, True], ids=["compiled", "numpy"])
def test_split_records_sum_in_split_means_order(numpy_loops, monkeypatch):
    """``split`` and ``subsample_splits`` equal ``split_means`` for the same
    keys bit for bit: one summation order for every split of a dataset."""
    if numpy_loops:
        monkeypatch.setattr(_kernels, "_loaded", [None])
    sample = data.sample_gaussian(257, 3, [0.5, 0.0, -1.0], RngStream(14))
    stream = RngStream(15)
    k = data.part_size(257, 0.4)
    mean0, mean1 = split_means(sample.values[None], stream.substream_keys(20)[None], k)
    splits = data.subsample_splits(sample, 20, 0.4, stream)
    pair = data.split(sample, 0.4, stream.substream(3))
    for got, want in ((splits.mean0, mean0[0]), (splits.mean1, mean1[0]),
                      (pair.mean0, mean0[0, 3:4]), (pair.mean1, mean1[0, 3:4])):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_save_csv_ends_lines_with_newline_only(tmp_path):
    sample = data.sample_gaussian(3, 2, [0.0, 1.0], RngStream(22))
    path = tmp_path / "sample.csv"
    data.save_csv(sample, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 4
    assert raw.splitlines()[1] == b",".join(repr(float(v)).encode() for v in sample.values[0])


def test_write_interrupted_midway_leaves_no_truncated_csv(tmp_path, monkeypatch):
    sample = data.sample_gaussian(50, 2, [0.0, 1.0], RngStream(23))
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("y1,y2\n1.0,2.0\n")
    fmt, calls = data._fmt, []

    def failing_fmt(value):
        calls.append(value)
        if len(calls) == 40:
            raise OSError("disk full")
        return fmt(value)

    monkeypatch.setattr(data, "_fmt", failing_fmt)
    for path in (kept, fresh):
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            data.save_csv(sample, path)
    assert kept.read_text() == "y1,y2\n1.0,2.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DomainError):
        data.load_csv(path)


def test_csv_of_a_header_alone_is_refused(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y1,y2\n")
    with pytest.raises(DomainError, match="no observations$"):
        data.load_csv(path)


@pytest.mark.parametrize("values, message", [
    (np.zeros(5), r"values must be a 2-d array, got shape \(5,\)"),
    (np.zeros((2, 3, 2)), r"values must be a 2-d array, got shape \(2, 3, 2\)"),
    ([[0.0, 1.0], [math.nan, 2.0]], "values must be finite"),
    ([[0.0, 1.0], [2.0, -math.inf]], "values must be finite"),
], ids=["1-d", "3-d", "nan", "inf"])
def test_sample_from_values_refuses_a_non_2d_or_non_finite_array(values, message):
    with pytest.raises(DomainError, match=message):
        data.SampleSet.from_values(values)


@pytest.mark.parametrize("theta", [[0.0, math.nan], [math.inf, 0.0]], ids=["nan", "inf"])
def test_sample_gaussian_refuses_a_non_finite_theta(theta):
    with pytest.raises(DomainError, match="theta must be finite"):
        data.sample_gaussian(10, 2, theta, RngStream(1))
