"""Vectorized inner loops shared by the statistics and the experiment runner.

Everything here is exact batch arithmetic.  ``batch_fisher_yates`` is the one
partial Fisher-Yates shuffle: :func:`ulrt.data.split` calls it with a single
stream key, the subsampling and Monte Carlo paths with many.  ``split_means``
draws the same subsets and sums each one's rows in draw order, so that the
means of a batch of splits are a function of the code alone.  Four loops are
C (``_subsets.c``, next to this file): those two, ``_polar_trials``, the
polar trial scan of :func:`ulrt.rng.batch_normals`, and ``_split_log_values``,
the log split statistic behind :func:`ulrt.regions.split_log_values`.  The
first call compiles the source with ``cc -O3 -shared -fPIC -ffp-contract=off``
(no fused multiply-add, so every product rounds as in numpy) into the
per-user cache ``$XDG_CACHE_HOME/ulrt`` (default ``~/.cache/ulrt``), keyed by
a checksum of the source and the build command, and loads it with
:mod:`ctypes`, which releases the GIL while a loop runs.  Without a compiler, or when the build or
the load fails, the numpy loops ``_numpy_fisher_yates``, ``_numpy_split_sums``,
``_numpy_polar`` and ``_numpy_split_log_values`` give the same bytes, and the
process emits one ``RuntimeWarning`` that says so.  No other module picks
between the two.

The splitmix64 finalizer on uint64 arrays, :func:`_finalize_array`, and its
constants live here; :mod:`ulrt.rng` builds its streams on them.

:func:`sq_norm` evaluates every squared distance of the statistics.  Its
contract is numpy's bytes: it sums in numpy's pairwise order (Higham, SIAM J.
Sci. Comput. 14:783, 1993), column by column when there are many short
vectors, so it equals ``np.sum(np.square(a - b), axis=-1)`` bit for bit.
``tests/test_regions.py::test_sq_norm_is_numpys_sum_bit_for_bit`` pins that
for d = 1 to 140, and fails if a numpy release changes its order.  The
compiled statistic sums in the same order, so it keeps the same bytes.
"""

from __future__ import annotations

import math
import numbers
import os
import shutil
import threading
import warnings

import numpy as np

from .errors import DomainError

_U64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer, in place; ``z`` must be uint64."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


#: Rows shuffled together by :func:`_numpy_fisher_yates`.  Blocking bounds
#: the working set of the k steps (4 MB of swap targets and 4 MB of
#: permutations at n = 1000, k = 500) whatever the number of rows.
_FY_BLOCK = 1024

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_subsets.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
#: Held while the first call builds and loads the library, so that the
#: engine's worker threads build it once.
_LOAD_LOCK = threading.Lock()
#: ``[lib]`` once a call has tried to load the library; ``lib`` is the loaded
#: library, or ``None`` when the numpy loops run instead.
_loaded: list = []


def _check_keys(keys, ndim: int) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != ndim or keys.dtype.kind not in "ui":
        raise DomainError(f"keys must be a {ndim}-d integer array, got {keys.dtype} {keys.shape}")
    return np.ascontiguousarray(keys, dtype=np.uint64)


def _check_sizes(n, k) -> tuple[int, int]:
    if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral)):
        raise DomainError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if not 0 <= k <= n < 2**31:
        raise DomainError(f"need 0 <= k <= n < 2**31, got k={k}, n={n}")
    return int(n), int(k)


def batch_fisher_yates(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates shuffles for many streams at once.

    Returns an ``(R, k)`` int32 matrix whose row ``r`` is the size-``k``
    subset of ``0..n-1`` drawn by stream ``keys[r]``: the first ``k``
    entries, in order, of the permutation after ``k`` swap steps.  Step
    ``i`` swaps position ``i`` with position ``i + draw_i % (n - i)``, where
    ``draw_i`` is draw ``i`` of the stream.  ``keys`` must be a 1-d integer
    array (it is converted to contiguous uint64), and ``0 <= k <= n < 2**31``.
    """
    keys = _check_keys(keys, 1)
    n, k = _check_sizes(n, k)
    lib = _compiled()
    if lib is None:
        return _numpy_fisher_yates(keys, n, k)
    out = np.empty((keys.shape[0], k), dtype=np.int32)
    perm = np.empty(n, dtype=np.int32)
    lib.ulrt_fisher_yates(keys.ctypes.data, keys.shape[0], n, k, perm.ctypes.data, out.ctypes.data)
    return out


def split_means(data: np.ndarray, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Means of both parts of a batch of random splits.

    ``data`` is a contiguous float64 ``(C, n, d)`` array and ``keys`` a
    ``(C, B)`` integer array (converted to contiguous uint64): split ``b`` of
    dataset ``c`` takes as its first part the size-``k`` subset that
    :func:`batch_fisher_yates` draws for ``keys[c, b]``, and the rest as its
    second.  The first part's rows are summed in draw order, one column at a
    time.  Returns ``(mean0, mean1)``, each ``(C, B, d)``; ``1 <= k < n``.
    """
    if not (isinstance(data, np.ndarray) and data.ndim == 3 and data.dtype == np.float64
            and data.flags.c_contiguous):
        raise DomainError("data must be a contiguous float64 (C, n, d) array")
    keys = _check_keys(keys, 2)
    c, n, d = data.shape
    if keys.shape[0] != c:
        raise DomainError(f"keys must have one row per dataset, got {keys.shape} for {c} datasets")
    n, k = _check_sizes(n, k)
    if not 1 <= k < n:
        raise DomainError(f"both parts of a split must be nonempty, got k={k}, n={n}")
    lib = _compiled()
    if lib is None:
        sums = _numpy_split_sums(data, keys, k)
    else:
        sums = np.empty((c, keys.shape[1], d))
        perm = np.empty(n, dtype=np.int32)
        lib.ulrt_split_sums(keys.ctypes.data, keys.size, keys.shape[1], n, k,
                            data.ctypes.data, d, perm.ctypes.data, sums.ctypes.data)
    return sums / k, (data.sum(axis=1, keepdims=True) - sums) / (n - k)


def _polar_trials(keys: np.ndarray, count: int, out: np.ndarray, s: np.ndarray) -> None:
    """Row ``r`` of ``out`` and ``s`` gets the first accepted polar trials of
    ``keys[r]``: unscaled ``u, v`` interleaved, and ``u * u + v * v``.  Private,
    so that the benchmark's tracer leaves the scan in ``rng.batch_normals``."""
    lib = _compiled()
    if lib is not None:
        return lib.ulrt_polar(keys.ctypes.data, keys.size, count, out.ctypes.data, s.ctypes.data)
    pairs = s.shape[1]
    # acceptance rate is pi/4; oversize by ~5 sigma so that redraws are rare
    out[:], s[:] = _numpy_polar(keys, count, int(pairs * 1.2733) + int(4.0 * pairs**0.5) + 16)


def _compiled():
    """The compiled library, built and loaded on first use, or ``None`` when
    the numpy loops must run."""
    with _LOAD_LOCK:
        if not _loaded:
            _loaded.append(_load_compiled())
        return _loaded[0]


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _load_compiled():
    import ctypes

    cc = _find_compiler()
    if cc is None:
        reason = "no C compiler (cc) on PATH"
    else:
        try:
            lib = ctypes.CDLL(_build(cc))
        except OSError as exc:
            reason = f"building or loading {_SOURCE} failed ({exc})"
        else:
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            lib.ulrt_fisher_yates.argtypes = [ptr, i64, i64, i64, ptr, ptr]
            lib.ulrt_split_sums.argtypes = [ptr, i64, i64, i64, i64, ptr, i64, ptr, ptr]
            lib.ulrt_polar.argtypes = [ptr, i64, i64, ptr, ptr]
            lib.ulrt_split_log_values.argtypes = [
                ptr, i64, ptr, ptr, i64, i64, ctypes.c_double, ptr]
            for fn in (lib.ulrt_fisher_yates, lib.ulrt_split_sums, lib.ulrt_polar,
                       lib.ulrt_split_log_values):
                fn.restype = None
            return lib
    warnings.warn(
        "ulrt draws normals and subsets, sums splits and scores them with the numpy loops, "
        f"not the compiled ones: {reason}",
        RuntimeWarning,
        stacklevel=4,
    )
    return None


def _build(cc: str) -> str:
    """Path of the library built from ``_SOURCE`` by ``cc``, compiling it into
    the per-user cache unless that source and command were built before.

    The cache key is a CRC-32 and an Adler-32 of the source and the command:
    ``hashlib`` would load OpenSSL, about 3.6 MB of resident memory, and the
    key only tells builds apart inside a directory private to the user."""
    import zlib

    command = [cc, *_CFLAGS]
    with open(_SOURCE, "rb") as fh:
        blob = fh.read() + "\0".join(["", *command, os.uname().machine]).encode()
    cache = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"), "ulrt"
    )
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is not a private directory of this user")
    target = os.path.join(cache, f"subsets-{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}.so")
    if not os.path.exists(target):
        import subprocess
        import tempfile

        # build under a temporary name, so no process loads a half-written file
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            proc = subprocess.run([*command, "-o", tmp, _SOURCE], capture_output=True, text=True)
            if proc.returncode != 0:
                raise OSError(f"{cc} exited {proc.returncode}: {proc.stderr.strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return target


def _numpy_fisher_yates(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """:func:`batch_fisher_yates` in numpy, for contiguous uint64 ``keys``.

    Rows run in blocks of ``_FY_BLOCK``.  A block keeps its permutations
    step-major, as an ``(n, w)`` array, so that step ``i`` reads and writes
    one contiguous row and scatters into the others through precomputed
    flat indices.
    """
    rows = keys.shape[0]
    ctr = np.arange(1, k + 1, dtype=np.uint64)
    ctr *= _U64_GOLDEN
    spans = np.arange(n, n - k, -1, dtype=np.uint64)[:, None]
    steps = np.arange(k)[:, None]
    identity = np.arange(n, dtype=np.int32)[:, None]
    out = np.empty((rows, k), dtype=np.int32)
    for lo in range(0, rows, _FY_BLOCK):
        w = min(_FY_BLOCK, rows - lo)
        # draws of the block, step-major (k, w), reduced to swap offsets in
        # place; an offset is below n, so the uint64 bits read as int64
        target = _finalize_array(ctr[:, None] + keys[None, lo : lo + w])
        target %= spans
        target = target.view(np.int64)
        target += steps
        target *= w
        target += np.arange(w)
        perm = np.empty((n, w), dtype=np.int32)
        perm[:] = identity
        flat = perm.reshape(-1)
        tmp = np.empty(w, dtype=np.int32)
        for row, t in zip(perm, target):
            np.take(flat, t, out=tmp)
            flat[t] = row
            row[:] = tmp
        out[lo : lo + w] = perm[:k].T
    return out


def _numpy_split_sums(data: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """The first-part sums of :func:`split_means` in numpy, for contiguous
    uint64 ``(C, B)`` ``keys``: the same subsets, added in the same order."""
    c, b = keys.shape
    subsets = _numpy_fisher_yates(keys.reshape(-1), data.shape[1], k).reshape(c, b, k)
    datasets = np.arange(c)[:, None]
    sums = data[datasets, subsets[..., 0]]
    for i in range(1, k):
        sums += data[datasets, subsets[..., i]]
    return sums


def _signed_unit(z: np.ndarray) -> np.ndarray:
    """Raw draws at the Weyl points ``z``, mapped to [-1, 1)."""
    u = _finalize_array(z).astype(np.float64)
    u *= 2.0**-63
    u -= 1.0
    return u


def _numpy_polar(keys: np.ndarray, count: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """``ulrt_polar`` in numpy, with ``trials`` trials laid out per row:
    ``(out, s)`` as :func:`_polar_trials` leaves them.  A row with fewer than
    ``ceil(count / 2)`` accepted trials is redrawn with twice as many."""
    pairs = (count + 1) // 2
    # Weyl points of the raw draws 2i; draw 2i + 1 is one golden step on
    ctr = np.arange(1, 2 * trials, 2, dtype=np.uint64) * _U64_GOLDEN
    u = _signed_unit(ctr + keys[:, None])
    v = _signed_unit(ctr + (keys[:, None] + _U64_GOLDEN))
    s = u * u
    s += v * v
    keep = (s > 0.0) & (s < 1.0)
    counts = np.count_nonzero(keep, axis=1)
    short = counts < pairs
    keep[short] = False
    # flat positions of each full row's first `pairs` accepted trials
    full = counts[~short]
    first = np.flatnonzero(keep)[(np.cumsum(full) - full)[:, None] + np.arange(pairs)]
    out, s_out = np.empty((keys.size, count)), np.empty((keys.size, pairs))
    out[~short, 0::2] = u.reshape(-1)[first]
    out[~short, 1::2] = v.reshape(-1)[first][:, : count // 2]
    s_out[~short] = s.reshape(-1)[first]
    if short.any():
        out[short], s_out[short] = _numpy_polar(keys[short], count, 2 * trials)
    return out, s_out


def log_mean_exp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """log of the mean of exp(values), stabilized by max subtraction."""
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.squeeze(peak, axis=axis) + np.log(
            np.mean(np.exp(values - peak), axis=axis)
        )
    return out


#: numpy sums a reduction of up to this many elements with ``_UNROLL``
#: interleaved partial sums; longer ones it halves recursively.
_PAIRWISE_BLOCK = 128
_UNROLL = 8
#: :func:`sq_norm` sums column by column when the vectors have at most
#: ``_COLUMN_MAX_D`` coordinates and number at least ``_COLUMN_MIN_VECTORS``
#: per coordinate.  Measured on 2 AVX-512 vCPUs against numpy 2.4, one
#: thread: the column sums win from about 150 vectors at d = 2, 400 at d = 5,
#: 1000 at d = 10 and 2000 at d = 20, about 100 per coordinate, and lose at
#: every count tried from d = 64 to 128, where the strided column reads miss
#: the cache.  In the engine's 2-thread pool, though, the 3d short numpy
#: calls of a column sum hand the GIL back and forth: figure 2's d = 20
#: statistic (8192 vectors) ran 6% slower by column there, and 7% faster
#: with d = 20 left to numpy.  Hence a gate above the one-thread crossover,
#: and no columns past the first eight.
_COLUMN_MAX_D = 8
_COLUMN_MIN_VECTORS = 128


def sq_norm(a: np.ndarray, b=0.0) -> np.ndarray:
    """``sum_j (a_j - b_j)^2`` over the last axis of ``a`` and ``b``, bit for
    bit ``np.sum(np.square(a - b), axis=-1)``.

    ``a`` is a ``(..., d)`` float64 array and ``b`` a float or an array that
    broadcasts against it.  Many short vectors are summed one column at a
    time, in numpy's pairwise order (below 8 columns one running sum from
    column 0; up to ``_PAIRWISE_BLOCK`` columns eight interleaved sums, paired
    as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the tail
    columns one by one), without building the ``(..., d)`` differences:
    numpy pays tens of nanoseconds per vector when the summed axis is short.
    Other inputs go to numpy itself.
    """
    d = a.shape[-1]
    if (0 < d <= _COLUMN_MAX_D and np.broadcast(a, b).size >= _COLUMN_MIN_VECTORS * d * d
            and np.shape(b)[-1:] in ((), (d,))):
        return _column_sq_norm(a, b, d)
    if np.ndim(b) == 0 and b == 0.0:
        diff = np.square(a)  # a - 0.0 would copy a first
    else:
        diff = a - b
        diff *= diff
    # np.sum's own reduction, without the Python wrapper that costs a small call ~3 us
    return np.add.reduce(diff, axis=-1)


def _column_sq_norm(a: np.ndarray, b, d: int) -> np.ndarray:
    """:func:`sq_norm` summed column by column in numpy's pairwise order,
    for ``1 <= d <= _PAIRWISE_BLOCK``; at most nine vector-count arrays live
    at once."""
    if np.ndim(b) == 0:
        b = np.full(d, b)

    def column(j: int, out=None) -> np.ndarray:
        out = np.subtract(a[..., j], b[..., j], out=out)
        out *= out
        return out

    if d < _UNROLL:
        total = column(0)
        tmp = np.empty_like(total)
        for j in range(1, d):
            total += column(j, tmp)
        return total
    acc = [column(j) for j in range(_UNROLL)]
    tmp = np.empty_like(acc[0])
    body = d - d % _UNROLL
    for j in range(_UNROLL, body):
        acc[j % _UNROLL] += column(j, tmp)
    r0, r1, r2, r3, r4, r5, r6, r7 = acc
    r0 += r1
    r2 += r3
    r0 += r2
    r4 += r5
    r6 += r7
    r4 += r6
    r0 += r4
    for j in range(body, d):
        r0 += column(j, tmp)
    return r0


#: :func:`_split_log_values` runs ``ulrt_split_log_values`` when it scores at
#: least this many values, G points times R splits.  Measured on 2 AVX-512
#: vCPUs against numpy 2.4, one point against ``(R, 1, d)`` means: the loop
#: wins from about 250 values at d = 2 to 20 (at 2048 values 18 against 30 us
#: at d = 2, 26 against 91 us at d = 5) and from about 2048 at d = 1, where
#: numpy's column sums are as fast.  Its four ``.ctypes.data`` pointers cost
#: about 12 us a call, so below the gate it loses; the gate keeps the B = 1
#: reducers of the Monte Carlo cells (at most 512 splits a chunk) on numpy.
_LOOP_MIN_VALUES = 2048
#: The numpy twin scores ``(G, d)`` points against ``(R, d)`` means in blocks
#: of points whose ``(block, R, d)`` differences hold at most this many
#: values (at least one point per block), so that a large grid builds no
#: ``(G, R, d)`` temporary.
_TWIN_BLOCK_VALUES = 2**16


def _split_log_values(thetas: np.ndarray, mean0: np.ndarray, mean1: np.ndarray, m0) -> np.ndarray:
    """The log split statistics of :func:`ulrt.regions.split_log_values`:
    ``0.5 * m0 * (sq_norm(mean0, theta) - sq_norm(mean0, mean1))``, bit for
    bit.

    ``ulrt_split_log_values`` scores every point against every split in one
    call when ``thetas`` is ``(d,)`` against ``(..., B, d)`` means or ``(G,
    d)`` against ``(B, d)`` means, all three float64 and both means of one
    shape, ``d <= _PAIRWISE_BLOCK``, ``m0`` a scalar or a ``(B,)`` array,
    and the call scores at least ``_LOOP_MIN_VALUES`` values.  Every other
    input goes to :func:`_numpy_split_log_values`.
    """
    d, shape = mean0.shape[-1], thetas.shape[:-1] + mean0.shape[:-1]
    lib = None
    if (math.prod(shape) >= _LOOP_MIN_VALUES and mean1.shape == mean0.shape
            and thetas.shape[-1:] == (d,) and (thetas.ndim == 1 or thetas.ndim == mean0.ndim == 2)
            and 0 < d <= _PAIRWISE_BLOCK and np.shape(m0) in ((), mean0.shape[-2:-1])
            and thetas.dtype == mean0.dtype == mean1.dtype == np.float64):
        lib = _compiled()
    if lib is None:
        return _numpy_split_log_values(thetas, mean0, mean1, m0)
    thetas, mean0, mean1 = (np.ascontiguousarray(a) for a in (thetas, mean0, mean1))
    out = np.empty(shape)
    scalar = np.ndim(m0) == 0
    lib.ulrt_split_log_values(thetas.ctypes.data, thetas.size // d, mean0.ctypes.data,
                              mean1.ctypes.data, mean0.size // d, d,
                              0.5 * m0 if scalar else 1.0, out.ctypes.data)
    if not scalar:
        out *= 0.5 * m0  # 1.0 * x is x, so this rounds as 0.5 * m0 * (...)
    return out


def _numpy_split_log_values(thetas: np.ndarray, mean0: np.ndarray, mean1: np.ndarray, m0):
    """:func:`_split_log_values` in numpy, the statistic as written; ``(G,
    d)`` points against ``(R, d)`` means go in blocks of
    ``_TWIN_BLOCK_VALUES``."""
    delta = sq_norm(mean0, mean1)
    points = thetas[..., None, :]
    step = max(1, _TWIN_BLOCK_VALUES // max(mean0.size, 1))
    if thetas.ndim == mean0.ndim == 2 and step < thetas.shape[0]:
        return np.concatenate([0.5 * m0 * (sq_norm(mean0, points[lo : lo + step]) - delta)
                               for lo in range(0, thetas.shape[0], step)])
    return 0.5 * m0 * (sq_norm(mean0, points) - delta)
