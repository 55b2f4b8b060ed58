"""Vectorized inner loops shared by the statistics and the experiment runner.

Everything here is exact batch arithmetic.  ``split_means`` is the one subset
draw: it takes each split's first part by a partial Fisher-Yates shuffle of
the split's stream key and sums that part's rows in draw order, so that the
means of a batch of splits are a function of the code alone.
:func:`ulrt.data.split` calls it with a single key, the subsampling and Monte
Carlo paths with many.  ``exact_split_means`` draws the same subsets and then
the split sums from their exact law given them, a Gaussian with the subsets'
Gram matrix as covariance, so that a B > 1 Monte Carlo replication of many
coordinates builds no dataset.

Seven loops sit behind one switch, ``_lib()``: the methods ``split_sums``
(of ``split_means``), ``exact_sums`` (of ``exact_split_means``), ``polar``
(of :func:`ulrt.rng.batch_normals`), ``split_log_values`` (of
:func:`ulrt.regions.split_log_values`), and ``gamma_p_series``,
``gamma_q_contfrac`` and ``noncentral_mixture`` (of :mod:`ulrt.specfun`).
``_lib()`` returns the extension module ``_subsets``, built from
``_subsets.c`` next to this file, or ``_TWINS``, numpy and Python loops
under the same names, with the same arguments and the same bytes; no other
code picks between the two.  The first call imports the module from the
per-user cache ``$XDG_CACHE_HOME/ulrt`` (default ``~/.cache/ulrt``), keyed
by a checksum of the source, the flags, the extension suffix,
``sys.version`` and ``sys.base_prefix``; when it is not there, it first
compiles the source with ``cc -O3 -shared -fPIC -ffp-contract=off`` (no
fused multiply-add, so every product rounds as in numpy) and the include
path of ``Python.h``.  A method takes arrays as buffers and runs without the
GIL; the special-function methods take and return floats and keep the GIL.
Without a cached build and without a compiler or ``Python.h``, or when the
build or the load fails, ``_lib()`` returns ``_TWINS`` and the process emits
one ``RuntimeWarning`` that says why.

The splitmix64 finalizer on uint64 arrays, :func:`_finalize_array`, and its
constants live here; :mod:`ulrt.rng` builds its streams on them.

:func:`sq_norm` evaluates every squared distance of the statistics.  Its
contract is numpy's bytes: it sums in numpy's pairwise order (Higham, SIAM J.
Sci. Comput. 14:783, 1993), one running sum column by column when there are
many vectors of at most seven coordinates, so it equals
``np.sum(np.square(a - b), axis=-1)`` bit for bit.
``tests/test_regions.py::test_sq_norm_is_numpys_sum_bit_for_bit`` pins that
for d = 1 to 140, and fails if a numpy release changes its order.  The
compiled statistic sums in the same order, so it keeps the same bytes.
"""

from __future__ import annotations

import importlib.machinery
import math
import operator
import os
import shutil
import sys
import threading
import warnings
from types import SimpleNamespace

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
#: Held while the first call builds and loads the module, so that the
#: engine's worker threads build it once.
_LOAD_LOCK = threading.Lock()
#: ``[lib]`` once a call has tried to load the module; ``lib`` is the loaded
#: module, or ``None`` when the numpy and Python loops run instead.
_loaded: list = []


def _check_keys(keys, ndim: int) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != ndim or keys.dtype.kind not in "ui":
        raise DomainError(f"keys must be a {ndim}-d integer array, got {keys.dtype} {keys.shape}")
    return np.ascontiguousarray(keys, dtype=np.uint64)


def _check_sizes(n, k) -> tuple[int, int]:
    try:
        n, k = operator.index(n), operator.index(k)
    except TypeError:
        raise DomainError(f"n and k must be integers, got n={n!r}, k={k!r}") from None
    if not 1 <= k < n < 2**31:
        raise DomainError(f"need 1 <= k < n < 2**31, so that both parts of a split are nonempty, "
                          f"got k={k}, n={n}")
    return n, k


def split_means(data: np.ndarray, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Means of both parts of a batch of random splits.

    ``data`` is a contiguous float64 ``(C, n, d)`` array and ``keys`` a
    ``(C, B)`` integer array (converted to contiguous uint64): split ``b`` of
    dataset ``c`` takes as its first part the size-``k`` subset of rows that
    stream ``keys[c, b]`` draws, and the rest as its second.  The subset is
    the first ``k`` entries, in order, of the permutation of ``0..n-1`` after
    ``k`` partial Fisher-Yates steps: step ``i`` swaps position ``i`` with
    position ``i + draw_i % (n - i)``, where ``draw_i`` is draw ``i`` of the
    stream.  The first part's rows are summed in draw order, one column at a
    time.  Returns ``(mean0, mean1)``, each ``(C, B, d)``; ``1 <= k < n <
    2**31``.
    """
    if not (isinstance(data, np.ndarray) and data.ndim == 3 and data.dtype == np.float64
            and data.flags.c_contiguous):
        raise DomainError("data must be a contiguous float64 (C, n, d) array")
    keys = _check_keys(keys, 2)
    c, n, d = data.shape
    if keys.shape[0] != c:
        raise DomainError(f"keys must have one row per dataset, got {keys.shape} for {c} datasets")
    n, k = _check_sizes(n, k)
    sums = np.empty((c, keys.shape[1], d))
    _lib().split_sums(keys, keys.shape[1], n, k, data, d, np.empty(n, dtype=np.int32), sums)
    return sums / k, (data.sum(axis=1, keepdims=True) - sums) / (n - k)


#: The pivoted Cholesky of :func:`exact_split_means` stops at a pivot of at
#: most ``n * _RANK_RTOL``.  The Gram matrix holds integers up to n, and its
#: factor rounds off by about (B + 1) * 2**-52 * n, some 1e-14 * n at B = 100,
#: so a rank-deficient G (B + 1 > n) stops well above its roundoff; dropping a
#: true pivot this small would change no variance by more than 1e-9 * n.
_RANK_RTOL = 1e-9


def exact_split_means(z: np.ndarray, keys: np.ndarray, n: int, k: int,
                      theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The part means of :func:`split_means` for ``C`` datasets of ``n``
    N(theta, I_d) rows, drawn from their exact law given the subsets, so that
    no dataset is built.

    ``keys`` is ``(C, B)`` and draws the same subsets ``S_b`` as in
    :func:`split_means`; ``z`` is a contiguous float64 ``(C, B + 1, d)``
    array of standard normals.  Given the subsets, the first-part sums
    ``T_b`` and the total ``T`` are jointly Gaussian with means ``k * theta``
    and ``n * theta`` and covariance ``G (x) I_d``, where ``G`` is the Gram
    matrix of the membership rows: ``G[b, b'] = |S_b & S_b'|``, ``G[b, T] =
    k`` and ``G[T, T] = n``.  With the pivoted Cholesky ``P L L' P' = G``
    (stopped at numerical rank, so B + 1 > n works), ``(T_1, .., T_B, T) = mu
    + P L z``, each row summed in column order.  Returns ``(mean0, mean1)``,
    each ``(C, B, d)``: ``T_b / k`` and ``(T - T_b) / (n - k)``.  No step of
    ``exact_sums``, compiled or twin, calls BLAS or LAPACK.
    """
    keys = _check_keys(keys, 2)
    n, k = _check_sizes(n, k)
    c, b = keys.shape
    theta = np.asarray(theta, dtype=np.float64)
    if not (isinstance(z, np.ndarray) and z.dtype == np.float64 and z.flags.c_contiguous
            and z.shape[:2] == (c, b + 1) and z.ndim == 3 and theta.shape == z.shape[2:]):
        raise DomainError(f"z must be a contiguous float64 ({c}, {b + 1}, d) array for d = "
                          f"len(theta), got {getattr(z, 'dtype', type(z).__name__)} "
                          f"{np.shape(z)} and theta {theta.shape}")
    sums = np.empty_like(z)
    _lib().exact_sums(keys, b, n, k, z, z.shape[2], n * _RANK_RTOL, sums)
    first = sums[:, :b]
    first += k * theta
    total = sums[:, b:]
    total += n * theta
    return first / k, (total - first) / (n - k)


def _compiled():
    """The compiled module, built and loaded on first use, or ``None`` when
    the numpy loops must run."""
    with _LOAD_LOCK:
        if not _loaded:
            _loaded.append(_load_compiled())
        return _loaded[0]


def _lib():
    """The one switch between the loops: the compiled module, or ``_TWINS``
    when the numpy and Python loops must run."""
    return _compiled() or _TWINS


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _find_headers() -> str | None:
    import sysconfig

    include = sysconfig.get_paths()["include"]
    return include if os.path.isfile(os.path.join(include, "Python.h")) else None


def _load_compiled():
    """The module from the per-user cache, built there first when missing.

    A cached build loads without looking for the compiler or the headers:
    ``sysconfig.get_paths()`` alone imports ``_sysconfigdata``, most of a
    cold load's time, so only a missing build pays for it."""
    reason = None
    try:
        path = _cached_path()
        if not os.path.exists(path):
            cc, include = _find_compiler(), _find_headers()
            if cc is None:
                reason = "no C compiler (cc) on PATH"
            elif include is None:
                reason = "no Python.h (the Python development headers) in sysconfig's include path"
            else:
                _build(cc, include, path)
        if reason is None:
            loader = importlib.machinery.ExtensionFileLoader("ulrt._subsets", path)
            lib = loader.create_module(importlib.machinery.ModuleSpec(loader.name, loader, origin=path))
            loader.exec_module(lib)
            return lib
    except (OSError, ImportError) as exc:
        reason = f"building or loading {_SOURCE} failed ({exc})"
    warnings.warn("ulrt draws normals and subsets, sums splits and scores them with the numpy "
                  "loops, and evaluates the special functions with the Python loops, not the "
                  f"compiled ones: {reason}", RuntimeWarning, stacklevel=4)
    return None


def _cached_path() -> str:
    """Where the per-user cache keeps the build of ``_SOURCE`` for this
    interpreter, in a directory it makes private to the user if needed.

    The key is a CRC-32 and an Adler-32 of the source, the flags, the
    extension suffix (which names the machine), ``sys.version`` and
    ``sys.base_prefix``: ``hashlib`` would load OpenSSL, about 3.6 MB of
    resident memory, and the key only tells builds apart inside a directory
    private to the user.  The include path of ``Python.h`` is left out, as
    looking it up is what a cached build saves; the interpreter it belongs to
    is in the key."""
    import zlib

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    with open(_SOURCE, "rb") as fh:
        blob = fh.read() + "\0".join(["", *_CFLAGS, suffix, sys.version, sys.base_prefix]).encode()
    cache = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"), "ulrt"
    )
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is not a private directory of this user")
    return os.path.join(cache, f"subsets-{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}{suffix}")


def _build(cc: str, include: str, target: str) -> None:
    """Compile ``_SOURCE`` with ``cc`` against the headers in ``include``
    into ``target``, under a temporary name first, so that no process loads
    a half-written file."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, f"-I{include}", "-o", tmp, _SOURCE],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} exited {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _numpy_fisher_yates(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """The subsets of :func:`split_means` in numpy, for contiguous uint64
    ``keys``: an ``(R, k)`` int32 matrix whose row ``r`` is drawn by
    ``keys[r]``.

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


def _numpy_split_sums(keys, b: int, n: int, k: int, data, d: int, perm, sums) -> None:
    """The compiled ``split_sums`` in numpy: the same subsets, added in the
    same order; ``perm``, the C loop's scratch, goes unused."""
    subsets = _numpy_fisher_yates(keys.reshape(-1), n, k).reshape(-1, b, k)
    data, sums = data.reshape(-1, n, d), sums.reshape(-1, b, d)
    datasets = np.arange(subsets.shape[0])[:, None]
    sums[:] = data[datasets, subsets[..., 0]]
    for i in range(1, k):
        sums += data[datasets, subsets[..., i]]


#: Set bits of each byte value, for the popcounts of the numpy twin.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _numpy_exact_sums(keys, b: int, n: int, k: int, z, d: int, tol: float, sums) -> None:
    """The compiled ``exact_sums`` in numpy, operation for operation, so bit
    for bit.  Row ``q`` in pivot order starts at ``L(q, 0) * z[0]`` and adds
    ``L(q, j) * z[j]`` for ``j <= min(q, r - 1)``, in order; row ``piv[q]``
    of ``sums`` gets it."""
    m = b + 1
    subsets = _numpy_fisher_yates(keys.reshape(-1), n, k).reshape(-1, b, k)
    z, sums = z.reshape(-1, m, d), sums.reshape(-1, m, d)
    for r in range(subsets.shape[0]):
        member = np.zeros((b, n), dtype=bool)
        member[np.arange(b)[:, None], subsets[r]] = True
        bits = np.packbits(member, axis=1)
        gram = np.full((m, m), float(k))
        gram[:b, :b] = _BYTE_BITS[bits[:, None, :] & bits[None, :, :]].sum(axis=2)
        gram[b, b] = n
        lower, piv = _numpy_pivoted_cholesky(gram, tol)
        acc = lower[:, 0, None] * z[r, 0]
        for j in range(1, lower.shape[1]):
            acc[j:] += lower[j:, j, None] * z[r, j]
        sums[r, piv] = acc


def _numpy_pivoted_cholesky(gram: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The compiled ``pivoted_cholesky`` in numpy: ``(L, piv)`` with ``L``
    the ``(m, r)`` factor, rows in pivot order, and ``piv[q]`` the index of
    ``gram`` that pivot row ``q`` holds.  Step ``j`` pivots on the first
    largest trailing diagonal entry and stops when it is not above ``tol``."""
    m = gram.shape[0]
    s = gram.copy()
    lower = np.zeros((m, m))
    piv = np.arange(m)
    for j in range(m):
        p = j + int(np.argmax(np.diagonal(s)[j:]))
        if not s[p, p] > tol:
            return lower[:, :j], piv
        if p != j:
            for a in (s, s.T, lower, piv):
                a[[j, p]] = a[[p, j]]
        root = np.sqrt(s[j, j])
        col = s[j + 1 :, j] / root
        lower[j, j] = root
        lower[j + 1 :, j] = col
        s[j + 1 :, j + 1 :] -= col[:, None] * col
    return lower, piv


def _signed_unit(z: np.ndarray) -> np.ndarray:
    """Raw draws at the Weyl points ``z``, mapped to [-1, 1)."""
    u = _finalize_array(z).astype(np.float64)
    u *= 2.0**-63
    u -= 1.0
    return u


def _twin_polar(keys: np.ndarray, count: int, out: np.ndarray, s: np.ndarray) -> None:
    """The compiled ``polar`` in numpy: row ``r`` of ``out`` and ``s`` gets
    the first accepted polar trials of ``keys[r]``, unscaled ``u, v``
    interleaved, and ``u * u + v * v``."""
    pairs = (count + 1) // 2
    # acceptance rate is pi/4; oversize by ~5 sigma so that redraws are rare
    out[:], s[:] = _numpy_polar(keys, count, int(pairs * 1.2733) + int(4.0 * pairs**0.5) + 16)


def _numpy_polar(keys: np.ndarray, count: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_twin_polar` with ``trials`` trials laid out per row, as ``(out,
    s)``.  A row with fewer than ``ceil(count / 2)`` accepted trials is
    redrawn with twice as many."""
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
    shifted = values - peak
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        return np.squeeze(peak, axis=axis) + np.log(np.mean(shifted, axis=axis))


#: numpy sums a reduction of up to this many elements with eight
#: interleaved partial sums, the order of ``sq_dist`` in ``_subsets.c``;
#: longer ones it halves recursively, so the compiled statistic stops here.
_PAIRWISE_BLOCK = 128
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
#: and no columns past seven, where numpy's sum is one running sum from
#: column 0.
_COLUMN_MAX_D = 7
_COLUMN_MIN_VECTORS = 128


def sq_norm(a: np.ndarray, b=0.0) -> np.ndarray:
    """``sum_j (a_j - b_j)^2`` over the last axis of ``a`` and ``b``, bit for
    bit ``np.sum(np.square(a - b), axis=-1)``.

    ``a`` is a ``(..., d)`` float64 array and ``b`` a float or an array that
    broadcasts against it.  Many vectors of at most ``_COLUMN_MAX_D``
    coordinates are summed one column at a time, in numpy's order below 8
    terms, one running sum from column 0, without building the ``(..., d)``
    differences: numpy pays tens of nanoseconds per vector when the summed
    axis is short.  Other inputs go to numpy itself.
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
    """:func:`sq_norm` summed column by column, one running sum from column
    0, for ``1 <= d <= _COLUMN_MAX_D``; two vector-count arrays live at
    once."""
    if np.ndim(b) == 0:
        b = np.full(d, b)
    total = np.subtract(a[..., 0], b[..., 0])
    total *= total
    tmp = np.empty_like(total)
    for j in range(1, d):
        np.subtract(a[..., j], b[..., j], out=tmp)
        tmp *= tmp
        total += tmp
    return total


#: The numpy twin scores ``(G, d)`` points against ``(R, d)`` means in blocks
#: of points whose ``(block, R, d)`` differences hold at most this many
#: values (at least one point per block), so that a large grid builds no
#: ``(G, R, d)`` temporary.
_TWIN_BLOCK_VALUES = 2**16


def _split_log_values(thetas: np.ndarray, mean0: np.ndarray, mean1: np.ndarray, m0) -> np.ndarray:
    """The log split statistics of :func:`ulrt.regions.split_log_values`:
    ``0.5 * m0 * (sq_norm(mean0, theta) - sq_norm(mean0, mean1))``, bit for
    bit.

    ``split_log_values`` scores every point against every split in one call
    when ``thetas`` is ``(d,)`` against ``(..., B, d)`` means or ``(G, d)``
    against ``(B, d)`` means, all three float64 and both means of one shape,
    and ``d <= _PAIRWISE_BLOCK``.  Every other input goes to
    :func:`_numpy_split_log_values`, on both paths.  ``m0`` is a scalar.
    """
    d, half_m0 = mean0.shape[-1], 0.5 * m0
    if not (mean1.shape == mean0.shape and thetas.shape[-1:] == (d,) and 0 < d <= _PAIRWISE_BLOCK
            and (thetas.ndim == 1 < mean0.ndim or thetas.ndim == mean0.ndim == 2)
            and thetas.dtype == mean0.dtype == mean1.dtype == np.float64):
        return _numpy_split_log_values(thetas, mean0, mean1, half_m0)
    out = np.empty(thetas.shape[:-1] + mean0.shape[:-1])
    _lib().split_log_values(*(np.ascontiguousarray(a) for a in (thetas, mean0, mean1)), d, half_m0, out)
    return out


def _twin_split_log_values(theta, mean0, mean1, d: int, half_m0: float, out) -> None:
    """The compiled ``split_log_values`` in numpy: ``out`` gets the scores of
    the flat ``(G, d)`` points against the flat ``(R, d)`` means, ``(G, R)``."""
    flat = (a.reshape(-1, d) for a in (theta, mean0, mean1))
    out[...] = _numpy_split_log_values(*flat, half_m0).reshape(out.shape)


def _numpy_split_log_values(thetas: np.ndarray, mean0: np.ndarray, mean1: np.ndarray, half_m0):
    """:func:`_split_log_values` in numpy, the statistic as written, with
    ``half_m0 = m0 / 2``; ``(G, d)`` points against ``(R, d)`` means go in
    blocks of ``_TWIN_BLOCK_VALUES``."""
    delta = sq_norm(mean0, mean1)
    points = thetas[..., None, :]
    step = max(1, _TWIN_BLOCK_VALUES // max(mean0.size, 1))
    if thetas.ndim == mean0.ndim == 2 and step < thetas.shape[0]:
        return np.concatenate([half_m0 * (sq_norm(mean0, points[lo : lo + step]) - delta)
                               for lo in range(0, thetas.shape[0], step)])
    return half_m0 * (sq_norm(mean0, points) - delta)


# The special-function loops of ulrt.specfun.  Each returns its value, or
# None when it used up its step budget; specfun raises the NumericError.  The
# Python twins use math.exp, math.log and math.lgamma, and the compiled
# methods the same libm exp and log and a port of CPython's lgamma, so both
# give the same bytes.


def _python_gamma_p_series(a: float, x: float, budget: int) -> float | None:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(budget):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return None


def _python_gamma_q_contfrac(a: float, x: float, budget: int) -> float | None:
    """Regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, budget + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return None


def _python_noncentral_mixture(half: float, k0: int, a: float, s: float, log_s: float, w0: float,
                               p0: float, budget: int, abs_tol: float) -> float | None:
    """The Poisson mixture of :func:`ulrt.specfun.noncentral_chi2_cdf`, summed
    outward from the mode ``k0`` with weight ``w0`` and central CDF ``p0``."""

    def g(k: int) -> float:
        """``g(a + k) = e^-s s^(a+k) / Gamma(a + k + 1)``."""
        return math.exp(-s + (a + k) * log_s - math.lgamma(a + k + 1.0))

    total = w0 * p0
    mass = w0
    w_up, k_up, p_up = w0, k0, p0
    w_down, k_down, p_down = w0, k0, p0
    for _ in range(budget):
        # a direction steps while a geometric bound on its unsummed tail
        # exceeds half the tolerance: the weight ratio half/(k+1) only falls
        # going up, k/half only falls going down, and the lower tail has
        # k_down terms at most
        tol = 0.5 * abs_tol * mass
        up = w_up * half / (k_up + 1 - half) > tol
        down = w_down * k_down / max(half - k_down, 1.0) > tol
        if not (up or down):
            return min(max(total / mass, 0.0), 1.0)
        if up:
            p_up = max(p_up - g(k_up), 0.0)
            k_up += 1
            w_up *= half / k_up
            total += w_up * p_up
            mass += w_up
        if down:
            w_down *= k_down / half
            k_down -= 1
            p_down = min(p_down + g(k_down), 1.0)
            total += w_down * p_down
            mass += w_down
    return None


#: The twins of the compiled module's seven methods, under its method names,
#: for ``_lib()`` to return when the module does not load.  Each is private,
#: so that the benchmark's tracer leaves its time with the function calling it.
_TWINS = SimpleNamespace(
    split_sums=_numpy_split_sums, exact_sums=_numpy_exact_sums, polar=_twin_polar,
    split_log_values=_twin_split_log_values, gamma_p_series=_python_gamma_p_series,
    gamma_q_contfrac=_python_gamma_q_contfrac, noncentral_mixture=_python_noncentral_mixture,
)
