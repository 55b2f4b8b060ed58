"""Vectorized inner loops shared by the statistics and the experiment runner.

Everything here is exact batch arithmetic.  ``batch_fisher_yates`` is the one
partial Fisher-Yates shuffle: :func:`ulrt.data.split` calls it with a single
stream key, the subsampling and Monte Carlo paths with many.  The partition
sums in ``split_means`` are plain matrix products against one-hot membership
matrices (fast via BLAS, and within float rounding of per-row means).
"""

from __future__ import annotations

import numpy as np

from .rng import _U64_GOLDEN, _finalize_array

#: Rows shuffled together by :func:`batch_fisher_yates`.  Blocking bounds
#: the working set of the k steps (4 MB of swap targets and 4 MB of
#: permutations at n = 1000, k = 500) whatever the number of rows.
_FY_BLOCK = 1024


def batch_fisher_yates(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates shuffles for many streams at once.

    Returns an ``(R, k)`` int32 matrix whose row ``r`` is the size-``k``
    subset of ``0..n-1`` drawn by stream ``keys[r]``: the first ``k``
    entries, in order, of the permutation after ``k`` swap steps.  Step
    ``i`` swaps position ``i`` with position ``i + draw_i % (n - i)``, where
    ``draw_i`` is draw ``i`` of the stream.

    Rows run in blocks of ``_FY_BLOCK``.  A block keeps its permutations
    step-major, as an ``(n, w)`` array, so that step ``i`` reads and writes
    one contiguous row and scatters into the others through precomputed
    flat indices.
    """
    keys = np.asarray(keys, dtype=np.uint64)
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
        target = _finalize_array(ctr[:, None] + keys[None, lo : lo + w], inplace=True)
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


def split_means(data: np.ndarray, subsets: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Means of both parts for batched splits.

    ``data`` is ``(C, n, d)`` and ``subsets`` is ``(C, B, k)``: row ``b`` of
    dataset ``c`` holds the ``k`` indices of split ``b``'s first part, as
    :func:`batch_fisher_yates` returns them.  Returns ``(mean0, mean1)``,
    each ``(C, B, d)``.
    """
    c, n, _ = data.shape
    b = subsets.shape[1]
    onehot = np.zeros((c, b, n), dtype=np.float64)
    # indexing with the int32 subsets and a broadcast row index allocates no
    # (C, B, k) intp index array
    onehot.reshape(c * b, n)[np.arange(c * b)[:, None], subsets.reshape(c * b, -1)] = 1.0
    sums0 = onehot @ data
    totals = data.sum(axis=1, keepdims=True)
    mean0 = sums0 / k
    mean1 = (totals - sums0) / (n - k)
    return mean0, mean1


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


def sq_norm(vectors: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.sum(np.square(vectors), axis=axis)
