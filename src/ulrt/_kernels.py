"""Vectorized inner loops shared by the statistics and the experiment runner.

Everything here is exact batch arithmetic over the same draws the scalar code
paths consume: ``batch_fisher_yates`` reproduces :func:`ulrt.data.split`
partition-for-partition when given the same stream keys, and the partition
sums are plain matrix products against one-hot membership matrices (fast via
BLAS, and within float rounding of per-row means).
"""

from __future__ import annotations

import numpy as np

from .rng import _U64_GOLDEN, _finalize_array


def batch_fisher_yates(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates shuffles for many streams at once.

    Returns an ``(R, n)`` int32 matrix whose row ``r`` is the permutation of
    ``0..n-1`` after ``k`` swap steps driven by stream ``keys[r]``; the first
    ``k`` columns are the sampled subset.  Row ``r`` equals the scalar
    partial shuffle for the same key.
    """
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


def batched_partition_sums(data: np.ndarray, perms: np.ndarray, k: int) -> np.ndarray:
    """Per-dataset variant: ``data`` is ``(C, n, d)``, ``perms`` ``(C, B, n)``.

    Returns ``(C, B, d)`` sums of each dataset's rows over its own splits.
    """
    c, n, _ = data.shape
    b = perms.shape[1]
    onehot = np.zeros((c, b, n), dtype=np.float64)
    np.put_along_axis(onehot, perms[:, :, :k].astype(np.int64), 1.0, axis=2)
    return onehot @ data


def split_means(data: np.ndarray, perms: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Means of both parts for batched splits.

    ``data`` is ``(C, n, d)`` and ``perms`` is ``(C, B, n)``; returns
    ``(mean0, mean1)`` each of shape ``(C, B, d)``.
    """
    n = data.shape[1]
    sums0 = batched_partition_sums(data, perms, k)
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
