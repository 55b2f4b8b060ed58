"""Gaussian sampling, reproducible dataset splitting, and mean caching.

A :class:`SampleSet` is an immutable n-by-d matrix of observations with its
column mean cached; a :class:`SplitPair` is an index partition into the
likelihood-evaluation part (``indices0``) and the estimation part
(``indices1``), with both part means cached.

Splitting draws a uniformly random size-``round(n * p0)`` subset via a partial
Fisher-Yates shuffle.  All randomness flows through :class:`RngStream` values
or their uint64 keys, so identical streams reproduce identical datasets and
partitions.

Monte Carlo replications need only the part means of their splits.
:func:`replicate_split_means` returns them for a chunk of replications, from
``(C,)`` key arrays and one :func:`ulrt.rng.batch_normals` draw for the whole
chunk: a single split (B = 1) draws the two means from their exact law with
:func:`sample_part_means`, and B > 1 splits simulate the full dataset and
split it B times, through :func:`ulrt._kernels.split_means`, which draws
each subset and sums its rows in draw order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_fisher_yates, split_means
from .errors import DomainError
from .rng import RngStream, batch_normals


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampleSet:
    """An n-by-d matrix of observations with the column mean cached."""

    values: np.ndarray
    mean: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SampleSet":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DomainError(f"values must be a 2-d array, got shape {values.shape}")
        n, d = values.shape
        if n < 2 or d < 1:
            raise DomainError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        return cls(values=_frozen(values), mean=_frozen(values.mean(axis=0)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitPair:
    """An index partition of a sample with both part means cached.

    ``p0`` is the requested proportion for the likelihood-evaluation part;
    the realized part size is ``round(n * p0)`` (half up), so ``m0 / n`` can
    differ from ``p0`` when ``n * p0`` is not an integer.
    """

    indices0: np.ndarray
    indices1: np.ndarray
    p0: float
    mean0: np.ndarray
    mean1: np.ndarray

    @classmethod
    def from_indices(
        cls, sample: SampleSet, indices0: np.ndarray, p0: float | None = None
    ) -> "SplitPair":
        indices0 = np.sort(np.asarray(indices0, dtype=np.int64))
        n = sample.n
        mask = np.zeros(n, dtype=bool)
        if indices0.size and (indices0[0] < 0 or indices0[-1] >= n):
            raise DomainError("indices0 out of range")
        mask[indices0] = True
        if mask.sum() != indices0.size:
            raise DomainError("indices0 contains duplicates")
        indices1 = np.nonzero(~mask)[0]
        if indices0.size < 1 or indices1.size < 1:
            raise DomainError("both parts of a split must be nonempty")
        return cls(
            indices0=_frozen(indices0),
            indices1=_frozen(indices1),
            p0=float(p0 if p0 is not None else indices0.size / n),
            mean0=_frozen(sample.values[indices0].mean(axis=0)),
            mean1=_frozen(sample.values[indices1].mean(axis=0)),
        )

    @property
    def m0(self) -> int:
        return self.indices0.size

    @property
    def m1(self) -> int:
        return self.indices1.size


def part_size(n: int, p0: float) -> int:
    """Realized size of the likelihood part: ``round(n * p0)``, half up.

    Half-up rounding puts the extra observation of an odd-sized sample at
    ``p0 = 0.5`` into the likelihood part.
    """
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"p0 must lie in (0, 1), got {p0}")
    # Round the product to 9 decimals first: a product that is a half
    # integer in exact arithmetic (n = 25, p0 = 0.58) can come out just
    # below it in binary (14.499999999999998) and would round down.
    k = int(math.floor(round(n * p0, 9) + 0.5))
    if k < 1 or k > n - 1:
        raise DomainError(f"split p0={p0} leaves an empty part for n={n}")
    return k


def sample_gaussian(n: int, d: int, theta, rng: RngStream) -> SampleSet:
    """``n`` iid draws from N(theta, I_d), deterministic given ``rng``."""
    if n < 2 or d < 1:
        raise DomainError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape != (d,):
        raise DomainError(f"theta must have length d={d}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    values = rng.normals(n * d).reshape(n, d) + theta
    return SampleSet.from_values(values)


def split(sample: SampleSet, p0: float, rng: RngStream) -> SplitPair:
    """Uniformly random partition with ``|D0| = round(n * p0)``.

    Repeated calls with the same stream return the same partition.
    """
    k = part_size(sample.n, p0)
    indices0 = batch_fisher_yates(np.array([rng.key], dtype=np.uint64), sample.n, k)[0]
    return SplitPair.from_indices(sample, indices0, p0=p0)


def subsample_splits(sample: SampleSet, B: int, p0: float, rng: RngStream) -> list[SplitPair]:
    """``B`` independent splits, split ``b`` drawn from ``rng.substream(b)``."""
    if B < 1:
        raise DomainError(f"B must be at least 1, got {B}")
    n = sample.n
    k = part_size(n, p0)
    keys = rng.substream_keys(B)
    subsets = batch_fisher_yates(keys, n, k)
    return [SplitPair.from_indices(sample, subset, p0=p0) for subset in subsets]


def sample_part_means(keys: np.ndarray, n: int, k: int, theta) -> tuple[np.ndarray, np.ndarray]:
    """Part means of one uniformly random size-``k`` split per replication.

    For ``n`` iid draws from N(theta, I_d) and a uniformly random partition
    into parts of sizes ``k`` and ``n - k``, the part means are independent
    N(theta, I/k) and N(theta, I/(n - k)), so they are drawn directly:
    replication ``i`` takes ``2d`` normals from the stream with key
    ``keys[i]``, the first ``d`` for ``mean0`` and the last ``d`` for
    ``mean1``.  Returns ``(mean0, mean1)``, each ``(C, d)``.  The overall
    mean ``(k * mean0 + (n - k) * mean1) / n`` is exactly N(theta, I/n).
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    d = theta.shape[0]
    z = batch_normals(keys, 2 * d)
    return z[:, :d] / math.sqrt(k) + theta, z[:, d:] / math.sqrt(n - k) + theta


def replicate_split_means(
    stream: RngStream, lo: int, hi: int, n: int, k: int, theta: np.ndarray, B: int
) -> tuple[np.ndarray, np.ndarray]:
    """Part means of ``B`` random size-``k`` splits of the N(theta, I_d)
    datasets of replications ``lo .. hi-1``, replication ``r`` drawing from
    ``stream.substream(r)``; returns ``(mean0, mean1)``, each ``(C, B, d)``.

    Substream 0 of a replication draws its data: with ``B = 1`` only the
    two part means (:func:`sample_part_means`), with ``B > 1`` the full
    ``n``-by-``d`` dataset, whose splits descend from substream 1.
    """
    keys = stream.substream_keys(lo, hi, child=0)
    if B == 1:
        mean0, mean1 = sample_part_means(keys, n, k, theta)
        return mean0[:, None, :], mean1[:, None, :]
    data = batch_normals(keys, n * theta.shape[0]).reshape(hi - lo, n, -1)
    data += theta
    return split_means(data, stream.substream_keys(lo, hi, child=1, grandchildren=B), k)


def save_csv(sample: SampleSet, path) -> None:
    """Write one observation per row with header ``y1..yd``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{j + 1}" for j in range(sample.d)])
        for row in sample.values:
            writer.writerow([repr(float(v)) for v in row])


def load_csv(path) -> SampleSet:
    """Read a sample written by :func:`save_csv` (or any ``y1..yd`` CSV)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or not all(h.strip().startswith("y") for h in header):
            raise DomainError(f"{path}: expected a header row y1..yd")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields under a header of {len(header)}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DomainError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DomainError(f"{path}: no observations")
    return SampleSet.from_values(np.asarray(rows, dtype=np.float64))
