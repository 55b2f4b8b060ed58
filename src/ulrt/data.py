"""Gaussian sampling, reproducible dataset splitting, and mean caching.

A :class:`SampleSet` is an immutable n-by-d matrix of observations with its
column mean cached; a :class:`SplitPair` holds the part means of ``B`` random
splits of a sample into the likelihood-evaluation part and the estimation
part, which is all that any statistic reads of a split.

Splitting draws a uniformly random size-``round(n * p0)`` subset via a partial
Fisher-Yates shuffle, and :func:`ulrt._kernels.split_means` sums its rows in
draw order: :func:`split` and :func:`subsample_splits` get their means from
it, as the Monte Carlo cells do.  All randomness flows through
:class:`RngStream` values or their uint64 keys, so identical streams
reproduce identical datasets and partitions.

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
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import split_means
from .errors import DomainError
from .rng import RngStream, batch_normals


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SplitPair:
    """The part means of ``B`` splits of one sample.

    Row ``b`` of the ``(B, d)`` arrays ``mean0`` and ``mean1`` holds the means
    of split ``b``'s likelihood-evaluation part, of ``m0`` observations, and
    of its estimation part, of ``m1``.  ``p0`` is the requested proportion;
    the realized part size is ``round(n * p0)`` (half up), so ``m0 / n`` can
    differ from ``p0`` when ``n * p0`` is not an integer.
    """

    mean0: np.ndarray
    mean1: np.ndarray
    m0: int
    m1: int
    p0: float

    def __post_init__(self) -> None:
        mean0, mean1 = (_frozen(np.array(m, dtype=np.float64)) for m in (self.mean0, self.mean1))
        if mean0.ndim != 2 or mean0.shape != mean1.shape or len(mean0) < 1:
            raise DomainError(
                f"split means must be two (B, d) arrays with B >= 1, got {mean0.shape} and {mean1.shape}"
            )
        if self.m0 < 1 or self.m1 < 1:
            raise DomainError("both parts of a split must be nonempty")
        object.__setattr__(self, "mean0", mean0)
        object.__setattr__(self, "mean1", mean1)


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


def _split_record(sample: SampleSet, keys: np.ndarray, p0: float) -> SplitPair:
    """The splits of ``sample`` that :func:`ulrt._kernels.split_means` draws
    for the ``(B,)`` ``keys``, with parts of ``round(n * p0)`` and the rest."""
    k = part_size(sample.n, p0)
    mean0, mean1 = split_means(sample.values[None], keys[None], k)
    return SplitPair(mean0[0], mean1[0], k, sample.n - k, float(p0))


def split(sample: SampleSet, p0: float, rng: RngStream) -> SplitPair:
    """One uniformly random partition with ``|D0| = round(n * p0)``: the
    ``B = 1`` record, drawn by ``rng``'s own key.

    Repeated calls with the same stream return the same partition.
    """
    return _split_record(sample, np.array([rng.key], dtype=np.uint64), p0)


def subsample_splits(sample: SampleSet, B: int, p0: float, rng: RngStream) -> SplitPair:
    """One record of ``B`` independent splits, split ``b`` drawn from
    ``rng.substream(b)``."""
    if B < 1:
        raise DomainError(f"subsampling needs at least one split, B >= 1, got B={B}")
    return _split_record(sample, rng.substream_keys(B), p0)


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


def _fmt(value) -> str:
    """One CSV field; a numpy scalar is written as the Python value it holds."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    """The package's one CSV writer: every field through :func:`_fmt`, ``\\n``
    line ends, and a field holding a comma, quote or newline quoted.  The
    rows go to a temporary file in the target directory, which replaces
    ``path`` only once it is complete, so a failed write leaves no
    truncated file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(sample: SampleSet, path) -> None:
    """Write one observation per row with header ``y1..yd``."""
    _write_csv(path, [f"y{j + 1}" for j in range(sample.d)], sample.values)


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
