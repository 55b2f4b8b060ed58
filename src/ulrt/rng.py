"""Deterministic counter-based random number streams.

A stream is an immutable value identified by ``(master_seed, stream_id)``.
Drawing never mutates the stream: draw ``i`` of a stream is a fixed 64-bit
mixing function of the stream key and the counter ``i``, so the same stream
always reproduces the same sequence, independently of scheduling, thread
count, or how many values earlier callers consumed.  Independent substreams
are derived by hashing a child index into a new stream id; nested derivation
gives a tree of streams keyed by their path.

The mixing function is the splitmix64 finalizer over a Weyl sequence; all
integer arithmetic is exact 64-bit wrapping arithmetic, identical on every
platform.  Normals come from one batched polar draw, :func:`batch_normals`,
over ``(C,)`` uint64 key arrays.  Its trial scan (draws, the map to [-1, 1)
and the accept/reject test) is a compiled loop of :mod:`ulrt._kernels`, with
the numpy loop :func:`_polar` as its fallback; both give the same bytes.  The
``sqrt(-2 log(s) / s)`` factors stay in numpy, so the bytes depend on the
``np.log`` loop numpy dispatches to on the running CPU: its AVX-512 loop
rounds some logs differently from glibc's libm.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _U64_GOLDEN, _finalize_array
from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SUBSALT = 0xD1B54A32D192ED03

_U64_SUBSALT = np.uint64(_SUBSALT)


def _finalize(z: int) -> int:
    """splitmix64 finalizer on a Python int (exact 64-bit wrapping)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _child_key(key: int, index: int) -> int:
    """Derive the key of child ``index`` of a stream with key ``key``."""
    salted = _finalize((index * _GOLDEN + _SUBSALT) & _MASK64)
    return _finalize((key + salted) & _MASK64)


def _child_keys(key, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_child_key`; ``key``, an int or a uint64 array,
    broadcasts against the array ``indices``."""
    idx = np.asarray(indices, dtype=np.uint64)
    salted = _finalize_array(idx * _U64_GOLDEN + _U64_SUBSALT)
    return _finalize_array(salted + np.asarray(key, dtype=np.uint64))


#: Trials per block of rows in :func:`batch_normals`.  The numpy loop holds
#: about ten ``(rows, trials)`` temporaries of its block per worker thread:
#: 0.3 MB at 2**12, where 2**14 added 5% to the peak RSS of the B = 1
#: benchmark workload.  The compiled loop takes blocks of as many rows as
#: hold 2**12 accepted trials.
_TRIAL_BLOCK = 1 << 12


def batch_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """``(C, count)`` standard normals by the polar (rejection) method, row
    ``c`` from the stream with key ``keys[c]``.  Trial ``i`` of a stream
    consumes its raw draws ``2i`` and ``2i + 1``; accepted trials yield two
    normals each, in trial order, so a row is a pure function of its key.

    The compiled loop ``ulrt_polar`` scans the trials and leaves each row's
    first ``ceil(count / 2)`` accepted ``(u, v)`` and ``s``; numpy then
    scales them by ``sqrt(-2 log(s) / s)``.  That ``np.log`` ties the bytes
    to numpy's CPU dispatch, as in the numpy fallback :func:`_polar`.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise DomainError(f"count must be a nonnegative integer, got {count!r}")
    count = int(count)
    keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1)
    pairs = (count + 1) // 2
    lib = _kernels._compiled()
    if lib is None:
        # acceptance rate is pi/4; oversize by ~5 sigma so that redraws are rare
        trials = int(pairs * 1.2733) + int(4.0 * pairs**0.5) + 16
        return _polar(keys, count, trials)
    out = np.empty((keys.size, count))
    if pairs == 0:
        return out
    step = max(1, _TRIAL_BLOCK // pairs)
    s = np.empty((min(step, keys.size), pairs))
    factor = np.empty_like(s)
    for lo in range(0, keys.size, step):
        rows = out[lo : lo + step]
        m = rows.shape[0]
        lib.ulrt_polar(keys[lo:].ctypes.data, m, count, rows.ctypes.data, s.ctypes.data)
        f = np.log(s[:m], out=factor[:m])
        f *= -2.0
        f /= s[:m]
        np.sqrt(f, out=f)
        rows[:, 0::2] *= f
        rows[:, 1::2] *= f[:, : count // 2]
    return out


def _signed_unit(z: np.ndarray) -> np.ndarray:
    """Raw draws at the Weyl points ``z``, mapped to [-1, 1)."""
    u = _finalize_array(z).astype(np.float64)
    u *= 2.0**-63
    u -= 1.0
    return u


def _polar(keys: np.ndarray, count: int, trials: int) -> np.ndarray:
    """:func:`batch_normals` with ``trials`` trials laid out per row; a row
    with fewer than ``ceil(count / 2)`` accepted trials is redrawn with
    twice as many."""
    out = np.empty((keys.size, count))
    pairs = (count + 1) // 2
    # Weyl points of the raw draws 2i; draw 2i + 1 is one golden step on
    ctr = np.arange(1, 2 * trials, 2, dtype=np.uint64) * _U64_GOLDEN
    step = max(1, _TRIAL_BLOCK // trials)
    for lo in range(0, keys.size, step):
        block = keys[lo : lo + step, None]
        u = _signed_unit(ctr + block)
        v = _signed_unit(ctr + (block + _U64_GOLDEN))
        s = u * u
        s += v * v
        keep = s < 1.0
        keep &= s > 0.0
        counts = np.count_nonzero(keep, axis=1)
        short = counts < pairs
        keep[short] = False
        # flat positions of each full row's first `pairs` accepted trials
        full = counts[~short]
        first = np.flatnonzero(keep)[(np.cumsum(full) - full)[:, None] + np.arange(pairs)]
        s = s.reshape(-1)[first]
        factor = np.log(s)
        factor *= -2.0
        factor /= s
        np.sqrt(factor, out=factor)
        u = u.reshape(-1)[first] * factor
        v = v.reshape(-1)[first] * factor
        rows = out[lo : lo + step]
        rows[~short, 0::2] = u
        rows[~short, 1::2] = v[:, : count // 2]
        if short.any():
            rows[short] = _polar(block[short, 0], count, 2 * trials)
    return out


@dataclass(frozen=True)
class RngStream:
    """An immutable random stream identified by ``(master_seed, stream_id)``.

    ``substream(i)`` derives statistically independent child streams; the
    root of an experiment is conventionally ``RngStream(master_seed)``.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", self.master_seed & _MASK64)
        object.__setattr__(self, "stream_id", self.stream_id & _MASK64)

    @property
    def key(self) -> int:
        return _child_key(_finalize(self.master_seed), self.stream_id)

    def substream(self, index: int) -> "RngStream":
        if index < 0:
            raise DomainError("substream index must be nonnegative")
        return RngStream(self.master_seed, _child_key(self.stream_id, index))

    def substream_keys(self, start: int, stop=None, child=None, grandchildren=None) -> np.ndarray:
        """Keys of children ``r`` in ``range(start, stop)`` (in
        ``range(start)`` without ``stop``), for vectorized batch kernels.

        Entry ``r`` equals ``self.substream(r).key`` exactly, or
        ``self.substream(r).substream(child).key`` with ``child``.  With
        ``grandchildren=B`` the keys are ``(C, B)``, and entry ``[r, b]``
        equals the key of ``substream(b)`` of that stream.
        """
        if stop is None:
            start, stop = 0, start
        sids = _child_keys(self.stream_id, np.arange(start, stop, dtype=np.uint64))
        if child is not None:
            sids = _child_keys(sids, np.full(1, child, dtype=np.uint64))
        if grandchildren is not None:
            sids = _child_keys(sids[:, None], np.arange(grandchildren, dtype=np.uint64))
        return _child_keys(_finalize(self.master_seed), sids)

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws: row 0 of :func:`batch_normals`
        for this stream's key."""
        return batch_normals(np.array([self.key], dtype=np.uint64), count)[0]
