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
and the accept/reject test) is the ``polar`` method of ``_kernels._lib()``,
compiled or its numpy twin, with the same bytes.  The
``sqrt(-2 log(s) / s)`` factors stay in numpy, so the bytes depend on the
``np.log`` loop numpy dispatches to on the running CPU: its AVX-512 loop
rounds some logs differently from glibc's libm.
"""

from __future__ import annotations

import operator
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


def _check_u64(value, what: str, top: int = _MASK64) -> int:
    """``value`` as a Python int, as the key arithmetic needs (a numpy integer
    would overflow); anything but an integer in [0, top] is refused."""
    index = operator.index(value) if hasattr(value, "__index__") else -1
    if not 0 <= index <= top:
        raise DomainError(f"{what} must be an integer in [0, 2**64), got {value!r}")
    return index


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


#: Accepted trials per block of rows in :func:`batch_normals`; the numpy twin
#: holds about ten temporaries of ``1.27 * pairs + 16`` trials per block row.
_TRIAL_BLOCK = 1 << 12


def batch_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """``(C, count)`` standard normals by the polar (rejection) method, row
    ``c`` from the stream with key ``keys[c]``.  Trial ``i`` of a stream
    consumes its raw draws ``2i`` and ``2i + 1``; accepted trials yield two
    normals each, in trial order, so a row is a pure function of its key.

    On row blocks of about 2**12 accepted trials, ``_kernels._lib().polar``
    leaves each row's first ``ceil(count / 2)`` accepted ``(u, v)`` and ``s``,
    and numpy scales them by ``sqrt(-2 log(s) / s)``.
    """
    try:
        index = operator.index(count)
    except TypeError:
        index = -1
    if index < 0:
        raise DomainError(f"count must be a nonnegative integer, got {count!r}")
    count = index
    keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1)
    pairs = (count + 1) // 2
    out = np.empty((keys.size, count))
    if pairs == 0:
        return out
    step = max(1, _TRIAL_BLOCK // pairs)
    s = np.empty((min(step, keys.size), pairs))
    factor = np.empty_like(s)
    for lo in range(0, keys.size, step):
        rows = out[lo : lo + step]
        m = rows.shape[0]
        _kernels._lib().polar(keys[lo : lo + m], count, rows, s[:m])
        f = np.log(s[:m], out=factor[:m])
        f *= -2.0
        f /= s[:m]
        np.sqrt(f, out=f)
        rows[:, 0::2] *= f
        rows[:, 1::2] *= f[:, : count // 2]
    return out


@dataclass(frozen=True)
class RngStream:
    """An immutable random stream identified by ``(master_seed, stream_id)``.

    ``substream(i)`` derives statistically independent child streams; the
    root of an experiment is conventionally ``RngStream(master_seed)``.
    Both, and every child index, must be integers in [0, 2**64): masking a
    value outside that range would make two seeds or children one stream.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", _check_u64(self.master_seed, "seed"))
        object.__setattr__(self, "stream_id", _check_u64(self.stream_id, "stream_id"))

    @property
    def key(self) -> int:
        return _child_key(_finalize(self.master_seed), self.stream_id)

    def substream(self, index: int) -> "RngStream":
        index = _check_u64(index, "substream index")
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
        start, stop = (_check_u64(i, "substream index", _MASK64 + 1) for i in (start, stop))
        sids = _child_keys(self.stream_id, np.arange(start, stop, dtype=np.uint64))
        if child is not None:
            sids = _child_keys(sids, np.full(1, _check_u64(child, "child index"), dtype=np.uint64))
        if grandchildren is not None:
            sids = _child_keys(sids[:, None], np.arange(grandchildren, dtype=np.uint64))
        return _child_keys(_finalize(self.master_seed), sids)

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws: row 0 of :func:`batch_normals`
        for this stream's key."""
        return batch_normals(np.array([self.key], dtype=np.uint64), count)[0]
