"""Exact, approximate, and Monte Carlo power for testing a zero mean.

The null is rejected when the confidence set excludes the origin.  For the
classical and limiting-subsampling spheres the rejection event depends on the
data only through ``n ||mean||^2``, which is noncentral chi-squared, so power
is available exactly (noncentral CDF) or via the large-noncentrality normal
approximation.  The split, cross-fit, and finite-B subsampling tests have no
tractable closed form and are estimated by Monte Carlo.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._kernels import log_mean_exp, sq_norm
from .data import part_size, replicate_split_means
from .errors import DomainError
from .regions import log_threshold

_LOG_5_HALVES = math.log(2.5)

MC_TEST_KINDS = ("split", "crossfit", "subsampling")
_METHODS = {"exact": "exact_noncentral", "approx": "normal_approx"}


@dataclass(frozen=True)
class PowerEstimate:
    """A rejection probability with its standard error and provenance."""

    value: float
    stderr: float
    method: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise DomainError(f"power must lie in [0, 1], got {self.value}")
        if self.stderr < 0.0:
            raise DomainError(f"stderr must be >= 0, got {self.stderr}")


def _validate(theta_sq_norm: float, n: int, d: int, alpha: float, method: str) -> None:
    if theta_sq_norm < 0.0 or not math.isfinite(theta_sq_norm):
        raise DomainError(f"theta_sq_norm must be >= 0, got {theta_sq_norm}")
    if n < 2 or d < 1:
        raise DomainError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if method not in _METHODS:
        raise DomainError(f"method must be 'exact' or 'approx', got {method!r}")


def _threshold_power(
    threshold: float, theta_sq_norm: float, n: int, d: int, method: str
) -> PowerEstimate:
    """P(n ||mean||^2 beyond ``threshold``) under mean norm ``theta_sq_norm``."""
    lam = n * theta_sq_norm
    if method == "exact":
        value = 1.0 - specfun.noncentral_chi2_cdf(threshold, d, lam)
    else:
        value = specfun.std_normal_cdf(
            (d + lam - threshold) / math.sqrt(2.0 * (d + 2.0 * lam))
        )
    return PowerEstimate(min(max(value, 0.0), 1.0), 0.0, _METHODS[method])


def power_classical(
    theta_sq_norm: float, n: int, d: int, alpha: float, method: str = "exact"
) -> PowerEstimate:
    """Power of the classical test: threshold ``c_{alpha,d}`` on ``n ||mean||^2``."""
    _validate(theta_sq_norm, n, d, alpha, method)
    threshold = specfun.chi2_upper_quantile(alpha, d)
    return _threshold_power(threshold, theta_sq_norm, n, d, method)


def power_limiting_subsampling(
    theta_sq_norm: float, n: int, d: int, alpha: float, method: str = "exact"
) -> PowerEstimate:
    """Power of the limiting subsampling test: threshold
    ``(10/3) ln((5/2)^{d/2} / alpha)`` on ``n ||mean||^2``."""
    _validate(theta_sq_norm, n, d, alpha, method)
    threshold = (10.0 / 3.0) * (0.5 * d * _LOG_5_HALVES + log_threshold(alpha))
    return _threshold_power(threshold, theta_sq_norm, n, d, method)


def subsampling_threshold(d: int, alpha: float) -> float:
    """The limiting subsampling cutoff on ``n ||mean||^2``."""
    return (10.0 / 3.0) * (0.5 * d * _LOG_5_HALVES + log_threshold(alpha))


def _mc_reject_chunk(
    kind: str,
    theta: np.ndarray,
    n: int,
    log_thresh: float,
    B: int,
    rep_streams,
) -> np.ndarray:
    """Rejection indicators for a chunk of replications.

    Replication stream convention: with ``B = 1`` substream 0 draws the two
    part means (``2d`` normals); with ``B > 1`` substream 0 draws the full
    ``n``-by-``d`` dataset and substream 1 is the parent of the per-split
    streams.
    """
    k = part_size(n, 0.5)
    mean0, mean1 = replicate_split_means(rep_streams, n, k, theta, B)
    delta = sq_norm(mean0 - mean1, axis=2)
    logT = 0.5 * k * (sq_norm(mean0, axis=2) - delta)
    if kind == "split":
        return logT[:, 0] >= log_thresh
    if kind == "crossfit":
        logT_swap = 0.5 * (n - k) * (sq_norm(mean1, axis=2) - delta)
        logS = np.logaddexp(logT[:, 0], logT_swap[:, 0]) - math.log(2.0)
        return logS >= log_thresh
    return log_mean_exp(logT, axis=1) >= log_thresh


def mc_power(
    test_kind: str,
    theta,
    n: int,
    alpha: float,
    B: int = 100,
    reps: int = 5000,
    rng=None,
    workers: int | None = None,
) -> PowerEstimate:
    """Monte Carlo power of a universal test at true mean ``theta``.

    Each replication simulates fresh data from N(theta, I_d), evaluates the
    test statistic at the origin, and rejects when it reaches ``1/alpha``.
    The split and cross-fit tests (and subsampling at ``B = 1``) draw only
    the two part means, ``2d`` normals from substream 0 of the replication;
    subsampling at ``B > 1`` draws the full ``n``-by-``d`` dataset.
    Replication ``r`` uses ``rng.substream(r)``, so the result is a pure
    function of ``rng`` regardless of chunking or thread count.
    """
    if test_kind not in MC_TEST_KINDS:
        raise DomainError(f"test_kind must be one of {MC_TEST_KINDS}, got {test_kind!r}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if B < 1:
        raise DomainError(f"B must be >= 1, got {B}")
    if rng is None:
        raise DomainError("an RngStream must be supplied")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    log_thresh = log_threshold(alpha)
    d = theta.shape[0]
    b_eff = B if test_kind == "subsampling" else 1

    from .engine import _chunk_reps, _map_chunks

    chunk = _chunk_reps(n, d, b_eff)

    def run_chunk(lo: int, hi: int) -> dict[str, np.ndarray]:
        streams = [rng.substream(r) for r in range(lo, hi)]
        rejected = _mc_reject_chunk(test_kind, theta, n, log_thresh, b_eff, streams)
        return {"reject": rejected.astype(np.float64)}

    acc = _map_chunks(reps, chunk, run_chunk, workers)
    p_hat = acc["reject"].mean
    return PowerEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / reps), "monte_carlo")


def write_power_csv(rows: list[dict], path) -> None:
    """Power-curve CSV: (test, d, n, alpha, theta_sq_norm, power, stderr, method)."""
    columns = ["test", "d", "n", "alpha", "theta_sq_norm", "power", "stderr", "method"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
