"""Exact, approximate, and Monte Carlo power for testing a zero mean.

The null is rejected when the confidence set excludes the origin.  For the
classical and limiting-subsampling spheres the rejection event depends on the
data only through ``n ||mean||^2``, which is noncentral chi-squared, so power
is available exactly (noncentral CDF) or via the large-noncentrality normal
approximation.  The split, cross-fit, and finite-B subsampling tests are
estimated by Monte Carlo (the split test's power is also a 2-d integral).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import specfun
from .data import _check_n_d, part_size
from .errors import DomainError
from .regions import _LOG_5_HALVES, log_threshold, log_values

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


def _validate(theta_sq_norm: float, n: int, d: int, method: str) -> None:
    if theta_sq_norm < 0.0 or not math.isfinite(theta_sq_norm):
        raise DomainError(f"theta_sq_norm must be >= 0, got {theta_sq_norm}")
    _check_n_d(n, d)
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
    _validate(theta_sq_norm, n, d, method)
    threshold = specfun.chi2_upper_quantile(alpha, d)
    return _threshold_power(threshold, theta_sq_norm, n, d, method)


def power_limiting_subsampling(
    theta_sq_norm: float, n: int, d: int, alpha: float, method: str = "exact"
) -> PowerEstimate:
    """Power of the limiting subsampling test: threshold
    ``(10/3) ln((5/2)^{d/2} / alpha)`` on ``n ||mean||^2``."""
    _validate(theta_sq_norm, n, d, method)
    threshold = (10.0 / 3.0) * (0.5 * d * _LOG_5_HALVES + log_threshold(alpha))
    return _threshold_power(threshold, theta_sq_norm, n, d, method)


def mc_power(
    test_kind: str,
    theta,
    n: int,
    alpha: float,
    B: int = 100,
    reps: int = 5000,
    rng=None,
    workers: int | None = None,
    dump: Callable[[str, int, np.ndarray], None] | None = None,
) -> PowerEstimate:
    """Monte Carlo power of a universal test at true mean ``theta``.

    Each replication simulates fresh data from N(theta, I_d), evaluates the
    test statistic at the origin, and rejects when it reaches ``1/alpha``.
    The split and cross-fit tests (and subsampling at ``B = 1``) draw only
    the two part means, ``2d`` normals from substream 0 of the replication;
    subsampling at ``B > 1`` draws the full ``n``-by-``d`` dataset from
    substream 0, and its splits descend from substream 1.
    Replications run through :func:`ulrt.engine._replicate`: replication
    ``r`` uses ``rng.substream(r)``, and a chunk draws from its
    replications' uint64 keys in one batch, so the result is a pure function
    of ``rng`` regardless of chunking or thread count.  ``dump(name, lo,
    values)``, when given, receives each chunk's ``reject`` values.
    """
    if test_kind not in MC_TEST_KINDS:
        raise DomainError(f"test_kind must be one of {MC_TEST_KINDS}, got {test_kind!r}")
    for name, count in (("reps", reps), ("B", B)):
        if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {count!r}")
    if rng is None:
        raise DomainError("an RngStream must be supplied")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    log_thresh = log_threshold(alpha)
    d = theta.shape[0]
    b_eff = B if test_kind == "subsampling" else 1
    k = part_size(n, 0.5)
    origin = np.zeros(d)

    from .engine import _replicate

    def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict[str, np.ndarray]:
        rejected = log_values(test_kind, origin, mean0, mean1, k, n - k) >= log_thresh
        return {"reject": rejected.astype(np.float64)}

    acc = _replicate(rng, reps, n, k, theta, b_eff, reduce, workers, dump)["reject"]
    return PowerEstimate(acc.mean, acc.se_proportion(), "monte_carlo")
