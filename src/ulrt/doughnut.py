"""Tests of the annulus null ``r_in <= ||theta|| <= r_out`` (default [0.5, 1]).

Three valid approaches are implemented:

* intersection: reject when the classical sphere misses the annulus, checked
  through the Euclidean projection of the sample mean onto the annulus;
* subsampled split: average over ``B`` random half-splits of the split
  likelihood ratio against the annulus maximum-likelihood point;
* subsampled hybrid: per split, use the split ratio when the estimation-half
  mean is inside the inner disk, the constant 1 inside the annulus, and the
  boundary-projection (RIPR) ratio outside the outer sphere.

The exact power of the intersection test is in closed form for the default
radii.  :func:`mc_reducer` decides the three tests for the Monte Carlo
engine, through the same batched statistics as the scalar API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import specfun
from ._kernels import log_mean_exp, sq_norm
from .data import SampleSet, SplitPair, _check_n_d, subsample_splits
from .errors import DegenerateDirectionError, DomainError
from .regions import _check_pair, log_threshold
from .rng import RngStream

DEFAULT_R_IN = 0.5
DEFAULT_R_OUT = 1.0


@dataclass(frozen=True)
class AnnulusNull:
    """The annulus ``{theta : r_in <= ||theta|| <= r_out}``."""

    r_in: float = DEFAULT_R_IN
    r_out: float = DEFAULT_R_OUT

    def __post_init__(self) -> None:
        if not (0.0 < self.r_in <= self.r_out) or not math.isfinite(self.r_out):
            raise DomainError(f"need 0 < r_in <= r_out, got [{self.r_in}, {self.r_out}]")


class HybridCase(Enum):
    """Which statistic a hybrid subsample used, decided by ``||mean1||``."""

    SPLIT_CASE = "split_case"
    UNIT_CASE = "unit_case"
    RIPR_CASE = "ripr_case"


def project_to_annulus(y, null: AnnulusNull = AnnulusNull()) -> np.ndarray:
    """Euclidean projection of ``y`` onto the annulus.

    The zero vector has no closest-direction and raises
    :class:`DegenerateDirectionError`.  The statistics need only the
    distance to the projection, which is radial, so they are defined there
    too.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    norm = math.sqrt(float(sq_norm(y)))
    if norm < null.r_in:
        if norm == 0.0:
            raise DegenerateDirectionError(
                "cannot project the zero vector onto an annulus with r_in > 0"
            )
        return y * (null.r_in / norm)
    if norm > null.r_out:
        return y * (null.r_out / norm)
    return y.copy()


def intersection_test(sample: SampleSet, null: AnnulusNull, alpha: float) -> bool:
    """Reject when the classical sphere does not meet the annulus."""
    quantile = specfun.chi2_upper_quantile(alpha, sample.d)
    return bool(_intersection_rejects(sample.mean[None], sample.n, null, quantile)[0])


def _intersection_rejects(
    means: np.ndarray, n: int, null: AnnulusNull, quantile: float
) -> np.ndarray:
    """Intersection-test rejections of a ``(C, d)`` stack of sample means."""
    norms = np.sqrt(sq_norm(means))
    gap = np.maximum(np.maximum(null.r_in - norms, norms - null.r_out), 0.0)
    return gap * gap > quantile / n


def intersection_power_exact(theta_norm: float, n: int, d: int, alpha: float) -> float:
    """Exact rejection probability of the intersection test.

    ``1 - F(n + 2 sqrt(n c) + c) + 1{n > 4c} F(n/4 - sqrt(n c) + c)`` with
    ``c = c_{alpha,d}`` and ``F`` the noncentral chi-squared CDF at
    noncentrality ``n theta_norm^2``.  Derived for the default annulus
    [0.5, 1]; at a null ``theta_norm`` the value is the type I error.
    """
    if theta_norm < 0.0:
        raise DomainError(f"theta_norm must be >= 0, got {theta_norm}")
    _check_n_d(n, d)
    c = specfun.chi2_upper_quantile(alpha, d)
    lam = n * theta_norm * theta_norm
    value = 1.0 - specfun.noncentral_chi2_cdf(n + 2.0 * math.sqrt(n * c) + c, d, lam)
    if n > 4.0 * c:
        value += specfun.noncentral_chi2_cdf(n / 4.0 - math.sqrt(n * c) + c, d, lam)
    return min(max(value, 0.0), 1.0)


def _check_half_split(pair: SplitPair, n: int) -> None:
    _check_pair(pair, n)
    if pair.m0 != pair.m1:
        raise DomainError("annulus tests are defined for half splits (p0 = 0.5, even n)")


def doughnut_split_log_statistic(pair: SplitPair, n: int, null: AnnulusNull) -> float:
    """Log split statistic against the annulus null MLE:
    ``(n/4) (||mean0 - proj(mean0)||^2 - ||mean0 - mean1||^2)``."""
    _check_half_split(pair, n)
    return float(_split_case_log_values(pair.mean0[0], pair.mean1[0], n, null))


def doughnut_ripr_log_statistic(pair: SplitPair, n: int, null: AnnulusNull) -> float:
    """Log boundary-projection (RIPR) statistic, defined for ``||mean1|| > r_out``:
    ``(n/4) (||mean0 - r_out mean1 / ||mean1||||^2 - ||mean0 - mean1||^2)``."""
    _check_half_split(pair, n)
    norm1 = math.sqrt(float(sq_norm(pair.mean1[0])))
    if norm1 <= null.r_out:
        raise DomainError(
            f"RIPR statistic requires ||mean1|| > r_out = {null.r_out}, got {norm1}"
        )
    return float(_ripr_case_log_values(pair.mean0[0], pair.mean1[0], n, null))


def hybrid_log_statistic(
    pair: SplitPair, n: int, null: AnnulusNull
) -> tuple[float, HybridCase]:
    """Case-selected hybrid statistic and its case tag."""
    _check_half_split(pair, n)
    values, cases = _hybrid_log_values(pair.mean0, pair.mean1, n, null)
    return float(values[0]), list(HybridCase)[cases[0]]


def _split_case_log_values(
    mean0: np.ndarray, mean1: np.ndarray, n: int, null: AnnulusNull
) -> np.ndarray:
    """Vectorized split statistics; the projection distance is radial, so the
    zero-mean degenerate case needs no direction."""
    norm0 = np.sqrt(sq_norm(mean0))
    proj_gap = norm0 - np.clip(norm0, null.r_in, null.r_out)
    delta = sq_norm(mean0, mean1)
    return 0.25 * n * (proj_gap * proj_gap - delta)


def _ripr_case_log_values(
    mean0: np.ndarray, mean1: np.ndarray, n: int, null: AnnulusNull
) -> np.ndarray:
    """Vectorized RIPR statistics, for split means with ``||mean1|| > r_out``."""
    norm1 = np.sqrt(sq_norm(mean1))
    anchor = mean1 * (null.r_out / norm1)[..., None]
    return 0.25 * n * (sq_norm(mean0, anchor) - sq_norm(mean0, mean1))


def _hybrid_log_values(
    mean0: np.ndarray, mean1: np.ndarray, n: int, null: AnnulusNull
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized hybrid statistics and integer case codes (0 split, 1 unit,
    2 ripr) for stacks of split means."""
    norm1 = np.sqrt(sq_norm(mean1))
    values = np.zeros(norm1.shape)
    cases = np.ones(norm1.shape, dtype=np.int8)
    split_mask = norm1 < null.r_in
    ripr_mask = norm1 > null.r_out
    cases[split_mask] = 0
    cases[ripr_mask] = 2
    if np.any(split_mask):
        values[split_mask] = _split_case_log_values(
            mean0[split_mask], mean1[split_mask], n, null
        )
    if np.any(ripr_mask):
        values[ripr_mask] = _ripr_case_log_values(mean0[ripr_mask], mean1[ripr_mask], n, null)
    return values, cases


@dataclass(frozen=True, eq=False)
class DoughnutTestResult:
    """Outcome of a subsampled annulus test.

    ``case_fractions`` is (split, unit, ripr) over the ``B`` subsamples; the
    split-only test is in the split case throughout, so it reports (1, 0, 0).
    ``log_values`` and ``cases`` keep the per-subsample diagnostics.
    """

    reject: bool
    case_fractions: tuple[float, float, float]
    log_values: np.ndarray
    cases: np.ndarray


def _subsampled_log_values(
    mean0: np.ndarray, mean1: np.ndarray, n: int, null: AnnulusNull, hybrid: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-split log statistics and case codes of the subsampled hybrid test,
    or of the split test (every code 0), over ``(..., B, d)`` split means."""
    if hybrid:
        return _hybrid_log_values(mean0, mean1, n, null)
    values = _split_case_log_values(mean0, mean1, n, null)
    return values, np.zeros(values.shape, dtype=np.int8)


def subsampled_doughnut_test(
    sample: SampleSet,
    null: AnnulusNull,
    alpha: float,
    B: int,
    kind: str,
    rng: RngStream,
) -> DoughnutTestResult:
    """Subsampled split or hybrid test of the annulus null.

    Rejects when the log of the average per-split statistic reaches
    ``ln(1/alpha)``.  The ``B`` half-splits are
    :func:`ulrt.data.subsample_splits` of ``rng``.
    """
    if kind not in ("split", "hybrid"):
        raise DomainError(f"kind must be 'split' or 'hybrid', got {kind!r}")
    n = sample.n
    _check_even_n(n)
    splits = subsample_splits(sample, B, 0.5, rng)
    values, cases = _subsampled_log_values(splits.mean0, splits.mean1, n, null, kind == "hybrid")
    fractions = tuple(float(np.mean(cases == c)) for c in (0, 1, 2))
    reject = bool(log_mean_exp(values) >= log_threshold(alpha))
    return DoughnutTestResult(reject, fractions, values, cases)


def _check_even_n(n: int) -> None:
    """The subsampled tests split ``n`` points in halves and scale by n/4."""
    if n % 2:
        raise DomainError(f"subsampled annulus tests require even n, got n = {n}")


_ANNULUS_TESTS = ("intersection", "subsampled_split", "subsampled_hybrid")
_CASE_FRACTIONS = ("frac_split_case", "frac_unit_case", "frac_ripr_case")


def mc_reducer(
    method: str, n: int, k: int, d: int, alpha: float, null: AnnulusNull
) -> Callable[[np.ndarray, np.ndarray], dict]:
    """``reduce(mean0, mean1)`` deciding the Monte Carlo test ``method`` over
    the ``(C, B, d)`` part means (``k`` and ``n - k`` points) of ``C``
    replications: ``reject`` per replication, and for ``subsampled_hybrid``
    the share of its ``B`` splits in each case."""
    if method not in _ANNULUS_TESTS:
        raise DomainError(f"unknown annulus test {method!r}")
    if method == "intersection":
        quantile = specfun.chi2_upper_quantile(alpha, d)

        def intersect(mean0: np.ndarray, mean1: np.ndarray) -> dict:
            means = (k * mean0[:, 0] + (n - k) * mean1[:, 0]) / n
            return {"reject": _intersection_rejects(means, n, null, quantile).astype(np.float64)}

        return intersect
    _check_even_n(n)
    thresh = log_threshold(alpha)
    hybrid = method == "subsampled_hybrid"

    def reduce(mean0: np.ndarray, mean1: np.ndarray) -> dict:
        values, cases = _subsampled_log_values(mean0, mean1, n, null, hybrid)
        out = {"reject": (log_mean_exp(values, axis=1) >= thresh).astype(np.float64)}
        if hybrid:
            out.update({name: (cases == c).mean(axis=1) for c, name in enumerate(_CASE_FRACTIONS)})
        return out

    return reduce
