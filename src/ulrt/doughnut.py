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
radii.  The statistics read a split through four numbers, its
:class:`_SplitForms`, which a shift along ``e_1`` moves in O(1).
:func:`mc_reducer` decides the three tests for the Monte Carlo engine on
those forms, through the same functions as the scalar API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from ._kernels import log_mean_exp, sq_norm
from .data import SampleSet, SplitPair, _check_n_d, part_size, subsample_splits
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
    return bool(_sq_gap(sq_norm(sample.mean), null) > quantile / sample.n)


def _sq_gap(sq_norms: np.ndarray, null: AnnulusNull) -> np.ndarray:
    """Squared distances to the annulus from points of squared norms
    ``sq_norms``; the distance is radial, so the origin needs no direction."""
    norms = np.sqrt(sq_norms)
    gap = norms - np.clip(norms, null.r_in, null.r_out)
    return gap * gap


def intersection_power_exact(theta_norm: float, n: int, d: int, alpha: float) -> float:
    """Exact rejection probability of the intersection test.

    ``1 - F(n + 2 sqrt(n c) + c) + 1{n > 4c} F(n/4 - sqrt(n c) + c)`` with
    ``c = c_{alpha,d}`` and ``F`` the noncentral chi-squared CDF at
    noncentrality ``n theta_norm^2``.  Derived for the default annulus
    [0.5, 1]; at a null ``theta_norm`` the value is the type I error.
    """
    if not 0.0 <= theta_norm < math.inf:
        raise DomainError(f"theta_norm must be finite and >= 0, got {theta_norm}")
    _check_n_d(n, d)
    c = specfun.chi2_upper_quantile(alpha, d)
    lam = n * theta_norm * theta_norm
    value = 1.0 - specfun.noncentral_chi2_cdf(n + 2.0 * math.sqrt(n * c) + c, d, lam)
    if n > 4.0 * c:
        value += specfun.noncentral_chi2_cdf(n / 4.0 - math.sqrt(n * c) + c, d, lam)
    return min(max(value, 0.0), 1.0)


class _SplitForms(NamedTuple):
    """Splits ``(a, c) = (mean0, mean1)`` as the annulus statistics read
    them, one entry per split: ``aa = ||a||^2``, ``cc = ||c||^2``, ``dd =
    ||a - c||^2``, ``ac = a.c``, and the first coordinates ``a1`` and ``c1``
    that a shift along ``e_1`` needs."""

    aa: np.ndarray
    cc: np.ndarray
    dd: np.ndarray
    ac: np.ndarray
    a1: np.ndarray
    c1: np.ndarray

    def shifted(self, t: float) -> "_SplitForms":
        """The forms of ``(a + t e_1, c + t e_1)``.  The squared norms are
        clamped at 0: near ``a_1 = -t`` the shift of forms that were already
        shifted can round below it."""
        return _SplitForms(
            np.maximum(self.aa + t * (2.0 * self.a1 + t), 0.0),
            np.maximum(self.cc + t * (2.0 * self.c1 + t), 0.0),
            self.dd,
            self.ac + t * (self.a1 + self.c1) + t * t,
            self.a1 + t, self.c1 + t,
        )


def _split_forms(mean0: np.ndarray, mean1: np.ndarray) -> _SplitForms:
    """The forms of ``(..., d)`` split means, one per split."""
    return _SplitForms(sq_norm(mean0), sq_norm(mean1), sq_norm(mean0, mean1),
                       np.add.reduce(mean0 * mean1, axis=-1), mean0[..., 0], mean1[..., 0])


def _pair_forms(pair: SplitPair) -> _SplitForms:
    """The forms of ``pair``, one half split."""
    _check_pair(pair)
    if pair.m0 != pair.m1:
        raise DomainError("annulus tests are defined for half splits (p0 = 0.5, even n)")
    return _split_forms(pair.mean0, pair.mean1)


def doughnut_split_log_statistic(pair: SplitPair, null: AnnulusNull) -> float:
    """Log split statistic against the annulus null MLE:
    ``(n/4) (||mean0 - proj(mean0)||^2 - ||mean0 - mean1||^2)``, ``n = m0 + m1``."""
    return float(_split_case_log_values(_pair_forms(pair), pair.m0 + pair.m1, null)[0])


def doughnut_ripr_log_statistic(pair: SplitPair, null: AnnulusNull) -> float:
    """Log boundary-projection (RIPR) statistic, defined for ``||mean1|| > r_out``:
    ``(n/4) (||mean0 - r_out mean1 / ||mean1||||^2 - ||mean0 - mean1||^2)``."""
    forms = _pair_forms(pair)
    values, cases = _hybrid_log_values(forms, pair.m0 + pair.m1, null)
    if cases[0] != 2:
        raise DomainError(f"RIPR statistic requires ||mean1|| > r_out = {null.r_out}, "
                          f"got {math.sqrt(forms.cc[0])}")
    return float(values[0])


def hybrid_log_statistic(pair: SplitPair, null: AnnulusNull) -> tuple[float, HybridCase]:
    """Case-selected hybrid statistic and its case tag."""
    values, cases = _hybrid_log_values(_pair_forms(pair), pair.m0 + pair.m1, null)
    return float(values[0]), list(HybridCase)[cases[0]]


def _split_case_log_values(forms: _SplitForms, n: int, null: AnnulusNull) -> np.ndarray:
    """Split statistics of split forms."""
    return 0.25 * n * (_sq_gap(forms.aa, null) - forms.dd)


def _hybrid_log_values(
    forms: _SplitForms, n: int, null: AnnulusNull
) -> tuple[np.ndarray, np.ndarray]:
    """Hybrid statistics and integer case codes (0 split, 1 unit, 2 RIPR) of
    split forms.  The RIPR anchor is ``r c / ||c||``, ``r = r_out``, at squared
    distance ``||a||^2 - 2 r a.c / ||c|| + r^2`` from ``a``; flooring ``||c||``
    at ``r`` changes no RIPR value and keeps the other cases from dividing by 0."""
    norm1, r = np.sqrt(forms.cc), null.r_out
    cases = (norm1 >= null.r_in).astype(np.int8) + (norm1 > r)
    ripr = 0.25 * n * (forms.aa - 2.0 * r * forms.ac / np.maximum(norm1, r) + r * r - forms.dd)
    split_case = _split_case_log_values(forms, n, null)
    return np.select([cases == 0, cases == 2], [split_case, ripr]), cases


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
    forms = _split_forms(splits.mean0, splits.mean1)
    if kind == "hybrid":
        values, cases = _hybrid_log_values(forms, n, null)
    else:
        values = _split_case_log_values(forms, n, null)
        cases = np.zeros(values.shape, dtype=np.int8)
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
    method: str, n: int, d: int, alpha: float, null: AnnulusNull
) -> Callable[[_SplitForms], dict]:
    """``reduce(forms)`` deciding the Monte Carlo test ``method`` on the
    ``(C, B)`` forms (:func:`_split_forms`) of the ``(C, B, d)`` part means
    of ``C`` replications' half splits (``k = part_size(n, 0.5)``, ``m = n -
    k``): ``reject`` per replication, and for ``subsampled_hybrid`` the share
    of its ``B`` splits in each case.  The intersection test reads the first
    split's sample mean, of squared norm ``(k^2 aa + 2 k m ac + m^2 cc) / n^2``."""
    if method not in _ANNULUS_TESTS:
        raise DomainError(f"unknown annulus test {method!r}")
    if method == "intersection":
        k = part_size(n, 0.5)
        quantile, m = specfun.chi2_upper_quantile(alpha, d), n - k

        def intersect(forms: _SplitForms) -> dict:
            with np.errstate(over="ignore"):  # near the largest theta a spec takes: inf, which rejects
                sq = np.maximum(k * k * forms.aa + 2 * k * m * forms.ac + m * m * forms.cc, 0.0)
            return {"reject": (_sq_gap(sq[:, 0] / (n * n), null) > quantile / n).astype(np.float64)}

        return intersect
    _check_even_n(n)
    thresh = log_threshold(alpha)
    hybrid = method == "subsampled_hybrid"

    def reduce(forms: _SplitForms) -> dict:
        if hybrid:
            values, cases = _hybrid_log_values(forms, n, null)
        else:
            values = _split_case_log_values(forms, n, null)
        out = {"reject": (log_mean_exp(values, axis=1) >= thresh).astype(np.float64)}
        if hybrid:
            out.update({name: (cases == c).mean(axis=1) for c, name in enumerate(_CASE_FRACTIONS)})
        return out

    return reduce
