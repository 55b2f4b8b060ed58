"""Confidence sets for the Gaussian mean and their size theory.

Four set constructions: the classical likelihood-ratio sphere, the split
likelihood-ratio sphere, the cross-fit set (pointwise membership), and the
subsampling set (pointwise membership over many splits) together with its
spherical large-B limit.  All test statistics live in the log domain end to
end; membership and rejection compare log statistics against ``ln(1/alpha)``,
which keeps every operation finite even when the raw likelihood ratio
overflows by thousands of orders of magnitude.

The closed-form size theory lives here too: the optimal split proportion, the
expected squared radius at any split proportion, the expected split-to-
classical squared-radius ratio with its bounds, and the probability bounds
for that ratio staying under 4.  Bound expressions are also exposed in terms
of ``ln(1/alpha)`` directly, since they remain meaningful for alpha far below
the smallest positive double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from ._kernels import _split_log_values, log_mean_exp, sq_norm
from .data import SampleSet, SplitPair
from .errors import DomainError

_LN2 = math.log(2.0)
_LOG_5_HALVES = math.log(2.5)

#: squared-radius ratio of the limiting subsampling sphere to the classical
#: sphere as the dimension grows, (5/3) * ln(5/2).
LIMITING_VS_CLASSICAL_HIGH_DIM = (5.0 / 3.0) * _LOG_5_HALVES


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


def log_threshold(alpha: float) -> float:
    """Rejection threshold ln(1/alpha) used by every universal statistic."""
    return -math.log(_check_alpha(alpha))


@dataclass(frozen=True, eq=False)
class SphericalRegion:
    """A sphere ``{theta : ||theta - center||^2 <= sq_radius}``.

    The classical set is closed (``<=``); the split and limiting subsampling
    sets are open (``<``), matching the defining inequalities.  The
    distinction only matters on a measure-zero shell.
    """

    center: np.ndarray
    sq_radius: float
    alpha: float
    kind: str

    _CLOSED = frozenset({"classical"})
    KINDS = ("classical", "split", "limiting_subsampling")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown region kind {self.kind!r}")
        if not (self.sq_radius >= 0.0):
            raise DomainError(f"sq_radius must be >= 0, got {self.sq_radius}")

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def contains(self, theta):
        """Membership of one ``(d,)`` point as a ``bool``, or of each row of
        a ``(G, d)`` batch as a ``(G,)`` boolean array."""
        theta = np.asarray(theta, dtype=np.float64)
        dist = sq_norm(theta, self.center)
        inside = dist <= self.sq_radius if self.kind in self._CLOSED else dist < self.sq_radius
        return inside if theta.ndim > 1 else bool(inside)


@dataclass(frozen=True)
class LogStatistic:
    """A log-domain test statistic with its sample-size context.

    Rejection (equivalently exclusion of ``theta`` from the confidence set)
    means ``log_value >= ln(1/alpha)``.
    """

    log_value: float
    kind: str
    n: int
    alpha: float | None = None

    KINDS = ("split", "crossfit", "subsampling")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown statistic kind {self.kind!r}")

    def rejects(self, alpha: float | None = None) -> bool:
        level = alpha if alpha is not None else self.alpha
        if level is None:
            raise DomainError("no alpha supplied for rejection decision")
        return self.log_value >= log_threshold(level)


def _as_theta(theta, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape != (d,):
        raise DomainError(f"theta must have dimension {d}, got {theta.shape}")
    return theta


def _check_pair(pair: SplitPair, n: int, single: bool = True) -> None:
    """Refuse a record of splits of another sample size, or, where one split
    is meant (``single``), a record of ``B != 1`` splits."""
    if pair.m0 + pair.m1 != n:
        raise DomainError(f"pair covers {pair.m0 + pair.m1} observations, expected n={n}")
    if single and len(pair.mean0) != 1:
        raise DomainError(f"expected one split, got a record of B={len(pair.mean0)}")


# ---------------------------------------------------------------------------
# regions and statistics
# ---------------------------------------------------------------------------


def classical_region(sample: SampleSet, alpha: float) -> SphericalRegion:
    """Classical likelihood-ratio sphere: center at the sample mean,
    squared radius ``c_{alpha,d} / n``."""
    alpha = _check_alpha(alpha)
    quantile = specfun.chi2_upper_quantile(alpha, sample.d)
    return SphericalRegion(sample.mean, quantile / sample.n, alpha, "classical")


def split_log_values(thetas, mean0: np.ndarray, mean1: np.ndarray, m0) -> np.ndarray:
    """Log split statistics ``(m0/2) (||mean0 - theta||^2 - ||mean0 - mean1||^2)``,
    the one expression behind every split, cross-fit and subsampling value.

    ``thetas`` is ``(..., d)`` and ``mean0``/``mean1`` are ``(..., B, d)``
    split means, with leading axes broadcasting; returns ``(..., B)``.
    ``m0`` is the realized likelihood-part size (``n * p0`` when integral).
    """
    return _split_log_values(np.asarray(thetas, dtype=np.float64), mean0, mean1, m0)


def log_values(kind: str, thetas, mean0: np.ndarray, mean1: np.ndarray, m0, m1=None) -> np.ndarray:
    """Log statistic of ``kind`` over ``(..., B, d)`` split means with part
    sizes ``m0`` and ``m1``; returns ``(...)``.

    ``split`` reads split 0; ``crossfit`` averages split 0's statistic and
    its role swap (parts exchanged), by log-sum-exp; ``subsampling``
    averages all ``B`` split statistics, by log-mean-exp.
    """
    forward = split_log_values(thetas, mean0, mean1, m0)
    if kind == "split":
        return forward[..., 0]
    if kind == "crossfit":
        swapped = split_log_values(thetas, mean1, mean0, m1)
        return np.logaddexp(forward[..., 0], swapped[..., 0]) - _LN2
    if kind == "subsampling":
        return log_mean_exp(forward, axis=-1)
    raise DomainError(f"unknown statistic kind {kind!r}")


def _log_statistic(kind: str, theta, pair: SplitPair, n: int, alpha) -> LogStatistic:
    """:func:`log_values` of one point and a record of splits, as a ``LogStatistic``."""
    _check_pair(pair, n, single=kind != "subsampling")
    theta = _as_theta(theta, pair.mean0.shape[1])
    value = log_values(kind, theta, pair.mean0, pair.mean1, pair.m0, pair.m1)
    return LogStatistic(float(value), kind, n, alpha)


def split_log_statistic(theta, pair: SplitPair, n: int, alpha: float | None = None) -> LogStatistic:
    """Log split likelihood-ratio statistic at ``theta``: :func:`split_log_values`
    of the one split."""
    return _log_statistic("split", theta, pair, n, alpha)


def split_sq_radius(mean0: np.ndarray, mean1: np.ndarray, m0: int, alpha: float) -> np.ndarray:
    """Squared radius ``(2/m0) ln(1/alpha) + ||mean0 - mean1||^2`` of the
    split sphere, over ``(..., d)`` part means with ``m0`` points in part 0."""
    return (2.0 / m0) * log_threshold(alpha) + sq_norm(mean0, mean1)


def split_region(pair: SplitPair, n: int, alpha: float) -> SphericalRegion:
    """Split likelihood-ratio sphere: center ``mean0``, squared radius
    :func:`split_sq_radius`."""
    _check_pair(pair, n)
    alpha = _check_alpha(alpha)
    sq_radius = split_sq_radius(pair.mean0[0], pair.mean1[0], pair.m0, alpha)
    return SphericalRegion(pair.mean0[0], float(sq_radius), alpha, "split")


def crossfit_log_statistic(theta, pair: SplitPair, n: int, alpha: float | None = None) -> LogStatistic:
    """Log cross-fit statistic: the average of the split statistic and its
    role-swapped counterpart, combined by log-sum-exp."""
    return _log_statistic("crossfit", theta, pair, n, alpha)


def crossfit_member(pair: SplitPair, thresh: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched membership evaluator of the cross-fit set at log threshold
    ``thresh``, for :func:`region_boundary_2d`."""
    return lambda thetas: log_values(
        "crossfit", thetas, pair.mean0, pair.mean1, pair.m0, pair.m1) < thresh


def subsampling_log_statistic(
    theta, splits: SplitPair, n: int, alpha: float | None = None
) -> LogStatistic:
    """Log of the average split statistic over the ``B`` splits of a record."""
    return _log_statistic("subsampling", theta, splits, n, alpha)


def subsampling_member(splits: SplitPair, thresh: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched membership evaluator of the subsampling set of a record of
    splits at log threshold ``thresh``, for :func:`region_boundary_2d`."""
    return lambda thetas: log_values(
        "subsampling", thetas, splits.mean0, splits.mean1, splits.m0) < thresh


def limiting_sq_radius(alpha: float, d: int, n: int) -> float:
    """Squared radius of the large-B subsampling sphere,
    ``(10 / 3n) ln((5/2)^{d/2} / alpha)``."""
    return (10.0 / (3.0 * n)) * (0.5 * d * _LOG_5_HALVES + log_threshold(alpha))


def limiting_subsampling_region(sample: SampleSet, alpha: float) -> SphericalRegion:
    """Large-B limit of the subsampling set: center at the sample mean,
    squared radius :func:`limiting_sq_radius`."""
    alpha = _check_alpha(alpha)
    sq_radius = limiting_sq_radius(alpha, sample.d, sample.n)
    return SphericalRegion(sample.mean, sq_radius, alpha, "limiting_subsampling")


# ---------------------------------------------------------------------------
# split-proportion and radius theory
# ---------------------------------------------------------------------------


def optimal_split_proportion(alpha: float, d: int) -> float:
    """Split proportion minimizing the expected squared split radius.

    Closed form ``1 - (sqrt(4 d^2 + 8 d L) - 2 d) / (4 L)`` with
    ``L = ln(1/alpha)``, evaluated in the rationalized form
    ``1 - 2 d / (sqrt(4 d^2 + 8 d L) + 2 d)`` which is stable as L -> 0.
    Always lies in (1/2, 1).
    """
    L = log_threshold(alpha)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    return 1.0 - 2.0 * d / (math.sqrt(4.0 * d * d + 8.0 * d * L) + 2.0 * d)


def expected_sq_radius_split(alpha: float, d: int, n: int, p0: float) -> float:
    """Expected squared radius of the split sphere at proportion ``p0``:
    ``(2/(n p0)) L + (1/(n p0) + 1/(n (1 - p0))) d``."""
    L = log_threshold(alpha)
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"p0 must lie strictly in (0, 1), got {p0}")
    if n < 2 or d < 1:
        raise DomainError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    return (2.0 / (n * p0)) * L + (1.0 / (n * p0) + 1.0 / (n * (1.0 - p0))) * d


def ratio_expected_split_vs_classical(alpha: float, d: int) -> float:
    """Expected split squared radius over the classical squared radius:
    ``(4 L + 4 d) / c_{alpha,d}``."""
    L = log_threshold(alpha)
    quantile = specfun.chi2_upper_quantile(alpha, d)
    return (4.0 * L + 4.0 * d) / quantile


class RatioBounds(NamedTuple):
    lower: float
    upper: float
    domain_ok: bool


def ratio_bounds_log(log_inv_alpha: float, d: int) -> RatioBounds:
    """Bounds for the expected split-to-classical squared-radius ratio,
    parameterized by ``L = ln(1/alpha)`` so extreme levels stay reachable.

    The lower bound holds for every ``d >= 1`` and level; the upper bound
    requires ``d >= 2`` with ``alpha <= 0.17``, or ``d = 1`` with
    ``alpha <= exp(-5 (1 + sqrt 5) / 4)``, and is NaN outside that domain.
    """
    L = float(log_inv_alpha)
    if not math.isfinite(L) or L <= 0.0:
        raise DomainError(f"ln(1/alpha) must be positive and finite, got {L}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    numerator = 4.0 * L + 4.0 * d
    lower = numerator / (2.0 * L + d + 2.0 * math.sqrt(d * L))
    if d >= 2:
        domain_ok = L >= -math.log(0.17)
        upper = numerator / (2.0 * L + d - 2.5) if domain_ok else math.nan
    else:
        domain_ok = L >= 5.0 * (1.0 + math.sqrt(5.0)) / 4.0
        upper = (
            numerator / (2.0 * L + 9.0 - 4.0 * math.sqrt(5.0 + 2.0 * L))
            if domain_ok
            else math.nan
        )
    return RatioBounds(lower, upper, domain_ok)


def ratio_bounds(alpha: float, d: int) -> RatioBounds:
    """:func:`ratio_bounds_log` at ``L = ln(1/alpha)``."""
    return ratio_bounds_log(log_threshold(alpha), d)


class ProbRatioBounds(NamedTuple):
    lower: float
    upper: float
    condition_ok: bool


def prob_ratio_leq4_bounds(alpha: float, d: int) -> ProbRatioBounds:
    """Bounds on P(split sq radius / classical sq radius <= 4).

    ``lower = 1 - alpha - L f_d(c - L)`` and ``upper = 1 - alpha - L f_d(c)``
    with ``c = c_{alpha,d}`` and ``L = ln(1/alpha)``; they are meaningful when
    ``c - L > d - 2`` (the density is decreasing across the interval), which
    ``condition_ok`` reports.
    """
    alpha = _check_alpha(alpha)
    L = log_threshold(alpha)
    quantile = specfun.chi2_upper_quantile(alpha, d)
    condition_ok = quantile - L > d - 2
    inner = max(quantile - L, 0.0)
    lower = 1.0 - alpha - L * specfun.chi2_pdf(inner, d)
    upper = 1.0 - alpha - L * specfun.chi2_pdf(quantile, d)
    return ProbRatioBounds(lower, upper, bool(condition_ok))


def limiting_vs_expected_split_ratio(alpha: float, d: int) -> float:
    """Squared-radius ratio of the limiting subsampling sphere to the
    expected split sphere: ``(5/6) ((d/2) ln(5/2) + L) / (d + L)``."""
    L = log_threshold(alpha)
    return (5.0 / 6.0) * (0.5 * d * _LOG_5_HALVES + L) / (d + L)


# ---------------------------------------------------------------------------
# 2-d boundary extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Boundary2D:
    """Closed polyline of membership-boundary points found by radial bisection.

    ``angles``/``points`` keep only the rays where a boundary was bracketed;
    ``failed_angles`` lists rays with no membership sign change within the
    search radius (reported, not fatal).
    """

    center: np.ndarray
    angles: np.ndarray
    points: np.ndarray
    failed_angles: np.ndarray
    alpha: float

    def polygon_area(self) -> float:
        """Shoelace area of the polygon through the boundary points."""
        x = self.points[:, 0]
        y = self.points[:, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def radii(self) -> np.ndarray:
        return np.sqrt(sq_norm(self.points, self.center))


def region_boundary_2d(
    evaluator: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    center_hint,
    rays: int,
    tol: float,
    search_radius: float,
) -> Boundary2D:
    """Trace the boundary of a 2-d membership region along equally spaced rays.

    ``evaluator`` maps a ``(G, 2)`` array of points to ``(G,)`` booleans,
    true for members.  All rays are bisected together: one call probes every
    ray's outer point, then each step evaluates, in one call, the midpoints
    of the rays whose own bracket ``hi - lo`` still exceeds ``tol``.  A ray
    sees the same midpoints as if it were bisected alone.

    Assumes the region is star-shaped about ``center_hint`` (membership is
    monotone along each ray), which holds for spheres and is checked
    empirically for the cross-fit and subsampling sets.  ``center_hint`` must
    itself be a member.
    """
    alpha = _check_alpha(alpha)
    center = np.asarray(center_hint, dtype=np.float64).reshape(-1)
    if center.shape != (2,):
        raise DomainError("boundary extraction requires d = 2")
    if rays < 3:
        raise DomainError(f"need at least 3 rays, got {rays}")
    if not (tol > 0.0 and search_radius > tol):
        raise DomainError("need search_radius > tol > 0")
    if not evaluator(center[None])[0]:
        raise DomainError("center_hint is not a member of the region")

    angles = 2.0 * math.pi * np.arange(rays) / rays
    # libm's cos and sin, which np.cos and np.sin can differ from in the last bit
    dirs = np.array([[math.cos(phi), math.sin(phi)] for phi in angles])
    failed = evaluator(center + search_radius * dirs)
    dirs = dirs[~failed]
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), search_radius)
    active = np.arange(len(dirs))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        inside = evaluator(center + mid[:, None] * dirs[active])
        lo[active[inside]] = mid[inside]
        hi[active[~inside]] = mid[~inside]
        active = active[hi[active] - lo[active] > tol]
    radius = 0.5 * (lo + hi)
    return Boundary2D(
        center=center,
        angles=angles[~failed],
        points=center + radius[:, None] * dirs,
        failed_angles=angles[failed],
        alpha=alpha,
    )


def boundaries_2d(
    sample: SampleSet, pair: SplitPair, alpha: float, rays: int, tol: float, splits=None
) -> tuple[Boundary2D, Boundary2D | None]:
    """The cross-fit boundary of ``pair`` and the subsampling boundary of the
    record ``splits`` (``None`` without one), each traced from the sample
    mean out to ten radii of the split sphere of ``pair``."""
    thresh = log_threshold(alpha)
    search = 10.0 * math.sqrt(split_region(pair, sample.n, alpha).sq_radius)
    members = [crossfit_member(pair, thresh)]
    if splits is not None:
        _check_pair(splits, sample.n, single=False)
        members.append(subsampling_member(splits, thresh))
    traced = [region_boundary_2d(m, alpha, sample.mean, rays, tol, search) for m in members]
    return traced[0], traced[1] if splits is not None else None
