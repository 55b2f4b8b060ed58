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

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from ._kernels import _split_log_values, log_mean_exp, sq_norm
from .data import SampleSet, SplitPair, _check_n_d
from .errors import DomainError

_LN2 = math.log(2.0)
_LOG_5_HALVES = math.log(2.5)

#: squared-radius ratio of the limiting subsampling sphere to the classical
#: sphere as the dimension grows, (5/3) * ln(5/2).
LIMITING_VS_CLASSICAL_HIGH_DIM = (5.0 / 3.0) * _LOG_5_HALVES


def log_threshold(alpha: float) -> float:
    """Rejection threshold ln(1/alpha) used by every universal statistic."""
    return -math.log(specfun._check_alpha(alpha))


@dataclass(frozen=True, eq=False)
class SphericalRegion:
    """A sphere ``{theta : ||theta - center||^2 <= sq_radius}``.

    The classical set is closed (``<=``); the split and limiting subsampling
    sets are open (``<``), matching the defining inequalities.  The
    distinction only matters on a measure-zero shell.
    """

    center: np.ndarray
    sq_radius: float
    kind: str

    _CLOSED = frozenset({"classical"})
    KINDS = ("classical", "split", "limiting_subsampling")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown region kind {self.kind!r}")
        if not (self.sq_radius >= 0.0):
            raise DomainError(f"sq_radius must be >= 0, got {self.sq_radius}")

    def contains(self, theta):
        """Membership of one ``(d,)`` point as a ``bool``, or of each row of
        a ``(G, d)`` batch as a ``(G,)`` boolean array."""
        theta = np.asarray(theta, dtype=np.float64)
        dist = sq_norm(theta, self.center)
        inside = dist <= self.sq_radius if self.kind in self._CLOSED else dist < self.sq_radius
        return inside if theta.ndim > 1 else bool(inside)


def _as_theta(theta, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape != (d,):
        raise DomainError(f"theta must have dimension {d}, got {theta.shape}")
    return theta


def _check_pair(pair: SplitPair) -> None:
    """Refuse a record of ``B != 1`` splits where one split is meant."""
    if len(pair.mean0) != 1:
        raise DomainError(f"expected one split, got a record of B={len(pair.mean0)}")


# ---------------------------------------------------------------------------
# regions and statistics
# ---------------------------------------------------------------------------


def classical_region(sample: SampleSet, alpha: float) -> SphericalRegion:
    """Classical likelihood-ratio sphere: center at the sample mean,
    squared radius ``c_{alpha,d} / n``."""
    quantile = specfun.chi2_upper_quantile(alpha, sample.d)
    return SphericalRegion(sample.mean, quantile / sample.n, "classical")


def split_log_values(thetas, mean0: np.ndarray, mean1: np.ndarray, m0) -> np.ndarray:
    """Log split statistics ``(m0/2) (||mean0 - theta||^2 - ||mean0 - mean1||^2)``,
    the one expression behind every split, cross-fit and subsampling value.

    ``thetas`` is ``(..., d)`` and ``mean0``/``mean1`` are ``(..., B, d)``
    split means, with leading axes broadcasting; returns ``(..., B)``.
    ``m0`` is the realized likelihood-part size (``n * p0`` when integral).
    """
    return _split_log_values(np.asarray(thetas, dtype=np.float64), mean0, mean1, m0)


def log_values(kind: str, thetas, mean0: np.ndarray, mean1: np.ndarray, m0, m1) -> np.ndarray:
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


def _log_statistic(kind: str, theta, pair: SplitPair) -> float:
    """:func:`log_values` of one point and a record of splits, as a float;
    the test rejects, and ``theta`` leaves the set, where it is ``>=``
    :func:`log_threshold`."""
    if kind != "subsampling":
        _check_pair(pair)
    theta = _as_theta(theta, pair.mean0.shape[1])
    return float(log_values(kind, theta, pair.mean0, pair.mean1, pair.m0, pair.m1))


def split_log_statistic(theta, pair: SplitPair) -> float:
    """Log split likelihood-ratio statistic at ``theta``: :func:`split_log_values`
    of the one split."""
    return _log_statistic("split", theta, pair)


def split_sq_radius(mean0: np.ndarray, mean1: np.ndarray, m0: int, alpha: float) -> np.ndarray:
    """Squared radius ``(2/m0) ln(1/alpha) + ||mean0 - mean1||^2`` of the
    split sphere, over ``(..., d)`` part means with ``m0`` points in part 0."""
    return (2.0 / m0) * log_threshold(alpha) + sq_norm(mean0, mean1)


def split_region(pair: SplitPair, alpha: float) -> SphericalRegion:
    """Split likelihood-ratio sphere: center ``mean0``, squared radius
    :func:`split_sq_radius`."""
    _check_pair(pair)
    sq_radius = split_sq_radius(pair.mean0[0], pair.mean1[0], pair.m0, alpha)
    return SphericalRegion(pair.mean0[0], float(sq_radius), "split")


def crossfit_log_statistic(theta, pair: SplitPair) -> float:
    """Log cross-fit statistic: the average of the split statistic and its
    role-swapped counterpart, combined by log-sum-exp."""
    return _log_statistic("crossfit", theta, pair)


def crossfit_margin(pair: SplitPair, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched evaluator of the cross-fit set, for :func:`region_boundary_2d`:
    the margin ``ln(1/alpha) -`` the log cross-fit statistic, positive
    exactly on members."""
    _check_pair(pair)
    thresh = log_threshold(alpha)
    return lambda thetas: thresh - log_values(
        "crossfit", thetas, pair.mean0, pair.mean1, pair.m0, pair.m1)


def subsampling_log_statistic(theta, splits: SplitPair) -> float:
    """Log of the average split statistic over the ``B`` splits of a record."""
    return _log_statistic("subsampling", theta, splits)


def subsampling_margin(splits: SplitPair, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched evaluator of the subsampling set of a record of splits, for
    :func:`region_boundary_2d`: the margin ``ln B - ln sum_b exp(v_b - L)``
    over the split statistics ``v_b``, ``L = ln(1/alpha)``, positive on
    members.  Its sign is :func:`subsampling_log_statistic`'s decision up to
    a few ulps at the boundary.  The sum is taken relative to ``max(v_0,
    L)``: it overflows only where some ``v_b`` exceeds ``L`` by about 709,
    giving -inf (outside), and is 0 only where every ``v_b`` lies about 745
    below ``L``, giving +inf (inside)."""
    thresh = log_threshold(alpha)
    log_b = math.log(len(splits.mean0))

    def margin(thetas):
        values = split_log_values(thetas, splits.mean0, splits.mean1, splits.m0)
        shift = np.maximum(values[..., 0], thresh)
        values -= shift[..., None]
        with np.errstate(over="ignore", divide="ignore"):
            return (thresh - shift) + (log_b - np.log(np.exp(values, out=values).sum(axis=-1)))

    return margin


def limiting_sq_radius(alpha: float, d: int, n: int) -> float:
    """Squared radius of the large-B subsampling sphere,
    ``(10 / 3n) ln((5/2)^{d/2} / alpha)``."""
    _check_n_d(n, d)
    return (10.0 / (3.0 * n)) * (0.5 * d * _LOG_5_HALVES + log_threshold(alpha))


def limiting_subsampling_region(sample: SampleSet, alpha: float) -> SphericalRegion:
    """Large-B limit of the subsampling set: center at the sample mean,
    squared radius :func:`limiting_sq_radius`."""
    sq_radius = limiting_sq_radius(alpha, sample.d, sample.n)
    return SphericalRegion(sample.mean, sq_radius, "limiting_subsampling")


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
    specfun._check_dim(d)
    return 1.0 - 2.0 * d / (math.sqrt(4.0 * d * d + 8.0 * d * L) + 2.0 * d)


def expected_sq_radius_split(alpha: float, d: int, n: int, p0: float) -> float:
    """Expected squared radius of the split sphere at proportion ``p0``:
    ``(2/(n p0)) L + (1/(n p0) + 1/(n (1 - p0))) d``."""
    L = log_threshold(alpha)
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"p0 must lie strictly in (0, 1), got {p0}")
    _check_n_d(n, d)
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
    specfun._check_dim(d)
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
    alpha = specfun._check_alpha(alpha)
    L = log_threshold(alpha)
    quantile = specfun.chi2_upper_quantile(alpha, d)
    condition_ok = quantile - L > d - 2
    inner = max(quantile - L, 0.0)
    lower = 1.0 - alpha - L * specfun.chi2_pdf(inner, d)
    upper = 1.0 - alpha - L * specfun.chi2_pdf(quantile, d)
    return ProbRatioBounds(lower, upper, bool(condition_ok))


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

    def polygon_area(self) -> float:
        """Shoelace area of the polygon through the boundary points."""
        x = self.points[:, 0]
        y = self.points[:, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def radii(self) -> np.ndarray:
        return np.sqrt(sq_norm(self.points, self.center))


def _check_trace(d: int, rays: int, tol: float) -> None:
    """Refuse a boundary trace that no data lets start."""
    if d != 2:
        raise DomainError("boundary extraction requires d = 2")
    if rays < 3:
        raise DomainError(f"need at least 3 rays, got {rays}")
    if not tol > 0.0:
        raise DomainError(f"need tol > 0, got {tol}")


#: half-width, in units of ``tol``, of the band a margin trace certifies
#: around each ray's secant estimate of its boundary radius
_BAND = 1e-3
#: secant steps a ray may take to settle before it falls back to bisection
_SECANT_STEPS = 12


@functools.lru_cache(maxsize=8)
def _ray_dirs(rays: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles ``2 pi j / rays`` and their unit directions, read-only."""
    angles = 2.0 * math.pi * np.arange(rays) / rays
    # libm's cos and sin, which np.cos and np.sin can differ from in the last bit
    dirs = np.array([[math.cos(phi), math.sin(phi)] for phi in angles])
    angles.flags.writeable = dirs.flags.writeable = False
    return angles, dirs


def _secant_band(margin, center, dirs, f_center, f_outer, tol, search_radius):
    """Each ray's band ``(r_in, r_out)``: a radius evaluated as a member and
    one evaluated as a non-member, ``(0, search_radius)`` where none closer
    is certified.

    Secant steps on ``s = r^2``, along which a margin is close to linear,
    start from the center and the outer probe.  A ray settles when its
    estimate moves by at most ``_BAND * tol`` from its last evaluated point;
    one call then evaluates every settled ray at ``_BAND * tol`` past its
    estimate, on the far side from that point, and a ray whose two points
    straddle the boundary takes them as its band."""
    rays = len(dirs)
    delta = _BAND * tol
    estimate, last, f_last = np.full(rays, np.nan), np.empty(rays), np.empty(rays)
    idx = np.arange(rays)
    s_a, f_a = 0.0, f_center
    r_b, f_b = np.full(rays, search_radius), f_outer
    with np.errstate(all="ignore"):
        for step in range(_SECANT_STEPS):
            if step:
                s_a, f_a, r_b = s_b, f_b, r
                f_b = margin(center + r_b[:, None] * dirs[idx])
            s_b = r_b * r_b
            r = np.sqrt(s_b - f_b * (s_b - s_a) / (f_b - f_a))
            estimate[idx], last[idx], f_last[idx] = r, r_b, f_b
            go = np.abs(r - r_b) > delta  # false once settled, and on a NaN estimate
            if not go.all():
                idx, r, s_b, f_b = idx[go], r[go], s_b[go], f_b[go]
            if not idx.size:
                break
    r_in, r_out = np.zeros(rays), np.full(rays, search_radius)
    (found,) = (np.abs(estimate - last) <= delta).nonzero()
    if not found.size:
        return r_in, r_out
    near, inside = last[found], f_last[found] > 0
    far = np.where(inside, estimate[found] + delta, estimate[found] - delta)
    ok = (margin(center + far[:, None] * dirs[found]) > 0) != inside
    found, near, far, inside = found[ok], near[ok], far[ok], inside[ok]
    r_in[found] = np.where(inside, near, far)
    r_out[found] = np.where(inside, far, near)
    return r_in, r_out


def _bisect(member, center, dirs, tol, search_radius, r_in, r_out):
    """Each ray's radius ``(lo + hi) / 2`` once bisection from ``(0,
    search_radius)`` has brought its ``hi - lo`` to at most ``tol``: a
    midpoint at or below ``r_in`` is a member, one at or above ``r_out`` is
    not, and ``member`` is asked about the others, in one call per step."""
    count = len(dirs)
    radius = np.empty(count)
    idx = np.arange(count)
    lo, hi = np.zeros(count), np.full(count, search_radius)
    while idx.size:
        go = hi - lo > tol
        if not go.all():
            stop = ~go
            radius[idx[stop]] = 0.5 * (lo[stop] + hi[stop])
            idx, lo, hi, r_in, r_out = idx[go], lo[go], hi[go], r_in[go], r_out[go]
            if not idx.size:
                break
        mid = 0.5 * (lo + hi)
        inside = mid <= r_in
        ask = (mid < r_out) > inside
        if ask.any():
            inside[ask] = member(center + mid[ask, None] * dirs[idx[ask]]) > 0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return radius


def region_boundary_2d(
    evaluator: Callable[[np.ndarray], np.ndarray], center_hint, rays: int, tol: float, search_radius: float
) -> Boundary2D:
    """Trace the boundary of a 2-d membership region along equally spaced rays.

    ``evaluator`` maps a ``(G, 2)`` array of points to ``(G,)`` values read
    as float64, and a point is a member when its value is ``> 0``: a margin
    such as :func:`crossfit_margin` (NaN is not a member), or booleans.
    After one call at the center and one at every ray's outer point, secant
    steps on ``r^2`` estimate each ray's boundary radius and one more call
    certifies a band ``(r_in, r_out)``, at most ``2e-3 * tol`` wide, of a
    member and a non-member radius.  Then every ray whose bracket ``hi -
    lo`` still exceeds ``tol`` is bisected, all rays together: a midpoint at
    or below ``r_in`` is a member, one at or above ``r_out`` is not, and one
    call asks about the others.  A ray whose steps do not settle, or whose
    band fails the check, keeps the band ``(0, search_radius)``.  So does
    nearly every ray of a boolean evaluator, whose steps settle at its outer
    probe: it is bisected in full, after one more call.  No call evaluates
    more than ``rays`` points.

    Assumes the region is star-shaped about ``center_hint`` (membership is
    monotone along each ray).  That holds for every convex region: the
    spheres, and the cross-fit and subsampling sets, whose log statistics
    are convex in ``theta`` (each split's is a convex quadratic, and
    log-sum-exp keeps convexity).  For any other evaluator it stays an
    assumption.  Under it every decision by position is the evaluator's
    own answer, so each ray's boundary is, bit for bit, the one that
    bisecting it alone and asking about every midpoint gives.
    ``center_hint`` must be a member.
    """
    center = np.asarray(center_hint, dtype=np.float64).reshape(-1)
    _check_trace(center.shape[0], rays, tol)
    if not search_radius > tol:
        raise DomainError("need search_radius > tol > 0")
    at_center = np.asarray(evaluator(center[None]), dtype=np.float64)[0]
    if not at_center > 0:
        raise DomainError("center_hint is not a member of the region")

    angles, dirs = _ray_dirs(rays)
    outer = np.asarray(evaluator(center + search_radius * dirs), dtype=np.float64)
    failed = outer > 0
    dirs = dirs[~failed]
    r_in, r_out = _secant_band(evaluator, center, dirs, at_center, outer[~failed], tol, search_radius)
    radius = _bisect(evaluator, center, dirs, tol, search_radius, r_in, r_out)
    return Boundary2D(
        center=center,
        angles=angles[~failed],
        points=center + radius[:, None] * dirs,
        failed_angles=angles[failed],
    )


def boundaries_2d(
    sample: SampleSet, pair: SplitPair, alpha: float, rays: int, tol: float, splits=None
) -> tuple[Boundary2D, Boundary2D | None]:
    """The cross-fit boundary of ``pair`` and the subsampling boundary of the
    record ``splits`` (``None`` without one), each traced from the sample
    mean out to ten radii of the split sphere of ``pair``.  Both records
    must be splits of ``sample``.  Both sets are convex, their log
    statistics being log-sum-exps of convex quadratics, so each is
    star-shaped about every member, as :func:`region_boundary_2d` needs.

    The traces evaluate :func:`crossfit_margin` and
    :func:`subsampling_margin`, so :func:`region_boundary_2d` decides most
    midpoints by position.  The cross-fit margin's sign is the statistic's
    decision exactly.  The subsampling margin's sign can differ from it
    within a few ulps of the boundary, where a point could then move by one
    bisection step; the equality sweep of ``pytest -m sweep`` checks that
    it does not on fig1-shaped records."""
    evaluators = [(pair, crossfit_margin(pair, alpha))]
    if splits is not None:
        evaluators.append((splits, subsampling_margin(splits, alpha)))
    for record, _ in evaluators:
        if record.m0 + record.m1 != sample.n:
            raise DomainError(f"splits of {record.m0 + record.m1} observations "
                              f"do not split the sample of n={sample.n}")
    search = 10.0 * math.sqrt(split_region(pair, alpha).sq_radius)
    traced = [region_boundary_2d(m, sample.mean, rays, tol, search) for _, m in evaluators]
    return traced[0], traced[1] if splits is not None else None
