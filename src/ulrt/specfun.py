"""Numerical special functions backing every closed-form expression.

Implements the standard normal CDF, the chi-squared density, CDF (regularized
lower incomplete gamma), upper quantile, and the noncentral chi-squared CDF as
a Poisson mixture.  The incomplete gamma uses the classical regime split
(series below the transition point, continued fraction above), with an
iteration budget that grows like the square root of its shape; the quantile
is found by bracketed bisection, which converges unconditionally.  The
noncentral CDF evaluates one incomplete gamma, at the Poisson mode, and
reaches the other mixture terms by its recurrence in the shape.  The loops
of the two expansions and of the mixture are methods of ``_kernels._lib()``,
compiled or Python twins of the same bytes; this module checks
the arguments, sets the budgets and raises when a loop runs out of steps.

All functions are pure and validate their arguments with :class:`DomainError`
or :class:`NumericError`.
"""

from __future__ import annotations

import math
import numbers
import sys

from . import _kernels
from .errors import DomainError, NumericError

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)

#: ln(1/alpha) beyond which the chi-squared CDF cannot resolve alpha in
#: double precision; quantile inversion refuses past this point.
MAX_LOG_INV_ALPHA = 700.0


#: Convergence targets of the iterative routines, read at call time: the
#: iteration budget (scaled by :func:`_budget`), the unaccumulated Poisson
#: mass, relative to the accumulated one, at which the noncentral series
#: stops, and the relative width of quantile brackets.
MAX_ITER = 500
ABS_TOL = 1e-12
REL_TOL = 1e-10

#: :func:`noncentral_chi2_cdf` refuses lambda/2 from here on.  Its recurrence
#: takes a number of steps that grows as sqrt(lambda): at d = 2 and x =
#: lambda on one Xeon vCPU, the compiled loop took 12 ms at lambda = 1e8,
#: 47 ms at 2.14e9, just under the bound, and 1.0 s at 1e12 (its Python twin
#: 0.09, 0.47 and 10.8 s).  The bound also keeps the Poisson indices k exact
#: doubles, so that k + 1 - lambda/2, a divisor, never rounds to 0 (it would
#: from lambda/2 = 2**53 on).
_MAX_HALF_NONCENTRALITY = 2.0**30

#: :func:`chi2_upper_quantile` results by ``(alpha, d, MAX_ITER, REL_TOL)``:
#: the closed-form power and threshold tests ask for the same few quantiles
#: on every call.  A plain dict, not ``functools.lru_cache``, so that the
#: quantile stays a plain function.
_QUANTILES: dict[tuple[float, int, int, float], float] = {}


def _check_dim(d: int) -> None:
    """``d`` must be a positive integer: an integer other than a bool, or an
    integral float such as 2.0.  A plain int skips the ABC check, which costs
    a few hundred nanoseconds on each step of a quantile bisection."""
    real = type(d) is int or isinstance(d, numbers.Real) and not isinstance(d, bool)
    if not (real and d >= 1 and d % 1 == 0):
        raise DomainError(f"degrees of freedom must be a positive integer, got {d}")


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite input, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def chi2_pdf(x: float, d: int) -> float:
    """Density of the chi-squared distribution with ``d`` degrees of freedom."""
    _check_dim(d)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi2_pdf requires x >= 0, got {x}")
    a = 0.5 * d
    if x == 0.0:
        if d == 1:
            return math.inf
        if d == 2:
            return 0.5
        return 0.0
    log_pdf = (a - 1.0) * math.log(x) - 0.5 * x - a * _LN2 - math.lgamma(a)
    return math.exp(log_pdf)


def _budget(a: float) -> int:
    """Iteration budget of a series whose terms spread like ``sqrt(a)``: the
    incomplete gamma at shape ``a`` (both of its expansions) and the Poisson
    mixture at Poisson mean ``a``.  Capped at ``sys.maxsize``, the most steps
    a compiled loop takes, which no loop would finish anyway."""
    return min(MAX_ITER * (1 + int(math.sqrt(a) / 8)), sys.maxsize)


def _chi2_cdf_sf(x: float, d: int) -> tuple[float, float]:
    """(CDF, survival) of the chi-squared distribution, each computed in the
    regime where it is accurate and the other by complement."""
    a = 0.5 * d
    s = 0.5 * x
    if s == 0.0:
        return 0.0, 1.0
    if s < a + 1.0:
        p = _kernels._lib().gamma_p_series(a, s, _budget(a))
        if p is None:
            raise NumericError(f"incomplete gamma series did not converge (a={a}, x={s})")
        return p, 1.0 - p
    q = _kernels._lib().gamma_q_contfrac(a, s, _budget(a))
    if q is None:
        raise NumericError(f"incomplete gamma continued fraction did not converge (a={a}, x={s})")
    return 1.0 - q, q


def chi2_cdf(x: float, d: int) -> float:
    """Chi-squared CDF, the regularized lower incomplete gamma P(d/2, x/2)."""
    _check_dim(d)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi2_cdf requires x >= 0, got {x}")
    return _chi2_cdf_sf(x, d)[0]


def chi2_sf(x: float, d: int) -> float:
    """Chi-squared survival function 1 - CDF, accurate in the far tail."""
    _check_dim(d)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi2_sf requires x >= 0, got {x}")
    return _chi2_cdf_sf(x, d)[1]


def chi2_upper_quantile(alpha: float, d: int) -> float:
    """Upper ``alpha`` quantile of the chi-squared distribution with ``d`` df.

    Brackets the root with the Inglot bounds where they apply (d >= 2 and
    alpha <= 0.17), otherwise with a crude but safe envelope, and refines by
    bisection on the survival function to :data:`REL_TOL`.  Results are
    memoized per ``(alpha, d)`` and convergence targets; errors are not.
    """
    _check_dim(d)
    key = (_check_alpha(alpha), int(d), MAX_ITER, REL_TOL)
    quantile = _QUANTILES.get(key)
    if quantile is None:
        quantile = _QUANTILES[key] = _bisect_quantile(alpha, d)
    return quantile


def _bisect_quantile(alpha: float, d: int) -> float:
    """:func:`chi2_upper_quantile` for checked arguments, not memoized."""
    log_inv = -math.log(alpha)
    if log_inv > MAX_LOG_INV_ALPHA:
        raise NumericError(
            f"quantile inversion refuses ln(1/alpha) = {log_inv:.1f} > {MAX_LOG_INV_ALPHA:.0f}; "
            "use the closed-form bound expressions for extreme alpha"
        )
    if d >= 2 and alpha <= 0.17:
        lo = max(0.0, d + 2.0 * log_inv - 2.5)
        hi = d + 2.0 * log_inv + 2.0 * math.sqrt(d * log_inv)
    else:
        lo = 0.0
        hi = d + 40.0 * math.sqrt(d) + 4.0 * log_inv
    # defensive bracket expansion; a handful of doublings at most
    for _ in range(200):
        if chi2_sf(hi, d) <= alpha:
            break
        hi *= 2.0
    else:
        raise NumericError("failed to bracket chi-squared quantile from above")
    while lo > 0.0 and chi2_sf(lo, d) < alpha:
        lo *= 0.5
        if lo < 1e-300:
            lo = 0.0
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, d) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * max(hi, 1e-300):
            return 0.5 * (lo + hi)
    raise NumericError(f"chi-squared quantile bisection did not converge (alpha={alpha}, d={d})")


def noncentral_chi2_cdf(x: float, d: int, noncentrality: float) -> float:
    """Noncentral chi-squared CDF via the Poisson mixture of central CDFs.

    Evaluates one incomplete gamma, ``P(d/2 + k0, x/2)`` at the Poisson mode
    ``k0 = floor(lambda/2)``, and reaches the other mixture terms outward from
    it, alternately up and down, by the recurrences
    ``P(a + 1, s) = P(a, s) - g(a)`` and ``P(a - 1, s) = P(a, s) + g(a - 1)``
    with ``g(a) = e^-s s^a / Gamma(a + 1)`` taken from its logarithm, so an
    underflowing term cannot zero the ones after it (Ding, AS 275, 1992).
    Each direction stops when a geometric bound on its unsummed Poisson tail
    drops below half of :data:`ABS_TOL` times the summed mass, and the sum is
    divided by that mass, so rounding in the mode weight cannot stall it.
    Raises ``NumericError`` for ``lambda/2 >= 2**30``, past which the
    recurrence would take seconds to hours.
    """
    _check_dim(d)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"noncentral_chi2_cdf requires x >= 0, got {x}")
    if not math.isfinite(noncentrality) or noncentrality < 0.0:
        raise DomainError(f"noncentrality must be finite and >= 0, got {noncentrality}")
    half = 0.5 * noncentrality
    if half == 0.0:
        # lambda = 0, or so small that lambda/2 rounds to 0: the central CDF
        return chi2_cdf(x, d)
    if x == 0.0:
        return 0.0
    if half >= _MAX_HALF_NONCENTRALITY:
        raise NumericError(
            f"noncentral chi-squared series needs lambda/2 < 2**30, got lambda={noncentrality}"
        )
    k0 = int(half)
    a = 0.5 * d
    s = 0.5 * x
    w0 = math.exp(-half + k0 * math.log(half) - math.lgamma(k0 + 1))
    p0 = _chi2_cdf_sf(x, d + 2 * k0)[0]
    value = _kernels._lib().noncentral_mixture(half, k0, a, s, math.log(s), w0, p0,
                                               _budget(half), ABS_TOL)
    if value is None:
        raise NumericError(
            f"noncentral chi-squared series did not converge (x={x}, d={d}, lambda={noncentrality})"
        )
    return value
