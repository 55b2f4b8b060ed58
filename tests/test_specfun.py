"""Special-function tests against independent oracles.

Expected values marked as frozen were computed with the oracle implemented
next to the test (series, quadrature, bisection, or Monte Carlo), never with
the code under test.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrt import _kernels, specfun
from ulrt.errors import DomainError, NumericError
from ulrt.power import power_classical
from ulrt.specfun import (
    chi2_cdf,
    chi2_pdf,
    chi2_sf,
    chi2_upper_quantile,
    noncentral_chi2_cdf,
    std_normal_cdf,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def erf_series(z: float, terms: int = 60) -> float:
    """Maclaurin series for erf, plenty of terms for |z| <= 3."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * z ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_oracle(x: float) -> float:
    return 0.5 + 0.5 * erf_series(x / math.sqrt(2.0))


def simpson(f, a: float, b: float, panels: int = 2000) -> float:
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def chi2_cdf_d1_oracle(x: float) -> float:
    """d=1 CDF by quadrature after the substitution t = sqrt(x), which
    removes the integrable singularity at zero."""
    return simpson(lambda t: 2.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), 0.0, math.sqrt(x))


# ---------------------------------------------------------------------------
# standard normal CDF
# ---------------------------------------------------------------------------


def test_normal_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_normal_cdf_frozen_value():
    # frozen from the 60-term erf series oracle: 0.9750021048517795
    assert normal_cdf_oracle(1.96) == pytest.approx(0.9750021048517795, abs=1e-14)
    assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)


def test_normal_cdf_far_tail():
    value = std_normal_cdf(-10.0)
    tail_bound = math.exp(-50.0) / (10.0 * math.sqrt(2.0 * math.pi))
    assert 0.0 < value <= 1e-20
    assert value <= tail_bound * 1.01


@pytest.mark.parametrize("x", [-3.0, -0.7, 0.3, 1.5, 2.9])
def test_normal_cdf_matches_series(x):
    assert std_normal_cdf(x) == pytest.approx(normal_cdf_oracle(x), abs=1e-12)


@given(st.floats(-30.0, 30.0))
@settings(max_examples=200, deadline=None)
def test_normal_cdf_symmetry(x):
    assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


def test_normal_cdf_monotone():
    xs = np.linspace(-8.0, 8.0, 200)
    values = [std_normal_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_normal_cdf_rejects_nonfinite():
    with pytest.raises(DomainError):
        std_normal_cdf(math.nan)
    with pytest.raises(DomainError):
        std_normal_cdf(math.inf)


# ---------------------------------------------------------------------------
# chi-squared density
# ---------------------------------------------------------------------------


def test_chi2_pdf_two_df_at_zero():
    assert chi2_pdf(0.0, 2) == 0.5


def test_chi2_pdf_one_df_direct_formula():
    # (2 pi x)^(-1/2) exp(-x/2) at x = 1: 0.24197072451914337
    direct = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert chi2_pdf(1.0, 1) == pytest.approx(direct, rel=1e-13)


def test_chi2_pdf_mode_at_d_minus_2():
    xs = np.linspace(0.0, 40.0, 4001)
    values = np.array([chi2_pdf(float(x), 10) for x in xs])
    assert xs[int(values.argmax())] == pytest.approx(8.0, abs=0.02)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 50])
def test_chi2_pdf_decreasing_past_mode(d):
    xs = np.linspace(max(d - 2, 0.0) + 1e-6, d + 50.0, 300)
    values = [chi2_pdf(float(x), d) for x in xs]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_chi2_pdf_rejects_negative():
    with pytest.raises(DomainError):
        chi2_pdf(-1e-9, 3)


@pytest.mark.parametrize("fn", [specfun.chi2_cdf, specfun.chi2_sf], ids=["cdf", "sf"])
def test_chi2_cdf_and_sf_reject_negative(fn):
    with pytest.raises(DomainError, match=r"requires x >= 0, got -1e-09$"):
        fn(-1e-9, 3)


# ---------------------------------------------------------------------------
# chi-squared CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 7, 40])
def test_chi2_cdf_at_zero(d):
    assert chi2_cdf(0.0, d) == 0.0


def test_chi2_cdf_two_df_closed_form():
    for x in (0.1, 1.0, 4.60517, 20.0):
        assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-0.5 * x), abs=1e-12)


def test_chi2_cdf_one_df_quadrature_oracle():
    assert chi2_cdf_d1_oracle(2.70554) == pytest.approx(0.9, abs=2e-6)
    assert chi2_cdf(2.70554, 1) == pytest.approx(0.9, abs=1e-6)


def test_chi2_cdf_monotone_and_limits():
    values = [chi2_cdf(x, 5) for x in np.linspace(0.0, 80.0, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert chi2_cdf(400.0, 5) == 1.0


def test_chi2_cdf_sf_complement():
    for d in (1, 3, 10):
        for x in (0.3, 2.0, 9.0, 31.0):
            assert chi2_cdf(x, d) + chi2_sf(x, d) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# chi-squared upper quantile
# ---------------------------------------------------------------------------


def test_quantile_two_df_closed_form():
    assert chi2_upper_quantile(0.1, 2) == pytest.approx(-2.0 * math.log(0.1), rel=1e-9)


def test_quantile_one_df_bisection_oracle():
    # oracle: bisect 2 Phi(sqrt x) - 1 = 0.9 using math.erf; frozen value
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.erf(math.sqrt(mid / 2.0)) < 0.9:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(2.705543454095404, abs=1e-9)
    assert chi2_upper_quantile(0.1, 1) == pytest.approx(oracle, rel=1e-9)


def test_quantile_strictly_decreasing_in_alpha():
    quantiles = [chi2_upper_quantile(a, 7) for a in (0.9, 0.5, 0.1, 0.01, 1e-5)]
    assert all(b > a for a, b in zip(quantiles, quantiles[1:]))


@pytest.mark.parametrize("d", [2, 5, 10, 100])
@pytest.mark.parametrize("alpha", [0.17, 0.1, 0.01, 1e-6])
def test_quantile_inglot_sandwich(alpha, d):
    L = math.log(1.0 / alpha)
    c = chi2_upper_quantile(alpha, d)
    assert d + 2.0 * L - 2.5 <= c <= d + 2.0 * L + 2.0 * math.sqrt(d * L)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 50])
@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01, 1e-6])
def test_quantile_roundtrip(alpha, d):
    c = chi2_upper_quantile(alpha, d)
    assert chi2_cdf(c, d) == pytest.approx(1.0 - alpha, abs=1e-8)


def test_quantile_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            chi2_upper_quantile(alpha, 3)


@pytest.mark.parametrize("d", [math.nan, math.inf, None, True, 0, -2, 2.5, "3"],
                         ids=["nan", "inf", "None", "True", "0", "-2", "2.5", "str"])
def test_degrees_of_freedom_must_be_a_positive_integer(d):
    for call in (lambda: chi2_cdf(1.0, d), lambda: chi2_upper_quantile(0.1, d),
                 lambda: noncentral_chi2_cdf(1.0, d, 2.0)):
        with pytest.raises(DomainError, match="degrees of freedom must be a positive integer"):
            call()


def test_degrees_of_freedom_may_be_an_integral_float_or_numpy_integer():
    assert chi2_cdf(3.0, 2.0) == chi2_cdf(3.0, np.int64(2)) == chi2_cdf(3.0, 2)
    assert chi2_upper_quantile(0.1, 7.0) == chi2_upper_quantile(0.1, 7)


def test_quantile_refuses_extreme_alpha():
    with pytest.raises(NumericError):
        chi2_upper_quantile(1e-310, 2)


# ---------------------------------------------------------------------------
# noncentral chi-squared CDF
# ---------------------------------------------------------------------------


def test_noncentral_reduces_to_central():
    for x, d in ((0.5, 1), (4.0, 3), (25.0, 10)):
        assert noncentral_chi2_cdf(x, d, 0.0) == chi2_cdf(x, d)


def test_noncentral_with_a_half_that_underflows_is_the_central_cdf():
    """At the smallest subnormal lambda, lambda/2 rounds to 0, so there is no
    Poisson mode to take the log of: the value is the central CDF, as at 0."""
    assert 0.5 * 5e-324 == 0.0
    for x, d in ((0.0, 2), (1.0, 2), (4.0, 3), (25.0, 10)):
        assert noncentral_chi2_cdf(x, d, 5e-324) == chi2_cdf(x, d)


def test_noncentral_monte_carlo_oracle():
    # || Z + mu ||^2 with ||mu||^2 = 10, d = 100, a million draws
    rng = np.random.default_rng(20240817)
    mu = np.zeros(100)
    mu[0] = math.sqrt(10.0)
    draws = ((rng.standard_normal((1_000_000, 100)) + mu) ** 2).sum(axis=1)
    p_hat = float((draws <= 110.0).mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / 1_000_000)
    assert noncentral_chi2_cdf(110.0, 100, 10.0) == pytest.approx(p_hat, abs=3 * se)


def test_noncentral_normal_approximation_regime():
    x, d, lam = 1002.0, 2, 1000.0
    approx = std_normal_cdf((x - d - lam) / math.sqrt(2.0 * (d + 2.0 * lam)))
    assert abs(noncentral_chi2_cdf(x, d, lam) - approx) <= 0.01


@pytest.mark.parametrize("x,d", [(1.0, 1), (5.0, 3), (30.0, 20)])
def test_noncentral_below_central(x, d):
    assert noncentral_chi2_cdf(x, d, 2.5) <= chi2_cdf(x, d)


def test_noncentral_monotone_in_x_and_lambda():
    values = [noncentral_chi2_cdf(x, 5, 7.0) for x in np.linspace(0.0, 60.0, 100)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    lams = [noncentral_chi2_cdf(12.0, 5, lam) for lam in np.linspace(0.0, 50.0, 60)]
    assert all(b <= a for a, b in zip(lams, lams[1:]))


def test_noncentral_rejects_negative():
    with pytest.raises(DomainError):
        noncentral_chi2_cdf(-1.0, 2, 1.0)
    with pytest.raises(DomainError):
        noncentral_chi2_cdf(1.0, 2, -1.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0])
def test_noncentral_refuses_a_non_finite_or_negative_noncentrality(lam):
    with pytest.raises(DomainError, match=f"^noncentrality must be finite and >= 0, got {lam}$"):
        noncentral_chi2_cdf(1.0, 2, lam)


# noncentral CDF against scipy: truncation at ABS_TOL, plus the rounding of
# the log-space prefactors exp(-s + a ln s - lgamma(a + 1)), whose terms grow
# like d + lambda; twice that, since the worst case seen was 0.74 of it
def noncentral_tolerance(d: int, lam: float) -> float:
    return 2.0 * (specfun.ABS_TOL + 1e-15 * (d + lam))


def assert_noncentral_matches_scipy(ds, lams):
    stats = pytest.importorskip("scipy.stats")
    for d in ds:
        for lam in lams:
            mean, sd = d + lam, math.sqrt(2.0 * (d + 2.0 * lam))
            for z in range(-8, 9):
                x = mean + z * sd
                if x <= 0.0:
                    continue
                mine = noncentral_chi2_cdf(x, d, lam)
                oracle = float(stats.ncx2.cdf(x, d, lam))
                assert abs(mine - oracle) <= noncentral_tolerance(d, lam), (x, d, lam, mine, oracle)


def test_noncentral_matches_scipy_grid():
    assert_noncentral_matches_scipy((1, 2, 10, 100, 1000), [10.0**e for e in range(-3, 6)])


def per_term_mixture(x: float, d: int, lam: float, terms: int = 200) -> float:
    """The Poisson mixture with one central CDF per term, summed from k = 0."""
    half = 0.5 * lam
    return math.fsum(
        math.exp(-half + k * math.log(half) - math.lgamma(k + 1)) * chi2_cdf(x, d + 2 * k)
        for k in range(terms)
    )


def kernel_paths(monkeypatch):
    """Runs the caller's loop body on the compiled special-function loops,
    when the module loads here, and then on their Python twins."""
    lib = _kernels._compiled()
    for loaded in ([lib] if lib is not None else []) + [None]:
        monkeypatch.setattr(_kernels, "_loaded", [loaded])
        yield loaded


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _on_both_paths(fn, cases) -> list[tuple[bytes, bytes]]:
    """``fn(*case)`` for every case on the compiled loops and on the Python
    twins, as pairs of bytes; skips when the module does not load."""
    if _kernels._compiled() is None:
        pytest.skip("no compiled module")
    compiled = [_bits(fn(*case)) for case in cases]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_loaded", [None])
        return list(zip(compiled, [_bits(fn(*case)) for case in cases]))


def test_noncentral_recurrence_matches_per_term_mixture(monkeypatch):
    # a far smaller truncation leaves only the recurrence's rounding
    monkeypatch.setattr(specfun, "ABS_TOL", 1e-16)
    for _ in kernel_paths(monkeypatch):
        for d in (1, 2, 3, 10, 50):
            for lam in (0.01, 0.5, 1.0, 3.0, 10.0, 30.0):
                mean, sd = d + lam, math.sqrt(2.0 * (d + 2.0 * lam))
                for z in (-3, -2, -1, 0, 1, 2, 4, 8):
                    x = mean + z * sd
                    if x > 0.0:
                        mine = noncentral_chi2_cdf(x, d, lam)
                        assert mine == pytest.approx(per_term_mixture(x, d, lam), abs=2e-14)


def test_noncentral_underflowing_start_term():
    # the intersection test's lower edge at theta_norm = 1.5, n = 1000: the
    # incomplete gamma at the Poisson mode underflows to 0
    x, d, lam = 186.7, 2, 2250.0
    assert specfun._chi2_cdf_sf(x, d + 2 * int(lam / 2))[0] == 0.0
    value = noncentral_chi2_cdf(x, d, lam)
    assert 0.0 <= value <= specfun.ABS_TOL
    stats = pytest.importorskip("scipy.stats")
    assert value == pytest.approx(float(stats.ncx2.cdf(x, d, lam)), abs=specfun.ABS_TOL)


@pytest.mark.parametrize("lam", [1e2, 1e3, 3e4, 1e5, 1e6])
def test_noncentral_far_right_tail_is_exactly_one(lam):
    # the sum is divided by the summed Poisson mass, so neither truncation nor
    # rounding in the mode weight (1e-10 relative at lambda = 1e5) shows
    for d in (1, 10):
        x = d + lam + 40.0 * math.sqrt(2.0 * (d + 2.0 * lam))
        assert noncentral_chi2_cdf(x, d, lam) == 1.0


# values frozen from scipy 1.17.1 (chi2.isf, ncx2.cdf); every call raised
# NumericError while the iteration budgets were fixed
def test_large_shape_quantiles_converge():
    assert chi2_upper_quantile(0.5, 10**4) == pytest.approx(9999.333341235144, rel=1e-9)
    assert chi2_upper_quantile(0.5, 10**5) == pytest.approx(99999.33333412347, rel=1e-9)
    assert chi2_upper_quantile(0.1, 10**6) == pytest.approx(1001812.8153150163, rel=1e-9)


def test_large_noncentrality_converges():
    value = noncentral_chi2_cdf(100500.0, 2, 1e5)
    assert value == pytest.approx(0.7846529617832639, abs=noncentral_tolerance(2, 1e5))
    assert power_classical(1.0, 10**5, 2, 0.1).value == 1.0


@pytest.mark.sweep
@pytest.mark.parametrize("d", [1, 2, 5, 10, 100, 1000, 10**4])
def test_noncentral_sweep(d):
    assert_noncentral_matches_scipy((d,), [10.0**e for e in range(-3, 7)])


@pytest.mark.sweep
@pytest.mark.parametrize("d", [1, 10, 1000, 10**5])
def test_compiled_loops_equal_their_twins_sweep(d):
    """The documented range's far end, where a twin call takes up to a
    second: lambda up to 2.14e9, just under the 2**31 cap, whose mode
    weight also sends the incomplete gamma to shapes near 1e9."""
    cases = []
    for lam in (1e7, 1e8, 1e9, 2.14e9):
        mean, sd = d + lam, math.sqrt(2.0 * (d + 2.0 * lam))
        cases += [(mean + z * sd, d, lam) for z in (-3, 0, 3)]
    pairs = _on_both_paths(noncentral_chi2_cdf, cases)
    assert [case for case, (compiled, twin) in zip(cases, pairs) if compiled != twin] == []


@pytest.mark.sweep
@pytest.mark.parametrize("d", [1, 2, 10, 100, 1000, 10**4, 10**5, 10**6])
def test_quantile_sweep(d):
    stats = pytest.importorskip("scipy.stats")
    for alpha in (0.5, 0.1, 1e-6, 1e-100, math.exp(-699.0)):
        oracle = float(stats.chi2.isf(alpha, d))
        assert chi2_upper_quantile(alpha, d) == pytest.approx(oracle, rel=10 * specfun.REL_TOL)


# ---------------------------------------------------------------------------
# the compiled special-function loops and their Python twins
# ---------------------------------------------------------------------------


_TWIN_DIMS = (1, 2, 10, 100, 10**5)


def test_incomplete_gamma_loops_equal_their_twins_bit_for_bit():
    """Both expansions, through the CDF and the survival function: x in the
    far lower tail, a few standard deviations out, at the mode d - 2 and
    around the switch at x = d + 2, and in the far upper tail."""
    cases = []
    for d in _TWIN_DIMS:
        sd = math.sqrt(2.0 * d)
        xs = {1e-3 * d, max(d - 2.0, 0.5), d + 1.5, d + 2.0, d + 2.5,
              *(d + z * sd for z in (-8, -3, -1, 1, 3, 8, 40))}
        cases += [(x, d) for x in sorted(xs) if x > 0.0]
    series = [case for case in cases if 0.5 * case[0] < 0.5 * case[1] + 1.0]
    assert 0 < len(series) < len(cases)
    for fn in (chi2_cdf, chi2_sf):
        for compiled, twin in _on_both_paths(fn, cases):
            assert compiled == twin


def test_noncentral_mixture_equals_its_twin_bit_for_bit():
    """d from 1 to 1e5 and lambda from 1e-3 to 1e6, with x in both far tails,
    a few standard deviations out and at the mean."""
    cases = []
    for d in _TWIN_DIMS:
        for lam in (10.0**e for e in range(-3, 7)):
            mean, sd = d + lam, math.sqrt(2.0 * (d + 2.0 * lam))
            xs = {1e-3 * mean, *(mean + z * sd for z in (-8, -3, 0, 3, 8))}
            cases += [(x, d, lam) for x in sorted(xs) if x > 0.0]
    pairs = _on_both_paths(noncentral_chi2_cdf, cases)
    assert [case for case, (compiled, twin) in zip(cases, pairs) if compiled != twin] == []


def test_compiled_lgamma_is_math_lgamma():
    """The compiled loops call a port of CPython's lgamma; read it out
    through the mixture method.  Started at mode k0 = 3 of half = 1 with
    weight 1 and CDF 0, the mixture takes one step down and returns
    3 * g / 4, with g = exp(-s + (a + 2) log(s) - lgamma(a + 3)) and both
    the product by 3 and the division by 4 exact, so a result equals the
    twin's exactly when g does.  s = a + 3 keeps the exponent near 0, where
    a one-ulp change of lgamma moves g.  The lgamma arguments are the
    half-integers to 2**12, 2**j and 2**j + 0.5 up to 2**30, random
    half-integers below 2**30, and random reals from 0.5 on."""
    rng = np.random.default_rng(20261020)
    targets = np.concatenate([
        np.arange(1, 2**13) * 0.5,
        2.0 ** np.arange(31), 2.0 ** np.arange(31) + 0.5,
        np.floor(2.0 ** rng.uniform(12, 30, 2000)) + 0.5,
        0.5 + rng.exponential(4.0, 2000), 2.0 ** rng.uniform(-1, 30, 2000),
    ])
    cases = [(1.0, 3, t - 3.0, t, math.log(t), 1.0, 0.0, 5, 3.0) for t in targets.tolist()]
    for case in cases[:3]:
        a = case[2]
        g = math.exp(-case[3] + (a + 2) * case[4] - math.lgamma(a + 2 + 1.0))
        assert _kernels._TWINS.noncentral_mixture(*case) == 3.0 * g / 4.0
    pairs = _on_both_paths(lambda *c: _kernels._lib().noncentral_mixture(*c), cases)
    assert [case[3] for case, (compiled, twin) in zip(cases, pairs) if compiled != twin] == []


def test_range_errors_of_math_are_raised_on_both_kernel_paths(monkeypatch):
    """Where math.lgamma overflows (d past 5e305), both paths raise its
    OverflowError."""
    for _ in kernel_paths(monkeypatch):
        with pytest.raises(OverflowError, match="math range error"):
            chi2_cdf(1.0, 1e306)


# ---------------------------------------------------------------------------
# tolerance plumbing
# ---------------------------------------------------------------------------


def test_tolerance_budget_is_respected(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_ITER", 3)
    for _ in kernel_paths(monkeypatch):
        with pytest.raises(NumericError):
            chi2_upper_quantile(0.1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: chi2_cdf(40.0, 50), "incomplete gamma series did not converge (a=25.0, x=20.0)"),
    (lambda: chi2_sf(80.0, 50),
     "incomplete gamma continued fraction did not converge (a=25.0, x=40.0)"),
    # the incomplete gamma at the mode converges in 4 of its 6 steps, the
    # mixture's lower tail needs far more than its 6
    (lambda: noncentral_chi2_cdf(1e-3, 2, 200.0),
     "noncentral chi-squared series did not converge (x=0.001, d=2, lambda=200.0)"),
], ids=["series", "continued-fraction", "mixture"])
def test_exhausted_budget_raises_the_same_error_on_both_kernel_paths(call, message, monkeypatch):
    monkeypatch.setattr(specfun, "MAX_ITER", 3)
    for _ in kernel_paths(monkeypatch):
        with pytest.raises(NumericError) as caught:
            call()
        assert str(caught.value) == message


def test_quantile_is_memoized_per_convergence_target_and_errors_are_not(monkeypatch):
    monkeypatch.setattr(specfun, "_QUANTILES", {})
    evaluations = []
    sf = specfun.chi2_sf
    monkeypatch.setattr(specfun, "chi2_sf", lambda x, d: evaluations.append(x) or sf(x, d))
    first = chi2_upper_quantile(0.05, 7)
    assert evaluations
    evaluations.clear()
    assert chi2_upper_quantile(0.05, 7) is first
    assert chi2_upper_quantile(np.float64(0.05), np.int64(7)) is first
    assert evaluations == []
    monkeypatch.setattr(specfun, "REL_TOL", 1e-6)
    assert chi2_upper_quantile(0.05, 7) == pytest.approx(first, rel=1e-5)
    assert evaluations
    monkeypatch.setattr(specfun, "MAX_ITER", 3)
    for _ in range(2):
        with pytest.raises(NumericError):
            chi2_upper_quantile(0.05, 7)
    assert len(specfun._QUANTILES) == 2


def test_default_max_log_inv_alpha_exported():
    assert specfun.MAX_LOG_INV_ALPHA == 700.0
