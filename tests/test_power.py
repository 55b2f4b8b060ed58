"""Closed-form and Monte Carlo power for the zero-mean test."""

import math
import re
import sys

import numpy as np
import pytest

from ulrt.errors import DomainError
from ulrt.power import (
    PowerEstimate,
    mc_power,
    power_classical,
    power_limiting_subsampling,
)
from ulrt.rng import RngStream


def test_size_equals_alpha():
    for alpha in (0.1, 0.05, 0.01):
        est = power_classical(0.0, 1000, 2, alpha, method="exact")
        assert est.value == pytest.approx(alpha, abs=1e-8)
        assert est.stderr == 0.0
        assert est.method == "exact_noncentral"


def test_exact_vs_normal_approx_moderate_noncentrality():
    # lambda = n |theta|^2 = 100
    exact = power_classical(0.1, 1000, 2, 0.1, method="exact").value
    approx = power_classical(0.1, 1000, 2, 0.1, method="approx").value
    assert abs(exact - approx) <= 0.02


@pytest.mark.parametrize("lam", [50.0, 100.0, 200.0, 500.0])
def test_exact_vs_approx_large_lambda(lam):
    for fn in (power_classical, power_limiting_subsampling):
        exact = fn(lam / 1000.0, 1000, 2, 0.1, method="exact").value
        approx = fn(lam / 1000.0, 1000, 2, 0.1, method="approx").value
        assert abs(exact - approx) <= 0.03


def test_power_approaches_one():
    assert power_classical(10.0, 1000, 2, 0.1).value >= 0.9999
    assert power_limiting_subsampling(10.0, 1000, 2, 0.1).value >= 0.9999


def test_power_approaches_zero_with_alpha():
    for lam in (1.0, 5.0, 20.0):
        high = power_classical(lam / 1000.0, 1000, 2, 0.1).value
        low = power_classical(lam / 1000.0, 1000, 2, 1e-8).value
        assert low < high
    assert power_classical(1.0 / 1000.0, 1000, 2, 1e-15).value < 1e-3


def test_subsampling_size_closed_form():
    # 1 - F_{2,0}((10/3) ln 25) = exp(-(5/3) ln 25); frozen 0.0046784284
    expected = math.exp(-(5.0 / 3.0) * math.log(25.0))
    assert expected == pytest.approx(0.0046784284, abs=1e-9)
    est = power_limiting_subsampling(0.0, 1000, 2, 0.1, method="exact")
    assert est.value == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_subsampling_below_classical_when_threshold_larger(d, alpha):
    for lam in (0.0, 5.0, 20.0, 80.0):
        sub = power_limiting_subsampling(lam / 1000.0, 1000, d, alpha).value
        classical = power_classical(lam / 1000.0, 1000, d, alpha).value
        assert sub <= classical + 1e-12


def test_power_monotone_in_theta():
    for fn in (power_classical, power_limiting_subsampling):
        values = [fn(lam / 1000.0, 1000, 3, 0.1).value for lam in np.linspace(0.0, 80.0, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_mc_power_validity_under_null():
    for kind in ("split", "crossfit", "subsampling"):
        est = mc_power(kind, [0.0, 0.0], 400, 0.1, B=30, reps=800, rng=RngStream(606))
        assert est.method == "monte_carlo"
        assert est.value <= 0.1 + 3.0 * max(est.stderr, math.sqrt(0.1 * 0.9 / 800))


def test_mc_power_monotone_within_error():
    n, d, reps = 400, 2, 800
    estimates = []
    for i, lam in enumerate((2.0, 12.0, 40.0)):
        theta = math.sqrt(lam / (n * d)) * np.ones(d)
        estimates.append(
            mc_power("split", theta, n, 0.1, reps=reps, rng=RngStream(70 + i))
        )
    for lo, hi in zip(estimates, estimates[1:]):
        pooled = math.sqrt(lo.stderr**2 + hi.stderr**2)
        assert hi.value >= lo.value - 2.0 * pooled


def test_mc_split_power_at_strong_signal():
    theta = math.sqrt(60.0 / (1000.0 * 2.0)) * np.ones(2)
    est = mc_power("split", theta, 1000, 0.1, reps=1200, rng=RngStream(607))
    assert est.value >= 0.95


def test_mc_power_deterministic_across_workers():
    theta = np.array([0.08, 0.0])
    a = mc_power("subsampling", theta, 200, 0.1, B=25, reps=600, rng=RngStream(9), workers=1)
    b = mc_power("subsampling", theta, 200, 0.1, B=25, reps=600, rng=RngStream(9), workers=4)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_power_stderr_formula():
    est = mc_power("split", [0.1], 100, 0.1, reps=500, rng=RngStream(3))
    assert est.stderr == pytest.approx(
        math.sqrt(est.value * (1.0 - est.value) / 500), rel=1e-12
    )


def test_power_estimate_validation():
    with pytest.raises(DomainError):
        PowerEstimate(1.5, 0.0, "exact_noncentral")
    with pytest.raises(DomainError):
        PowerEstimate(0.5, -0.1, "monte_carlo")


@pytest.mark.parametrize("method", ["exact", "approx"])
@pytest.mark.parametrize("power", [power_classical, power_limiting_subsampling])
def test_power_refuses_an_overflowing_noncentrality(power, method):
    """n * theta_sq_norm = 1e311 overflows to inf: the refusal names both inputs."""
    with pytest.raises(DomainError, match=r"^noncentrality n \* theta_sq_norm overflows "
                                          r"at n=1000, theta_sq_norm=1e\+308$"):
        power(1e308, 1000, 2, 0.1, method)


@pytest.mark.parametrize("power", [power_classical, power_limiting_subsampling])
def test_largest_accepted_noncentrality_gives_approximate_power_one(power):
    """The normal approximation divides by sqrt(2 (d + 2 lambda)), finite
    up to lambda = max / 4: there it reads 1, one ulp above it is refused."""
    n, top = 1000, sys.float_info.max / 4.0
    theta_sq_norm = top / n
    while n * theta_sq_norm <= top:
        theta_sq_norm = math.nextafter(theta_sq_norm, math.inf)
    while not n * theta_sq_norm <= top:
        theta_sq_norm = math.nextafter(theta_sq_norm, 0.0)
    assert power(theta_sq_norm, n, 2, 0.1, "approx").value == 1.0
    with pytest.raises(DomainError, match=r"^noncentrality n \* theta_sq_norm overflows"):
        power(math.nextafter(theta_sq_norm, math.inf), n, 2, 0.1, "approx")


@pytest.mark.parametrize("theta_sq_norm, method, message", [
    (-0.5, "exact", "theta_sq_norm must be finite and >= 0, got -0.5"),
    (0.5, "bogus", "method must be 'exact' or 'approx', got 'bogus'"),
], ids=["negative-theta", "unknown-method"])
@pytest.mark.parametrize("power", [power_classical, power_limiting_subsampling])
def test_power_refuses_a_negative_theta_or_an_unknown_method(power, theta_sq_norm, method, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        power(theta_sq_norm, 1000, 2, 0.1, method)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_mc_power_refuses_non_finite_theta(theta):
    with pytest.raises(DomainError, match="theta must be finite"):
        mc_power("split", [theta], 100, 0.1, reps=50, rng=RngStream(1))


@pytest.mark.parametrize("counts", [dict(reps=2.5), dict(B=2.5), dict(reps=True), dict(B="3"),
                                    dict(reps=np.float64(10.0))],
                         ids=["reps-float", "B-float", "reps-bool", "B-str", "reps-numpy-float"])
def test_mc_power_refuses_non_integer_counts(counts):
    """A count that is not an integer is a DomainError, as one below 1 is,
    not a TypeError from deep inside the run."""
    args = dict(reps=10, B=2, rng=RngStream(1)) | counts
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        mc_power("subsampling", [0.0, 0.0], 100, 0.1, **args)


def test_mc_power_argument_validation():
    with pytest.raises(DomainError):
        mc_power("bogus", [0.0], 100, 0.1, reps=10, rng=RngStream(1))
    with pytest.raises(DomainError):
        mc_power("split", [0.0], 100, 0.1, reps=0, rng=RngStream(1))
    with pytest.raises(DomainError):
        mc_power("split", [0.0], 100, 0.1, reps=10, rng=None)


@pytest.mark.parametrize("lam", [0.0, 4.0, 12.0])
@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_mc_classical_power_matches_its_exact_law(d, lam):
    """The Monte Carlo classical test, the one that coverage reads, against
    its noncentral chi-squared law at n ||theta||^2 = lam: 4000 replications
    at n = 100 on seed 2800 + 100 d + lam, within 4 standard errors."""
    n, reps = 100, 4000
    theta = math.sqrt(lam / (n * d)) * np.ones(d)
    exact = power_classical(lam / n, n, d, 0.1).value
    est = mc_power("classical", theta, n, 0.1, reps=reps, rng=RngStream(2800 + 100 * d + int(lam)))
    assert abs(est.value - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / reps)
