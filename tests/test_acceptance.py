"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Statistical criteria use their stated tolerance bands
(3 standard errors unless the criterion says otherwise) with pinned seeds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ulrt import data, engine, regions, specfun
from ulrt._kernels import split_means
from ulrt.doughnut import AnnulusNull, subsampled_doughnut_test
from ulrt.power import mc_power, power_classical, power_limiting_subsampling
from ulrt.rng import RngStream, batch_normals

WORKERS = 2


@contextmanager
def criterion(number: int, title: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} FAIL ({time.time() - start:6.1f}s): {title}")
        raise
    print(f"criterion {number:>2} PASS ({time.time() - start:6.1f}s): {title}")


def binomial_se(p: float, reps: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / reps)


# ---------------------------------------------------------------------------
# 1. coverage validity
# ---------------------------------------------------------------------------


def test_criterion_01_coverage_validity():
    with criterion(1, "coverage validity at n=100, alpha=0.1, d in {1,2,10}"):
        rows = engine.coverage_suite(
            [1, 2, 10], 100, 0.1, 5000, 50, RngStream(1001), workers=WORKERS
        )
        for row in rows:
            method = row.cell["method"]
            if method == "classical":
                assert 0.887 <= row.estimate <= 0.913, (row.cell, row.estimate)
            else:
                assert row.estimate >= 0.887, (row.cell, row.estimate)


# ---------------------------------------------------------------------------
# 2. e-variable bound
# ---------------------------------------------------------------------------


def test_criterion_02_e_variable_bound():
    with criterion(2, "mean split statistic at the true mean stays below 1"):
        n, d, reps = 20, 2, 50_000
        k = data.part_size(n, 0.5)
        root = RngStream(1002)
        chunk = 2000
        values = np.empty(reps)
        for lo in range(0, reps, chunk):
            hi = min(lo + chunk, reps)
            block = batch_normals(root.substream_keys(lo, hi, child=0), n * d).reshape(-1, n, d)
            keys = root.substream_keys(lo, hi, child=1, grandchildren=1)
            mean0, mean1 = split_means(block, keys, k)
            delta = np.sum(np.square(mean0[:, 0, :] - mean1[:, 0, :]), axis=1)
            log_t = 0.5 * k * (np.sum(np.square(mean0[:, 0, :]), axis=1) - delta)
            values[lo:hi] = np.exp(log_t)
        mc_se = values.std(ddof=1) / math.sqrt(reps)
        assert values.mean() <= 1.0 + 3.0 * mc_se, (values.mean(), mc_se)


# ---------------------------------------------------------------------------
# 3. limiting-statistic approximation (figure 2 regime)
# ---------------------------------------------------------------------------


def test_criterion_03_subsampling_limit_approximation():
    with criterion(3, "subsampled statistic tracks its analytic limit, d=1, n=1000"):
        spec = engine.build_spec("approx_fig2", 1003, ds=[1], ns=[1000], B=20_000)
        rows = engine.run(spec, workers=WORKERS)
        assert len(rows) == 21
        for row in rows:
            ratio = row.estimate / row.cell["analytic"]
            assert 0.9 <= ratio <= 1.1, (row.cell["c"], ratio)


# ---------------------------------------------------------------------------
# 4. optimal split proportion
# ---------------------------------------------------------------------------


def golden_section_min(fn, lo=1e-4, hi=1.0 - 1e-4, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > tol:
        a = hi - invphi * (hi - lo)
        b = lo + invphi * (hi - lo)
        if fn(a) < fn(b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


def test_criterion_04_optimal_split_proportion():
    with criterion(4, "optimal split proportion: closed form, limits, Monte Carlo"):
        for alpha in (0.1, 0.01, 1e-4):
            L = math.log(1.0 / alpha)
            for d in (1, 2, 10, 100):
                oracle = golden_section_min(
                    lambda p: (2.0 / p) * L + (1.0 / p + 1.0 / (1.0 - p)) * d
                )
                closed = regions.optimal_split_proportion(alpha, d)
                assert abs(closed - oracle) <= 1e-6, (alpha, d, closed, oracle)
        assert 0.499 <= regions.optimal_split_proportion(0.1, 10**8) <= 0.501
        p0_star = regions.optimal_split_proportion(0.1, 100)
        spec = engine.build_spec(
            "split_p0_fig3", 1004, ds=[100], p0s=[0.3, 0.4, 0.5, p0_star, 0.7], reps=1000
        )
        rows = engine.run(spec, workers=WORKERS)
        assert len(rows) == 5
        for row in rows:
            gap = abs(row.estimate - row.cell["analytic"])
            assert gap <= 3.0 * row.stderr, (row.cell["p0"], gap, row.stderr)


# ---------------------------------------------------------------------------
# 5. cross-fit containment and volume
# ---------------------------------------------------------------------------


def test_criterion_05_crossfit_containment_and_area():
    with criterion(5, "cross-fit set sits inside the recentered split ball"):
        n, d, alpha = 100, 2, 0.1
        k = data.part_size(n, 0.5)
        L = regions.log_threshold(alpha)
        root = RngStream(1005)
        reps, probes = 10_000, 100
        chunk = 1000
        member_count = 0
        for lo in range(0, reps, chunk):
            hi = min(lo + chunk, reps)
            block = batch_normals(root.substream_keys(lo, hi, child=0), n * d).reshape(-1, n, d)
            keys = root.substream_keys(lo, hi, child=1, grandchildren=1)
            mean0, mean1 = split_means(block, keys, k)
            mean0, mean1 = mean0[:, 0, :], mean1[:, 0, :]
            overall = block.mean(axis=1)
            delta = np.sum(np.square(mean0 - mean1), axis=1)
            ball_sq = (4.0 / n) * L + delta
            # probe cloud around the overall mean, scaled to the ball radius
            c = hi - lo
            offsets = batch_normals(root.substream_keys(lo, hi, child=2), probes * d)
            offsets = offsets.reshape(c, probes, d)
            thetas = overall[:, None, :] + offsets * (
                0.75 * np.sqrt(ball_sq)[:, None, None]
            )
            log_f = 0.5 * k * (
                np.sum(np.square(thetas - mean0[:, None, :]), axis=2) - delta[:, None]
            )
            log_s = 0.5 * (n - k) * (
                np.sum(np.square(thetas - mean1[:, None, :]), axis=2) - delta[:, None]
            )
            log_cf = np.logaddexp(log_f, log_s) - math.log(2.0)
            member = log_cf < L
            member_count += int(member.sum())
            dist_sq = np.sum(np.square(thetas - overall[:, None, :]), axis=2)
            assert np.all(dist_sq[member] < ball_sq[:, None].repeat(probes, 1)[member])
        assert member_count > 10_000  # the probes genuinely exercise membership

        # polygon area comparison on 100 seeded datasets
        for r in range(100):
            rep = RngStream(2005).substream(r)
            sample = data.sample_gaussian(n, d, np.zeros(d), rep.substream(0))
            pair = data.split(sample, 0.5, rep.substream(1))
            split_reg = regions.split_region(pair, alpha)
            search = 10.0 * math.sqrt(split_reg.sq_radius)
            cf = regions.region_boundary_2d(
                regions.crossfit_margin(pair, alpha), sample.mean, 90, 1e-6, search
            )
            split_poly = regions.region_boundary_2d(
                split_reg.contains, split_reg.center, 90, 1e-6, search
            )
            assert cf.failed_angles.size == 0
            assert cf.polygon_area() <= split_poly.polygon_area() + 1e-9


# ---------------------------------------------------------------------------
# 6. probability the squared-radius ratio stays below 4
# ---------------------------------------------------------------------------


def test_criterion_06_ratio_probability_bounds():
    with criterion(6, "P(ratio <= 4) inside its bounds at d in {2,10,100}"):
        spec = engine.build_spec("ratio_prob_fig5", 1006, ds=[2, 10, 100], reps=10_000)
        rows = engine.run(spec, workers=WORKERS)
        for row in rows:
            assert row.cell["condition_ok"]
            se = row.stderr
            assert row.cell["lower"] - 3.0 * se <= row.estimate <= row.cell["upper"] + 3.0 * se, (
                row.cell["d"], row.estimate, row.cell["lower"], row.cell["upper"]
            )


def test_fig5_agrees_with_its_exact_law():
    """At m0 = m1 = n/2, ratio <= 4 holds exactly when ||mean0 - mean1||^2,
    which is (4/n) chi2_d, is at most (4/n) (c - L), with c the upper alpha
    quantile and L = ln(1/alpha): P(ratio <= 4) = F_{chi2_d}(c - L).  Default
    fig5 at seed 3 lies within 4 standard errors of it, taken from the exact
    p, at every d."""
    spec = engine.build_spec("ratio_prob_fig5", 3)
    for row in engine.run(spec, workers=WORKERS):
        d, alpha, reps = row.cell["d"], row.cell["alpha"], row.cell["reps"]
        p = specfun.chi2_cdf(specfun.chi2_upper_quantile(alpha, d) + math.log(alpha), d)
        assert row.reps_used == reps == 10_000
        z = (row.estimate - p) / math.sqrt(p * (1.0 - p) / reps)
        assert abs(z) <= 4.0, (d, row.estimate, p, z)


# ---------------------------------------------------------------------------
# 7. ratio asymptotics at the formula level
# ---------------------------------------------------------------------------


def test_criterion_07_ratio_asymptotics():
    with criterion(7, "bound expressions at extreme dimension and level"):
        lower, upper, ok = regions.ratio_bounds(0.1, 10**8)
        assert ok
        assert abs(lower - 4.0) <= 0.004 and abs(upper - 4.0) <= 0.004
        lower2, upper2, ok2 = regions.ratio_bounds_log(1e8, 2)
        assert ok2
        assert abs(lower2 - 2.0) <= 0.01 and abs(upper2 - 2.0) <= 0.01
        constant = regions.LIMITING_VS_CLASSICAL_HIGH_DIM
        assert abs(constant - 1.52715) <= 1e-5


# ---------------------------------------------------------------------------
# 8. power ordering (figure 6 regime)
# ---------------------------------------------------------------------------


def test_criterion_08_power_ordering():
    with criterion(8, "power ordering classical >= subsampling >= cross-fit >= split"):
        n, d, alpha, reps, B = 1000, 2, 0.1, 2000, 100
        exact_size = power_classical(0.0, n, d, alpha, method="exact")
        assert abs(exact_size.value - alpha) <= 1e-8

        for lam in (50.0, 60.0, 100.0, 200.0):
            for fn in (power_classical, power_limiting_subsampling):
                exact = fn(lam / n, n, d, alpha, method="exact").value
                approx = fn(lam / n, n, d, alpha, method="approx").value
                assert abs(exact - approx) <= 0.03, (fn.__name__, lam)

        def mc_se_floor(value: float, count: int) -> float:
            # Laplace-smoothed binomial se keeps saturated estimates comparable
            smoothed = (value * count + 1.0) / (count + 2.0)
            return math.sqrt(smoothed * (1.0 - smoothed) / count)

        root = RngStream(1008)
        for i, lam in enumerate((4.0, 8.0, 15.0, 25.0, 40.0, 60.0)):
            theta = math.sqrt(lam / (n * d)) * np.ones(d)
            classical = power_classical(lam / n, n, d, alpha).value
            estimates = {"classical": (classical, 0.0)}
            for j, kind in enumerate(("subsampling", "crossfit", "split")):
                est = mc_power(
                    kind, theta, n, alpha, B=B, reps=reps,
                    rng=root.substream(3 * i + j), workers=WORKERS,
                )
                estimates[kind] = (est.value, max(est.stderr, mc_se_floor(est.value, reps)))
            order = ("classical", "subsampling", "crossfit", "split")
            for a, b in zip(order, order[1:]):
                va, sa = estimates[a]
                vb, sb = estimates[b]
                pooled = math.sqrt(sa * sa + sb * sb)
                assert va >= vb - 2.0 * pooled, (lam, a, b, estimates)


# ---------------------------------------------------------------------------
# 9. annulus-null tests (figure 7 and the supplementary cases)
# ---------------------------------------------------------------------------


def test_criterion_09_doughnut():
    with criterion(9, "annulus tests: size, exact power, degenerate regimes"):
        n, alpha, B, reps = 1000, 0.1, 100, 1000
        null = AnnulusNull()

        # type I error for all three methods across the null
        spec = engine.build_spec(
            "doughnut_fig7", 1009, ds=[2, 10], theta_norms=[0.5, 0.75, 1.0],
            B=B, reps=reps,
        )
        rows = engine.run(spec, workers=WORKERS)
        for row in rows:
            if row.cell["method"] == "intersection_exact":
                assert row.estimate <= alpha + 1e-9
                continue
            bound = alpha + 3.0 * binomial_se(alpha, reps)
            assert row.estimate <= bound, (row.cell, row.estimate, bound)

        # Monte Carlo intersection power against the exact formula at d=2
        spec = engine.build_spec(
            "intersect_power_figS3", 2009, ds=[2],
            theta_norms=[0.0, 0.3, 1.1, 1.5], reps=2000,
        )
        rows = engine.run(spec, workers=WORKERS)
        exact_by_theta = {
            row.cell["theta_norm"]: row.estimate
            for row in rows
            if row.cell["method"] == "exact"
        }
        for row in rows:
            if row.cell["method"] != "mc":
                continue
            exact = exact_by_theta[row.cell["theta_norm"]]
            se = max(row.stderr, binomial_se(max(exact, 1e-4), 2000))
            assert abs(row.estimate - exact) <= 3.0 * se, (row.cell, row.estimate, exact)

        # hybrid rejection frequency collapses at theta*=0, d=100
        spec = engine.build_spec(
            "hybrid_cases_figS4", 3009, ds=[100], theta_norms=[0.0], B=B, reps=reps
        )
        rows = engine.run(spec, workers=WORKERS)
        power_row = next(r for r in rows if r.cell["quantity"] == "power")
        assert power_row.estimate <= 0.01, power_row.estimate

        # case fractions at theta*=0, d=1000: every subsample picks the
        # boundary-projection case, and the projection statistic dominates
        sample = data.sample_gaussian(n, 1000, np.zeros(1000), RngStream(4009))
        hybrid = subsampled_doughnut_test(sample, null, alpha, B, "hybrid", RngStream(5009))
        assert hybrid.case_fractions == (0.0, 0.0, 1.0)
        assert np.all(hybrid.cases == 2)
        split_run = subsampled_doughnut_test(sample, null, alpha, B, "split", RngStream(5009))
        assert np.all(hybrid.log_values >= split_run.log_values - 1e-10)

        # dominance holds in every ripr-case subsample met across the grid
        root = RngStream(6009)
        ripr_seen = 0
        for i, (d, theta_norm) in enumerate(
            [(2, 1.0), (2, 1.2), (10, 1.0), (10, 1.3), (100, 0.0)]
        ):
            theta = np.zeros(d)
            theta[0] = theta_norm
            rep = root.substream(i)
            sample = data.sample_gaussian(n, d, theta, rep.substream(0))
            hybrid = subsampled_doughnut_test(sample, null, alpha, B, "hybrid", rep.substream(1))
            split_run = subsampled_doughnut_test(sample, null, alpha, B, "split", rep.substream(1))
            mask = hybrid.cases == 2
            ripr_seen += int(mask.sum())
            assert np.all(hybrid.log_values[mask] >= split_run.log_values[mask] - 1e-10)
        assert ripr_seen > 0


# ---------------------------------------------------------------------------
# 10. special-function oracles
# ---------------------------------------------------------------------------


def test_criterion_10_special_function_oracles():
    with criterion(10, "quantile round trip, noncentral MC oracle, Inglot sandwich"):
        for d in (1, 2, 5, 10, 50, 100):
            for alpha in (0.5, 0.1, 0.01, 1e-6):
                c = specfun.chi2_upper_quantile(alpha, d)
                assert abs(specfun.chi2_cdf(c, d) - (1.0 - alpha)) <= 1e-8
                if d >= 2 and alpha <= 0.17:
                    L = math.log(1.0 / alpha)
                    assert d + 2.0 * L - 2.5 <= c <= d + 2.0 * L + 2.0 * math.sqrt(d * L)

        points = [
            (110.0, 100, 10.0), (5.0, 2, 3.0), (12.0, 10, 4.0), (1.5, 1, 0.8),
            (30.0, 20, 15.0), (75.0, 50, 20.0), (150.0, 100, 50.0), (20.0, 5, 12.0),
            (8.0, 3, 6.0), (1002.0, 2, 1000.0),
        ]
        oracle_rng = np.random.default_rng(987654321)
        draws_total = 1_000_000
        for x, d, lam in points:
            mu = np.zeros(d)
            mu[0] = math.sqrt(lam)
            hits = 0
            block = 200_000
            for lo in range(0, draws_total, block):
                z = oracle_rng.standard_normal((block, d)) + mu
                hits += int((np.square(z).sum(axis=1) <= x).sum())
            p_hat = hits / draws_total
            se = binomial_se(p_hat, draws_total)
            mine = specfun.noncentral_chi2_cdf(x, d, lam)
            assert abs(mine - p_hat) <= 3.0 * se, ((x, d, lam), mine, p_hat)


# ---------------------------------------------------------------------------
# 11. determinism across worker counts
# ---------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical CSV across repeated runs and worker counts"):
        texts = []
        for workers in (1, 8, 1, 8):
            spec = engine.build_spec("ratio_prob_fig5", 1011, ds=[2, 10], reps=500)
            rows = engine.run(spec, workers=workers)
            path = tmp_path / f"run_{len(texts)}.csv"
            engine.rows_to_csv(rows, path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2] == texts[3]

        spec = engine.build_spec(
            "doughnut_fig7", 1011, ds=[2], theta_norms=[1.2], reps=100, B=20
        )
        a = engine.run(spec, workers=1)
        b = engine.run(spec, workers=8)
        assert [r.estimate for r in a] == [r.estimate for r in b]
