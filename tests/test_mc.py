"""Estimator and oracle tests.

The grid-maximum transfer-operator oracle is validated three independent ways
(closed form at one step, brute-force Monte Carlo at small N, and the
corrected-diffusion shift at large N) before it is trusted as the
matched-discretization reference for the raw estimator.  Conditional
estimators are checked against the exact theta-series/product-Laplace oracle.
"""

import sys
import threading
import time

import numpy as np
import pytest

import smallball as sb
from smallball import mc, paths
from smallball.mc import McConfig

COSH_ORACLE_AT_1 = 0.6775678055260783  # (cosh sqrt 2)^(-1/2)
_BM2 = sb.PowerClockSpec(2.0)  # C(t) = int_0^t B^2 ds


class TestGridSupOracle:
    def test_single_step_closed_form(self):
        from scipy.stats import norm

        for eps in (0.5, 1.0, 2.0):
            want = norm.cdf(eps) - norm.cdf(-eps)
            # quadrature error scales like points_per_sigma^-2
            assert sb.sup_bm_grid_cdf(eps, 1, points_per_sigma=256) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("n_steps,eps", [(16, 0.5), (16, 1.0), (64, 0.8)])
    def test_matches_brute_force_mc(self, n_steps, eps):
        n = 200_000
        gen = sb.RngStream(100, n_steps).generator()
        steps = gen.standard_normal((n, n_steps)) * np.sqrt(1.0 / n_steps)
        m = np.abs(np.cumsum(steps, axis=1)).max(axis=1)
        p_hat = (m <= eps).mean()
        se = np.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - sb.sup_bm_grid_cdf(eps, n_steps)) < 4 * se

    def test_quadrature_refinement_converges(self):
        coarse = sb.sup_bm_grid_cdf(0.5, 256, points_per_sigma=8)
        fine = sb.sup_bm_grid_cdf(0.5, 256, points_per_sigma=32)
        assert abs(coarse - fine) < 5e-5

    def test_corrected_diffusion_agreement_at_large_n(self):
        # independent route: grid max ~ continuous sup shifted by 0.5826 sqrt(h)
        for eps in (0.5, 1.0):
            grid = sb.sup_bm_grid_cdf(eps, 4096)
            shifted = sb.sup_bm_cdf(eps + 0.5826 * np.sqrt(1.0 / 4096))
            assert abs(grid - shifted) < 2e-4

    def test_exceeds_continuous_law(self):
        # grid sup underestimates the true sup, so its CDF sits above
        for n_steps in (64, 1024):
            assert sb.sup_bm_grid_cdf(0.7, n_steps) > sb.sup_bm_cdf(0.7)

    @pytest.mark.parametrize("n_steps", [1, 2, 64, 256])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0, 2.0])
    def test_matches_dense_matrix_power(self, eps, n_steps):
        # the same midpoint grid and killed kernel, powered as a dense m x m
        # matrix; at eps = 0.05 and N <= 2 the grid is at its floor of 8 points
        sig = np.sqrt(1.0 / n_steps)
        m = max(8, int(np.ceil(2.0 * eps * 16.0 / sig)))
        delta = 2.0 * eps / m
        x = -eps + (np.arange(m) + 0.5) * delta

        def phi(d):
            return np.exp(-d * d / (2.0 * sig * sig)) / (np.sqrt(2.0 * np.pi) * sig)

        kernel = delta * phi(x[:, None] - x[None, :])
        want = delta * (np.linalg.matrix_power(kernel, n_steps - 1) @ phi(x)).sum()
        assert sb.sup_bm_grid_cdf(eps, n_steps) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        "eps,n_steps", [(0.5, 64), (0.5, 128), (0.5, 256), (0.5, 512), (0.5, 1024), (0.5, 2048), (0.5, 4096), (3.0, 4096)]
    )
    def test_tridiagonal_ritz_pairs_match_dense_eigh(self, monkeypatch, eps, n_steps):
        # the Ritz pairs come from the Lanczos tridiagonal; a dense eigensolve
        # of the same k x k matrix gives the same law
        import scipy.linalg

        fast = sb.sup_bm_grid_cdf(eps, n_steps)
        monkeypatch.setattr(
            scipy.linalg, "eigh_tridiagonal", lambda a, b: np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
        )
        assert fast == pytest.approx(sb.sup_bm_grid_cdf(eps, n_steps), rel=1e-12)

    def test_frozen_values(self):
        # values of the (N - 1)-step FFT iteration the Lanczos evaluation replaced
        assert sb.sup_bm_grid_cdf(0.5, 512) == pytest.approx(0.0146469899529994, rel=1e-11)
        assert sb.sup_bm_grid_cdf(0.5, 4096) == pytest.approx(0.0109050945368937, rel=1e-11)

    def test_underflowing_first_estimates_do_not_stop_it(self):
        # at N = 16384 the first Ritz values raised to N - 1 underflow to 0.0, so
        # two successive estimates agree only if they are compared in logs
        for eps in (0.5, 1.0):
            grid = sb.sup_bm_grid_cdf(eps, 16384)
            shifted = sb.sup_bm_cdf(eps + 0.5826 * np.sqrt(1.0 / 16384))
            assert abs(grid - shifted) < 1e-4 * shifted

    def test_stop_rule_survives_ritz_value_jitter(self, monkeypatch):
        # one ulp of theta_max moves the estimate by up to (N - 1) eps relative;
        # moving every Ritz value by +1, -2, +2 or -1 ulp, a different one at
        # each step, must not keep the evaluation from converging
        import scipy.linalg
        from smallball import mc

        eigh = scipy.linalg.eigh_tridiagonal
        eps, n_steps = 0.5, 4096

        def run(ulps):
            steps = []

            def jittered(a, b):
                steps.append(len(a))
                theta, s = eigh(a, b)
                return theta + ulps[len(a) % len(ulps)] * np.spacing(theta), s

            monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", jittered)
            return sb.sup_bm_grid_cdf(eps, n_steps), len(steps)

        plain, plain_steps = run((0,))
        value, steps = run((1, -2, 2, -1))
        assert plain_steps <= 33 and steps <= plain_steps + 2
        tol = mc._LANCZOS_ULPS * (n_steps - 1) * np.finfo(float).eps
        assert value == pytest.approx(plain, rel=tol)

    def test_unconverged_raises(self, monkeypatch):
        from smallball import mc

        monkeypatch.setattr(mc, "_LANCZOS_MAX_STEPS", 3)
        with pytest.raises(sb.NumericError, match="did not converge in 3 Lanczos steps"):
            sb.sup_bm_grid_cdf(0.5, 512)
        assert sb.sup_bm_grid_cdf(0.05, 2) > 0  # exact at k = N, before the cap

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.sup_bm_grid_cdf(-1.0, 16)
        with pytest.raises(ValueError):
            sb.sup_bm_grid_cdf(0.5, 0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="points_per_sigma"):
                sb.sup_bm_grid_cdf(0.5, 64, points_per_sigma=bad)
            with pytest.raises(ValueError, match="horizon"):
                sb.sup_bm_grid_cdf(0.5, 64, horizon=bad)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                sb.sup_bm_grid_cdf(bad, 64)


class TestRawSmallball:
    def test_full_event_is_certain(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=2000, n_steps=64, seed=1)
        est = sb.probe_smallball_raw(sb.BrownianProcess(), part, (50.0,), cfg)[0]
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_matches_grid_oracle(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=100_000, n_steps=256, seed=2)
        for eps in (0.5, 1.0):
            est = sb.probe_smallball_raw(sb.BrownianProcess(), part, (eps,), cfg)[0]
            exact = sb.sup_bm_grid_cdf(eps, 256)
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_monotone_in_window_width(self):
        cfg = McConfig(samples=20_000, n_steps=128, seed=3)
        vals = []
        for b in (0.4, 0.6, 0.9):
            part = sb.Partition((1.0,), windows=((0.0, b),))
            vals.append(sb.probe_smallball_raw(sb.BrownianProcess(), part, (1.0,), cfg)[0].estimate)
        # same seed couples the paths, so monotonicity is exact
        assert vals[0] < vals[1] < vals[2]

    def test_joint_window_event(self):
        part = sb.Partition((0.5, 1.0), windows=((0.0, 0.8), (0.8, 1.6)))
        cfg = McConfig(samples=20_000, n_steps=128, seed=4)
        est = sb.probe_smallball_raw(sb.BrownianProcess(), part, (1.0,), cfg)[0]
        assert 0.0 < est.estimate < 1.0

    def test_zero_hits_clopper_pearson(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=500, n_steps=64, seed=5)
        est = sb.probe_smallball_raw(sb.BrownianProcess(), part, (0.01,), cfg)[0]
        assert est.zero_hits
        assert est.estimate == 0.0
        assert est.std_error == pytest.approx(1.0 - 0.05 ** (1.0 / 500), rel=1e-12)

    def test_requires_windows(self):
        cfg = McConfig(samples=100, n_steps=64, seed=0)
        with pytest.raises(ValueError):
            sb.probe_smallball_raw(sb.BrownianProcess(), sb.Partition((1.0,)), (1.0,), cfg)
        with pytest.raises(ValueError):
            sb.probe_smallball_raw(sb.BrownianProcess(), sb.Partition((1.0,), windows=((0.0, 1.0),)), (-1.0,), cfg)
        with pytest.raises(ValueError):
            sb.probe_smallball_raw(sb.BrownianProcess(), sb.Partition((1.0,)), (1.0, 0.5), cfg)
        for eps_grid in ((1.0, 0.0), (0.5, -1.0, 2.0), (), (np.nan,), (1.0, np.inf)):
            with pytest.raises(ValueError):
                sb.probe_smallball_raw(
                    sb.BrownianProcess(), sb.Partition((1.0,), windows=((0.0, 1.0),)), eps_grid, cfg
                )

    def test_probe_matches_single_eps_estimator(self):
        # one set of sups serves every eps, in any order; each column must be
        # the standalone estimate bit for bit, zero-hit flag included
        part = sb.Partition((0.5, 1.0), windows=((0.0, 0.8), (0.8, 1.6)))
        cfg = McConfig(samples=2500, n_steps=2048, seed=19)  # batches of 1024, 1024 and 452
        eps_grid = (1.0, 0.01, 2.0)
        probes = sb.probe_smallball_raw(sb.BrownianProcess(), part, eps_grid, cfg)
        singles = [sb.probe_smallball_raw(sb.BrownianProcess(), part, (eps,), cfg)[0] for eps in eps_grid]
        assert probes == singles
        assert [r.zero_hits for r in probes] == [False, True, False]


class TestConditionalSmallball:
    def test_deterministic_clock_zero_variance(self):
        # a zero weight freezes the clock at 0, so Z stays at 0 and every
        # probe is certain
        cfg = McConfig(samples=600, n_steps=64, seed=6)
        probes = sb.probe_smallball_conditional(sb.PowerClockSpec(2.0, rho=0.0), 1.0, (0.4, 0.1, 1e-3), cfg)
        assert [(r.estimate, r.std_error, r.samples) for r in probes] == [(1.0, 0.0, 600)] * 3

    def test_probe_grid_in_any_order(self):
        # every eps is its own column, so permuting the grid, or repeating an
        # eps, permutes the results bit for bit
        cfg = McConfig(samples=3000, n_steps=2048, seed=20)  # batches of 1024, 1024 and 952
        probes = sb.probe_smallball_conditional(_CHAOS, 1.0, (0.5, 0.3, 0.2), cfg)
        permuted = sb.probe_smallball_conditional(_CHAOS, 1.0, (0.2, 0.5, 0.2, 0.3), cfg)
        assert permuted == [probes[2], probes[0], probes[2], probes[1]]

    def test_non_finite_eps_rejected(self):
        cfg = McConfig(samples=3, n_steps=64, seed=7)
        for eps_grid in ((np.nan,), (np.inf, 0.5), (0.5, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                sb.probe_smallball_conditional(sb.ChaosClockSpec((1.0,)), 1.0, eps_grid, cfg)

    def test_empty_eps_grid_rejected(self):
        cfg = McConfig(samples=3, n_steps=64, seed=7)
        with pytest.raises(ValueError, match="at least one eps"):
            sb.probe_smallball_conditional(sb.ChaosClockSpec((1.0,)), 1.0, (), cfg)
        with pytest.raises(ValueError, match="at least one eps"):
            sb.probe_smallball_raw(sb.BrownianProcess(), _WINDOW, (), cfg)

    def test_bad_clock_samples_rejected(self):
        # |B|^2000 overflows over a long horizon; the path sampler's finiteness
        # check reports it instead of a probability read off inf
        cfg = McConfig(samples=10, n_steps=64, seed=7)
        with pytest.raises(sb.NumericError, match="not finite"):
            sb.probe_smallball_conditional(sb.PowerClockSpec(2000.0), 100.0, (0.5,), cfg)

    def test_large_eps_saturates(self):
        spec = sb.ChaosClockSpec((1.0,))
        cfg = McConfig(samples=500, n_steps=128, seed=8)
        assert sb.probe_smallball_conditional(spec, 1.0, (40.0,), cfg)[0].estimate > 0.999999

    def test_matches_exact_chaos_oracle(self):
        spec = sb.ChaosClockSpec((1.0,))
        cfg = McConfig(samples=20_000, n_steps=1024, seed=9)
        for eps in (0.3, 0.5):
            est = sb.probe_smallball_conditional(spec, 1.0, (eps,), cfg)[0]
            exact = np.exp(sb.log_smallball(spec, 1.0, (eps,))[0])
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_raw_estimator_converges_from_above(self):
        # the raw estimator takes sups over the grid, which undershoot the true
        # sup, so its window probability exceeds the conditional (exact-in-B)
        # one by an O(sqrt h) deficit; comparisons must stay matched-resolution
        spec = sb.ChaosClockSpec((1.0,))
        eps = 0.3
        exact = np.exp(sb.log_smallball(spec, 1.0, (eps,))[0])
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        deficits = []
        for i, n_steps in enumerate((1024, 4096)):
            cfg = McConfig(samples=50_000, n_steps=n_steps, seed=10, stream_base=10 * i, workers=2)
            est = sb.probe_smallball_raw(sb.TimeChangedProcess(spec), part, (eps,), cfg)[0]
            deficits.append((est.estimate - exact, est.std_error))
        # positive bias, clearly resolved (true deficit ~ +24% at N=1024,
        # ~ +12% at N=4096), shrinking like sqrt(h)
        assert deficits[0][0] > 3 * deficits[0][1]
        assert deficits[1][0] > 0
        assert deficits[1][0] < 0.8 * deficits[0][0]

    def test_rao_blackwell_variance_reduction(self):
        spec = sb.ChaosClockSpec((1.0,))
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        n = 4000
        for eps in (0.3, 0.4, 0.5):
            cfg = McConfig(samples=n, n_steps=512, seed=11)
            est_c = sb.probe_smallball_conditional(spec, 1.0, (eps,), cfg)[0]
            est_r = sb.probe_smallball_raw(sb.TimeChangedProcess(spec), part, (eps,), cfg)[0]
            assert est_c.std_error < est_r.std_error

    def test_variance_ratio_at_benchmark_point(self):
        # theoretical per-sample variance ratio raw/conditional at eps = 0.3 is
        # ~8.6 (computable from the product Laplace oracle); assert a safe floor
        spec = sb.ChaosClockSpec((1.0,))
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=20_000, n_steps=512, seed=12)
        est_c = sb.probe_smallball_conditional(spec, 1.0, (0.3,), cfg)[0]
        est_r = sb.probe_smallball_raw(sb.TimeChangedProcess(spec), part, (0.3,), cfg)[0]
        ratio = est_r.std_error**2 / est_c.std_error**2
        assert ratio > 6.0


class TestLaplaceEstimation:
    def test_lambda_zero_is_one(self):
        cfg = McConfig(samples=200, n_steps=64, seed=13)
        est = sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (0.0,), cfg)[0]
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_monotone_decreasing_in_lambda(self):
        cfg = McConfig(samples=5000, n_steps=256, seed=14)
        ests = sb.estimate_laplace_multi(
            sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (0.5, 1.0, 2.0, 4.0), cfg
        )
        vals = [e.estimate for e in ests]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # coupled samples: exact
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_matches_cosh_oracle(self):
        cfg = McConfig(samples=20_000, n_steps=4096, seed=15)
        for lam in (1.0, 5.0):
            est = sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (lam,), cfg)[0]
            exact = np.exp(sb.log_laplace(_BM2, 1.0, lam)[0])
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_weighted_functional(self):
        part = sb.Partition((1.0, 2.0), weights=(2.0, 1.0))
        cfg = McConfig(samples=2000, n_steps=256, seed=16)
        est = sb.estimate_laplace_multi(sb.ChaosClockSpec((0.5,)), part, (1.0,), cfg)[0]
        assert 0.0 < est.estimate < 1.0

    def test_negative_lambda_rejected(self):
        cfg = McConfig(samples=10, n_steps=64, seed=0)
        with pytest.raises(ValueError):
            sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (-1.0,), cfg)
        # NaN, inf and an empty list fail the same check
        for lams in ((1.0, np.nan), (1.0, np.inf), ()):
            with pytest.raises(ValueError, match="nonnegative"):
                sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), lams, cfg)


_CHAOS = sb.ChaosClockSpec((0.5, 0.25))
_P3 = sb.PowerClockSpec(3.0)
_WEIGHTED_ONE = sb.Partition((1.0,), weights=(3.0,))
_WINDOW = sb.Partition((1.0,), windows=((0.0, 1.0),))
_ESTIMATORS = {
    "estimate_laplace": lambda cfg: sb.estimate_laplace_multi(_BM2, sb.Partition((1.0,)), (2.0,), cfg),
    "estimate_laplace_multi": lambda cfg: sb.estimate_laplace_multi(
        sb.PowerClockSpec(2.0), sb.Partition((0.5, 1.0), weights=(2.0, 1.0)), (0.5, 2.0, 8.0), cfg
    ),
    "estimate_smallball_raw": lambda cfg: sb.probe_smallball_raw(sb.TimeChangedProcess(_CHAOS), _WINDOW, (0.6,), cfg),
    "estimate_smallball_conditional": lambda cfg: sb.probe_smallball_conditional(_CHAOS, 1.0, (0.3,), cfg),
    "probe_smallball_conditional": lambda cfg: sb.probe_smallball_conditional(_CHAOS, 1.0, (0.5, 0.3, 0.2), cfg),
    "probe_smallball_conditional_power": lambda cfg: sb.probe_smallball_conditional(
        sb.PowerClockSpec(2.0, rho=1.5), 1.0, (0.5, 0.3), cfg
    ),
    "probe_smallball_raw": lambda cfg: sb.probe_smallball_raw(sb.TimeChangedProcess(_CHAOS), _WINDOW, (0.6, 0.4, 0.8), cfg),
    "probe_smallball_raw_direct": lambda cfg: sb.probe_smallball_raw(
        sb.ChaosDirectProcess(_CHAOS), _WINDOW, (0.6, 0.4, 0.8), cfg
    ),
    # a clock without a spectrum: the estimators simulate its paths
    "probe_smallball_conditional_p3": lambda cfg: sb.probe_smallball_conditional(_P3, 1.0, (0.5, 0.3), cfg),
    "estimate_laplace_multi_p3": lambda cfg: sb.estimate_laplace_multi(_P3, _WEIGHTED_ONE, (0.5, 2.0), cfg),
}


# q_j = 2^-j, J = 50: the path samplers draw 14 terms and carry 36 by their
# moments (the clock's ramp, the direct sum's Gaussian), and the spectral draw
# carries its skipped atoms by a gamma; _CHAOS skips no term of the path samplers
_GEOMETRIC = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
_GEOMETRIC_ESTIMATORS = {
    "probe_smallball_conditional": lambda cfg: sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.5, 0.3, 0.2), cfg),
    "probe_smallball_raw": lambda cfg: sb.probe_smallball_raw(
        sb.TimeChangedProcess(_GEOMETRIC), _WINDOW, (0.6, 0.4, 0.8), cfg
    ),
    "probe_smallball_raw_direct": lambda cfg: sb.probe_smallball_raw(
        sb.ChaosDirectProcess(_GEOMETRIC), _WINDOW, (0.6, 0.4, 0.8), cfg
    ),
}


# one-interval spectral draws that skip atoms and draw their gamma carry at
# N = 512 and 2^14 (p = 2: 511 of 512 and 656 of 16384 modes; q_j = 2^-j:
# 978 of 25600 and 959 of 819200 atoms)
_TRUNCATED_SPECTRAL = {
    "estimate_laplace_multi_power": lambda cfg: sb.estimate_laplace_multi(
        sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (0.5, 2.0, 8.0), cfg
    ),
    "probe_smallball_conditional": lambda cfg: sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.5, 0.3, 0.2), cfg),
}


# randomized quasi-Monte Carlo spectral draws (nu = 1: p = 2 pairs, nu = 2:
# chaos atoms) in five layouts: (samples, N) = (600, 512) gives two batches
# of eight replicates of 37 or 38 rows; (1100, 2048) two batches of eight of
# 68 or 69; (5000, 2^14) nineteen batches of 256 and a remainder of 136, one
# replicate each; (12, 64) two batches of six one-point replicates; and
# (769, 2^14) three batches of four 64-point replicates and a one-row
# remainder batch
_RQMC = {
    "conditional_chaos": lambda cfg: sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.5, 0.3, 0.2), cfg),
    "conditional_power": lambda cfg: sb.probe_smallball_conditional(sb.PowerClockSpec(2.0, rho=1.5), 1.0, (0.5, 0.3), cfg),
    "laplace_chaos": lambda cfg: sb.estimate_laplace_multi(_GEOMETRIC, sb.Partition((1.0,)), (0.5, 2.0, 8.0), cfg),
    "laplace_power": lambda cfg: sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (0.5, 2.0, 8.0), cfg),
}


class TestWorkerInvariance:
    @staticmethod
    def assert_invariant(estimator, samples, n_steps):
        serial = estimator(McConfig(samples=samples, n_steps=n_steps, seed=17))
        threaded = estimator(McConfig(samples=samples, n_steps=n_steps, seed=17, workers=2))
        assert [(r.estimate, r.std_error) for r in serial] == [(r.estimate, r.std_error) for r in threaded]
        assert all(r.samples == samples and r.std_error > 0 for r in serial)

    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_workers_do_not_change_results(self, name):
        # batches of 1024, 1024 and 952, spread over two threads
        self.assert_invariant(_ESTIMATORS[name], 3000, 2048)

    @pytest.mark.parametrize("name", sorted(_GEOMETRIC_ESTIMATORS))
    def test_workers_do_not_change_compensated_draws(self, name):
        # two batches of 1200 over two threads, each in row blocks of 1024 and 176
        self.assert_invariant(_GEOMETRIC_ESTIMATORS[name], 2400, 128)

    @pytest.mark.parametrize("name", sorted(_TRUNCATED_SPECTRAL))
    @pytest.mark.parametrize("n_steps", [512, 2**14])
    def test_workers_do_not_change_truncated_spectral_draws(self, name, n_steps):
        # 600 samples: batches of 300 (N = 512) or 256, 256 and 88 (N = 2^14) over two threads
        self.assert_invariant(_TRUNCATED_SPECTRAL[name], 600, n_steps)

    @pytest.mark.parametrize("name", sorted(_RQMC))
    @pytest.mark.parametrize("samples, n_steps", [(600, 512), (1100, 2048), (5000, 2**14), (12, 64), (769, 2**14)])
    def test_workers_do_not_change_rqmc_draws(self, name, samples, n_steps):
        self.assert_invariant(_RQMC[name], samples, n_steps)

    def test_rqmc_layouts(self):
        def layout(samples, n_steps):
            sizes = mc._batch_sizes(McConfig(samples=samples, n_steps=n_steps))
            return [mc._replicate_sizes(b, len(sizes)).tolist() for b in sizes]

        assert layout(600, 512) == [[38] * 4 + [37] * 4] * 2
        assert layout(1100, 2048) == [[69] * 6 + [68] * 2] * 2
        assert layout(5000, 2**14) == [[256]] * 19 + [[136]]
        assert layout(12, 64) == [[1] * 6] * 2
        assert layout(769, 2**14) == [[64] * 4] * 3 + [[1]]


def _pool_threads() -> int:
    return sum(t.name.startswith("smallball-batch") for t in threading.enumerate())


def _overlapping_batches(workers):
    """Run `workers` batches that each wait until all of them run at once; a serial fall back times out."""
    together = threading.Barrier(workers, timeout=30)

    def sampler(sizes, gen):
        together.wait()
        return np.ones((len(sizes), 1))

    (r,) = mc._batched_moments(sampler, McConfig(samples=workers * 256, n_steps=2**14, workers=workers))
    assert r.samples == workers * 256


class TestSharedPool:
    def test_concurrent_callers_match_serial_calls(self):
        # two user threads share the process's batch pool, three batches each
        def probe(seed, workers):
            cfg = McConfig(samples=3000, n_steps=2048, seed=seed, workers=workers)
            return [(r.estimate, r.std_error) for r in sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.4, 0.2), cfg)]

        start = threading.Barrier(2, timeout=30)
        got = {}

        def caller(seed):
            start.wait()
            got[seed] = probe(seed, 2)

        callers = [threading.Thread(target=caller, args=(seed,)) for seed in (3, 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches while the lanes take batches
        try:
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert got == {seed: probe(seed, 1) for seed in (3, 4)}

    def test_pool_threads_do_not_grow_with_calls(self):
        counts = []
        for _ in range(4):
            for workers in (2, 3, 2):
                _overlapping_batches(workers)
                counts.append(_pool_threads())
        # two pool threads serve workers = 3 (no test asks for more), plus a
        # replaced one-thread pool's thread while it exits
        assert 0 < max(counts) <= 3
        deadline = time.monotonic() + 10
        while _pool_threads() > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _pool_threads() == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_batches_overlap(self, workers):
        _overlapping_batches(workers)

    def test_a_batch_error_reaches_the_caller_and_spares_the_pool(self):
        def sampler(sizes, gen):
            raise ValueError("bad batch")

        with pytest.raises(ValueError, match="bad batch"):
            mc._batched_moments(sampler, McConfig(samples=4 * 256, n_steps=2**14, workers=2))
        _overlapping_batches(2)

    def test_a_call_runs_at_most_workers_batches(self):
        lock = threading.Lock()
        active, peak = [0], [0]

        def sampler(sizes, gen):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.002)
            with lock:
                active[0] -= 1
            return np.ones((len(sizes), 1))

        for workers in (3, 2, 1):  # the pool keeps its three-worker size for the later calls
            peak[0] = 0
            mc._batched_moments(sampler, McConfig(samples=12 * 256, n_steps=2**14, workers=workers))
            assert 1 <= peak[0] <= workers


class TestReplicateStandardErrors:
    # 64 samples at N = 64: two batches of eight 4-point nets, so the standard
    # error comes from R = 16 replicate means and z = (est - law) / SE
    # follows Student's t with 15 degrees of freedom.  A standard error off by
    # a factor of two either way fails the same test.
    _POWER = sb.PowerClockSpec(2.0, rho=1.5)
    CASES = {
        "conditional_chaos": (
            lambda cfg: sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.8, 0.5), cfg),
            lambda: np.exp(sb.log_smallball(_GEOMETRIC, 1.0, (0.8, 0.5), 64)),
        ),
        "conditional_power": (
            lambda cfg: sb.probe_smallball_conditional(TestReplicateStandardErrors._POWER, 1.0, (1.5, 1.0), cfg),
            lambda: np.exp(sb.log_smallball(TestReplicateStandardErrors._POWER, 1.0, (1.5, 1.0), 64)),
        ),
        "laplace_chaos": (
            lambda cfg: sb.estimate_laplace_multi(_GEOMETRIC, sb.Partition((1.0,)), (1.0, 4.0), cfg),
            lambda: np.exp(sb.log_laplace(_GEOMETRIC, 1.0, (1.0, 4.0), 64)),
        ),
        "laplace_power": (
            lambda cfg: sb.estimate_laplace_multi(TestReplicateStandardErrors._POWER, sb.Partition((1.0,)), (0.5, 2.0), cfg),
            lambda: np.exp(sb.log_laplace(TestReplicateStandardErrors._POWER, 1.0, (0.5, 2.0), 64)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_z_follows_student_t(self, name):
        from scipy.stats import kstest

        estimator, law = self.CASES[name]
        exact = law()
        z = np.array(
            [[(r.estimate - e) / r.std_error for r, e in zip(estimator(McConfig(samples=64, n_steps=64, seed=s)), exact)]
             for s in range(300)]
        )
        for column in z.T:
            assert kstest(column, "t", args=(15,)).pvalue > 1e-3
            assert kstest(2.0 * column, "t", args=(15,)).pvalue < 1e-3
            assert kstest(0.5 * column, "t", args=(15,)).pvalue < 1e-3

    def test_one_row_replicates_are_plain_moments(self):
        # sums, divisions and products by one are exact: the bits of the plain
        # mean and sum of squared deviations, each column reduced on its own
        values = np.random.default_rng(3).random((37, 3))
        n, reps, mean, m2 = mc._batch_moments(values, np.ones(37, dtype=int))
        assert (n, reps) == (37, 37)
        cols = np.ascontiguousarray(values.T)
        plain = cols.sum(axis=1) / 37
        assert np.array_equal(mean, plain)
        assert np.array_equal(m2, np.square(cols - plain[:, None]).sum(axis=1))

    def test_replicate_moments(self):
        # M2 = sum_r n_r (mean_r - mean)^2 over replicates of 2, 3 and 2 rows
        values = np.array([[1.0], [3.0], [2.0], [2.0], [5.0], [0.0], [4.0]])
        n, reps, mean, m2 = mc._batch_moments(values, np.array([2, 3, 2]))
        assert (n, reps) == (7, 3)
        assert mean[0] == pytest.approx(17.0 / 7.0)
        want = 2 * (2.0 - 17 / 7) ** 2 + 3 * (3.0 - 17 / 7) ** 2 + 2 * (2.0 - 17 / 7) ** 2
        assert m2[0] == pytest.approx(want, rel=1e-14)

    def test_rqmc_beats_plain_monte_carlo(self):
        # the chaos-probe shape (512 samples at N = 512, 32-point nets): the
        # eps = 0.4 probe's variance falls by far more than 20x against the
        # i.i.d. draw with the same budget, read over 40 seeds each
        eps = (0.4,)
        draw = paths._terminal_law_sampler(_GEOMETRIC, 1.0, 512)
        rqmc = [sb.probe_smallball_conditional(_GEOMETRIC, 1.0, eps, McConfig(samples=512, n_steps=512, seed=s))[0].estimate
                for s in range(40)]
        iid = [mc._conditional_values(draw(np.ones(512, dtype=int), sb.RngStream(s, 0)), eps[0]).mean() for s in range(40)]
        assert np.var(iid, ddof=1) > 20.0 * np.var(rqmc, ddof=1)


class TestFrozenPlainRecords:
    # plain Monte Carlo records (one-row replicates): raw probes and
    # multi-interval Laplace estimates keep the bits they had before the
    # spectral draw became randomized quasi-Monte Carlo, and the estimators of
    # a clock without a spectrum, which simulate its paths, are pinned too;
    # the spectral draw's records at the benchmark shapes (multi-point nets
    # only) keep theirs since it became one form
    @pytest.mark.parametrize(
        "process, expected",
        [
            (
                sb.BrownianProcess(),
                [("0x1.70a3d70a3d70ap-5", "0x1.f02b444ae513bp-9"), ("0x1.0624dd2f1a9fcp-10", "0x1.2e98cc5a6c23cp-11")],
            ),
            (
                sb.ChaosDirectProcess(_CHAOS),
                [("0x1.121735ee402bbp-1", "0x1.2a6e743670654p-7"), ("0x1.df3b645a1cac1p-3", "0x1.faa82e664ff8dp-8")],
            ),
            (
                sb.TimeChangedProcess(_CHAOS),
                [("0x1.10b9af72015d8p-1", "0x1.2a8a4b8c8ac76p-7"), ("0x1.ead65b7a32847p-3", "0x1.fedad837eaa46p-8")],
            ),
            (
                sb.TimeChangedProcess(sb.PowerClockSpec(3.0)),
                [("0x1.1a9fbe76c8b44p-1", "0x1.298e9afc84645p-7"), ("0x1.7619f0fb38a95p-2", "0x1.201fb4130abb8p-7")],
            ),
        ],
        ids=["brownian", "chaos-direct", "chaos-time-change", "power-time-change"],
    )
    def test_raw_probe(self, process, expected):
        # each path kernel at a multi-block layout: batches of 1024, 1024 and
        # 952 rows in 64-row blocks at N = 2048
        cfg = McConfig(samples=3000, n_steps=2048, seed=33, workers=2)
        got = sb.probe_smallball_raw(process, _WINDOW, (0.6, 0.4), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == expected

    def test_multi_interval_laplace(self):
        cfg = McConfig(samples=2500, n_steps=512, seed=33, workers=2)
        got = sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((0.5, 1.0), weights=(2.0, 1.0)), (0.5, 2.0), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == [
            ("0x1.879a18d8f905ep-1", "0x1.ecc12166d567ap-9"),
            ("0x1.ca50553390e4ep-2", "0x1.6b6539cbe3c4bp-8"),
        ]

    def test_path_conditional_probe(self):
        # a clock without a spectrum simulates its paths: two batches of 350
        cfg = McConfig(samples=700, n_steps=128, seed=33, workers=2)
        got = sb.probe_smallball_conditional(_P3, 1.0, (0.5, 0.3), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == [
            ("0x1.da8e5cb57e5bap-2", "0x1.e05a6e8e3fad2p-7"),
            ("0x1.03b02f90cc5bdp-2", "0x1.90cb917fc524dp-7"),
        ]

    def test_path_one_interval_laplace(self):
        cfg = McConfig(samples=700, n_steps=128, seed=33, workers=2)
        got = sb.estimate_laplace_multi(_P3, _WEIGHTED_ONE, (0.5, 2.0), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == [
            ("0x1.3c2d4669c5688p-1", "0x1.87e1918065bbap-7"),
            ("0x1.62056936dd58ep-2", "0x1.909a82d35aa89p-7"),
        ]

    def test_conditional_probe_at_the_chaos_probe_shape(self):
        # two batches of eight 32-point nets
        cfg = McConfig(samples=512, n_steps=512, seed=33, workers=2)
        got = sb.probe_smallball_conditional(_GEOMETRIC, 1.0, (0.4, 0.2, 0.1), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == [
            ("0x1.9788928bc9304p-3", "0x1.c3922d69b3a7cp-11"),
            ("0x1.f5a9cde6d63c3p-8", "0x1.6811329428f6cp-12"),
            ("0x1.24bd183c42161p-19", "0x1.efafe327abe8dp-21"),
        ]

    def test_one_interval_laplace_at_the_power_laplace_shape(self):
        # four batches of four 64-point nets
        cfg = McConfig(samples=1024, n_steps=2**14, seed=33, workers=2)
        got = sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (1.0, 5.0, 10.0), cfg)
        assert [(r.estimate.hex(), r.std_error.hex()) for r in got] == [
            ("0x1.5aded740865cdp-1", "0x1.b800d4295145dp-11"),
            ("0x1.2a1bf68937608p-2", "0x1.23a828e88114cp-10"),
            ("0x1.388150fe17b55p-3", "0x1.2351b14eff9c2p-10"),
        ]


class TestBatchMerge:
    def test_constant_samples_merge_without_residue(self):
        # 391 batches (390 of 256 and one of 160): merging their moments must
        # not amplify rounding, where a sum-of-squares formula leaves an SE of
        # ~4e-10 relative
        cfg = McConfig(samples=100_000, n_steps=2**14, seed=6)
        assert len(mc._batch_sizes(cfg)) == 391
        c = 0.37
        (r,) = mc._batched_moments(lambda sizes, gen: np.full((len(sizes), 1), c), cfg)
        assert r.samples == 100_000
        assert r.estimate == pytest.approx(c, rel=1e-14)
        assert r.std_error <= 1e-15 * r.estimate


# Default batch layout: 512 samples at N = 512 split into two batches of 256.
_DEFAULT_LAYOUT = {
    "probe_smallball_conditional": lambda cfg: sb.probe_smallball_conditional(_CHAOS, 1.0, (0.5, 0.3, 0.2), cfg),
    "probe_smallball_raw": lambda cfg: sb.probe_smallball_raw(
        sb.ChaosDirectProcess(_CHAOS), _WINDOW, (0.6, 0.4, 0.8), cfg
    ),
    "estimate_laplace_multi": lambda cfg: sb.estimate_laplace_multi(_CHAOS, sb.Partition((1.0,)), (0.5, 2.0, 8.0), cfg),
}


class TestDefaultBatchLayout:
    def test_rule(self):
        assert McConfig(samples=512, n_steps=512).effective_batch == 256
        assert McConfig(samples=10**5, n_steps=512).effective_batch == 4096
        assert McConfig(samples=10**6, n_steps=512).effective_batch == 4096
        assert McConfig(samples=10**5, n_steps=2**14).effective_batch == 256
        assert McConfig(samples=2, n_steps=512).effective_batch == 1
        assert McConfig(samples=5001, n_steps=512).effective_batch == 2501

    @pytest.mark.parametrize("name", sorted(_DEFAULT_LAYOUT))
    def test_workers_do_not_change_results(self, name):
        serial = _DEFAULT_LAYOUT[name](McConfig(samples=512, n_steps=512, seed=19))
        threaded = _DEFAULT_LAYOUT[name](McConfig(samples=512, n_steps=512, seed=19, workers=2))
        assert [(r.estimate, r.std_error) for r in serial] == [(r.estimate, r.std_error) for r in threaded]
        assert all(r.samples == 512 and r.std_error > 0 for r in serial)

    def test_two_batch_probe_matches_matched_law(self):
        # 20 000 samples at N = 64 split into two batches of 10 000 (cap 32 768)
        q = (1.0, 0.5)
        cfg = McConfig(samples=20_000, n_steps=64, seed=47, workers=2)
        assert cfg.effective_batch == 10_000
        eps_grid = (0.8, 0.5)
        exact = np.exp(sb.log_smallball(sb.ChaosClockSpec(q), 1.0, eps_grid, 64))
        for p, est in zip(exact, sb.probe_smallball_conditional(sb.ChaosClockSpec(q), 1.0, eps_grid, cfg)):
            assert abs(est.estimate - p) < 4 * est.std_error


class TestOracles:
    def test_intbm2_frozen_value(self):
        at_0, at_1 = np.exp(sb.log_laplace(_BM2, 1.0, (0.0, 1.0)))
        assert at_0 == 1.0
        assert at_1 == pytest.approx(COSH_ORACLE_AT_1, rel=1e-14)

    def test_intbm2_slope_asymptote(self):
        # -lambda^(-1/2) log E -> t/sqrt(2); ties the p = 2 clock constant 1/8
        # to the Laplace-side constant via the Tauberian conversion
        lam = 1e8
        slope = -sb.log_laplace(_BM2, 1.0, lam)[0] / np.sqrt(lam)
        assert slope == pytest.approx(2.0 ** -0.5, abs=1e-3)
        want = sb.tauberian_forward(sb.AsymptoticOrder(1.0, 0.0, 0.125)).big_l
        assert slope == pytest.approx(want, abs=1e-3)

    def test_overflow_safe(self):
        v = sb.log_laplace(_BM2, 1.0, 1e12)[0]
        assert np.isfinite(v)
        assert np.exp(v) == 0.0  # clean underflow

    def test_chaos_product_structure(self):
        # one pair equals two independent squared-Brownian factors
        pair = sb.log_laplace(sb.ChaosClockSpec((1.0,)), 1.0, 3.0)[0]
        assert np.exp(pair) == pytest.approx(np.exp(sb.log_laplace(_BM2, 1.0, 3.0)[0]) ** 2, rel=1e-14)
        q = [0.5, 0.25, 0.125]
        manual = -sum(float(mc._logcosh(qq * np.sqrt(6.0))) for qq in q)
        assert sb.log_laplace(sb.ChaosClockSpec(q), 1.0, 3.0)[0] == pytest.approx(manual, rel=1e-14)

    def test_smallball_chaos_limits(self):
        large, small = np.exp(sb.log_smallball(sb.ChaosClockSpec([0.5]), 1.0, (50.0, 0.1)))
        assert large == pytest.approx(1.0, abs=1e-13)
        assert 0.0 < small < 1e-3

    def test_remark_sandwich_for_dominated_weights(self):
        # weights a_j <= geometric tilde a_j: the Laplace slope of the weighted
        # sum is bounded by the dominating sum's slope for every lambda, and
        # approaches its own additive asymptote from below
        sigma = 0.25
        j = np.arange(0, 41)
        a = sigma**j / (j + 1.0)
        a_dom = sigma**j.astype(float)
        lam = 1e8

        def slope(weights):
            return float(np.sum(0.5 * mc._logcosh(np.sqrt(2.0 * lam * weights)))) / np.sqrt(lam)

        lower_asymptote = 2.0 * np.sqrt(0.125) * np.sum(np.sqrt(a))
        assert slope(a) <= slope(a_dom)
        assert slope(a) <= lower_asymptote
        assert slope(a) >= 0.98 * lower_asymptote
        dom_asymptote = 2.0 * np.sqrt(0.125) * np.sum(np.sqrt(a_dom))
        assert slope(a_dom) == pytest.approx(dom_asymptote, rel=0.01)


class TestConstantExtraction:
    def test_exact_synthetic_model(self):
        eps = (0.4, 0.3, 0.2, 0.15, 0.1)
        k = 0.5
        results = tuple(sb.EstimateResult(np.exp(-k / e), 0.0, 1, 0) for e in eps)
        ext = sb.extract_constant(eps, results, (1.0, 0.0))
        assert ext.k_hat == pytest.approx([k] * 5, rel=1e-12)
        assert ext.extrapolated == pytest.approx(k, rel=1e-10)

    def test_perturbed_model_extrapolates_through(self):
        # P = exp(-K/eps)(1 + eps): K_hat = K - eps log(1+eps) = K - eps^2 + ...
        eps = (0.4, 0.3, 0.2, 0.15, 0.1)
        k = 0.5
        results = tuple(sb.EstimateResult(np.exp(-k / e) * (1 + e), 0.0, 1, 0) for e in eps)
        ext = sb.extract_constant(eps, results, (1.0, 0.0))
        assert abs(ext.extrapolated - k) < 2 * max(eps[-3:]) ** 2
        assert ext.gaps_non_increasing

    def test_plain_float_fields(self):
        # numpy scalars would print as np.float64(...) in detail lines
        eps = (0.4, 0.3, 0.2)
        results = tuple(sb.EstimateResult(np.exp(-0.5 / e), 0.0, 1, 0) for e in eps)
        ext = sb.extract_constant(eps, results, (1.0, 0.0))
        for values in (ext.epsilons, ext.k_hat, ext.gaps):
            assert all(type(x) is float for x in values)
        assert type(ext.extrapolated) is float

    def test_k_hat_standard_errors(self):
        # SE(K_hat) = eps^a |log eps|^b SE(p) / p at each kept point
        eps = (0.4, 0.3, 0.2, 0.15)
        results = (
            sb.EstimateResult(0.5, 0.02, 100, 0),
            sb.EstimateResult(0.0, 0.03, 100, 0, zero_hits=True),
            sb.EstimateResult(0.2, 0.01, 100, 0),
            sb.EstimateResult(0.05, 0.004, 100, 0),
        )
        ext = sb.extract_constant(eps, results, (2.0, 1.0))
        kept = [(e, r) for e, r in zip(eps, results) if r.estimate > 0]
        want = [e**2 * abs(np.log(e)) * r.std_error / r.estimate for e, r in kept]
        assert ext.k_hat_se == pytest.approx(want, rel=1e-14)
        assert all(type(x) is float for x in ext.k_hat_se)

    def test_nonpositive_estimates_dropped(self):
        eps = (0.4, 0.3, 0.2, 0.15)
        results = (
            sb.EstimateResult(0.5, 0.0, 1, 0),
            sb.EstimateResult(0.0, 0.0, 1, 0, zero_hits=True),
            sb.EstimateResult(0.2, 0.0, 1, 0),
            sb.EstimateResult(0.1, 0.0, 1, 0),
        )
        ext = sb.extract_constant(eps, results, (1.0, 0.0))
        assert ext.dropped == (1,)
        assert len(ext.k_hat) == 3

    def test_needs_three_valid_points(self):
        eps = (0.4, 0.3)
        results = tuple(sb.EstimateResult(0.5, 0.0, 1, 0) for _ in eps)
        with pytest.raises(ValueError):
            sb.extract_constant(eps, results, (1.0, 0.0))

    def test_probe_grid_validation(self):
        results = (sb.EstimateResult(0.5, 0, 1, 0),) * 3
        with pytest.raises(ValueError, match="strictly decreasing"):
            sb.extract_constant((0.3, 0.1, 0.2), results, (1.0, 0.0))
        with pytest.raises(ValueError, match="one result per epsilon"):
            sb.extract_constant((0.4, 0.3, 0.2, 0.1), results, (1.0, 0.0))

    def test_probe_matches_single_eps_estimator(self):
        # the shared-clock probe reproduces the standalone estimator exactly
        spec = sb.ChaosClockSpec((0.5,))
        cfg = McConfig(samples=3000, n_steps=256, seed=18)
        probes = sb.probe_smallball_conditional(spec, 1.0, (0.5, 0.3), cfg)
        assert probes[1] == sb.probe_smallball_conditional(spec, 1.0, (0.3,), cfg)[0]


class TestKsAndRecords:
    def test_identical_samples(self):
        x = np.arange(100.0)
        d, p = sb.ks_two_sample(x, x.copy())
        assert d == 0.0
        assert p == pytest.approx(1.0)

    def test_detects_shift(self):
        gen = sb.RngStream(200, 0).generator()
        x = gen.standard_normal(10_000)
        y = gen.standard_normal(10_000) + 0.5
        d, p = sb.ks_two_sample(x, y)
        assert p < 1e-6
        assert d > sb.ks_critical_value(10_000, 10_000, 0.01)

    def test_null_distribution_calibration(self):
        gen = sb.RngStream(201, 0).generator()
        rejections = 0
        for _ in range(40):
            x = gen.standard_normal(2000)
            y = gen.standard_normal(2000)
            d, _ = sb.ks_two_sample(x, y)
            rejections += d > sb.ks_critical_value(2000, 2000, 0.01)
        assert rejections <= 3  # 1% level; binomial(40, 0.01) rarely exceeds 3

    def test_critical_value_formula(self):
        assert sb.ks_critical_value(20_000, 20_000, 0.01) == pytest.approx(0.0162764, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sb.ks_two_sample([], [1.0])

    def test_record_schema(self):
        est = sb.EstimateResult(0.25, 0.01, 400, 42, 7)
        rec = est.record("laplace", {"lambda": 2.0})
        assert set(rec) == {"op", "params", "estimate", "stdError", "samples", "seed", "zeroHits"}
        assert rec["seed"] == 42
        assert rec["zeroHits"] is False
        assert sb.EstimateResult(0.0, 0.01, 400, 42, zero_hits=True).record("laplace", {})["zeroHits"] is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError, match="at least 2"):
            McConfig(samples=1)  # one sample would report a standard error of 0
        with pytest.raises(ValueError):
            McConfig(n_steps=1)
        with pytest.raises(ValueError):
            McConfig(workers=0)
        assert McConfig(n_steps=2**14).effective_batch == 256


def _dense_trapezoid_eigenvalues(n_steps, t):
    """Eigenvalues of h^2 (N - max(l, m) + 1/2), the trapezoid clock's covariance form."""
    from scipy.linalg import eigvalsh

    h = t / n_steps
    idx = np.arange(1, n_steps + 1)
    return eigvalsh(h * h * (n_steps - np.maximum.outer(idx, idx) + 0.5))


def _dense_log_laplace(lam, t, n_steps, spec):
    """log E exp(-lam C_N(t)) as a product over the dense eigenvalues."""
    mu = _dense_trapezoid_eigenvalues(n_steps, t)
    if isinstance(spec, sb.ChaosClockSpec):
        return -sum(np.log1p(2.0 * lam * qj * qj * mu).sum() for qj in spec.effective_q)
    return -0.5 * np.log1p(2.0 * lam * spec.rho**2 * mu).sum()


def _continuous_log_laplace(lam, t, spec):
    if isinstance(spec, sb.ChaosClockSpec):
        return sb.log_laplace(spec, t, lam)[0]
    return sb.log_laplace(_BM2, t, lam * spec.rho**2)[0]


_QUADRATIC_CLOCKS = [
    sb.ChaosClockSpec((1.0, 0.5)),
    sb.ChaosClockSpec(sb.geometric_q(0.5, 10)[:3]),
    sb.PowerClockSpec(2.0, rho=1.5),
]
_QUADRATIC_IDS = ["chaos", "truncated-chaos", "power"]


class TestMatchedLaplaceOracle:
    @pytest.mark.parametrize("n_steps", [2, 3, 8, 64])
    @pytest.mark.parametrize("spec", _QUADRATIC_CLOCKS, ids=_QUADRATIC_IDS)
    def test_equals_dense_eigenvalue_product(self, spec, n_steps):
        lams = (0.5, 3.0, 40.0)
        for lam, got in zip(lams, sb.log_laplace(spec, 1.5, lams, n_steps)):
            want = _dense_log_laplace(lam, 1.5, n_steps, spec)
            assert got == pytest.approx(want, rel=1e-12)
            assert np.exp(got) == pytest.approx(np.exp(want), rel=1e-12)

    @pytest.mark.parametrize(
        "spec", [sb.PowerClockSpec(2.0), sb.ChaosClockSpec(sb.geometric_q(0.5, 50))], ids=["power", "chaos"]
    )
    def test_approaches_continuous_oracle(self, spec):
        for lam in (1.0, 5.0, 10.0):
            cont = np.exp(_continuous_log_laplace(lam, 1.0, spec))
            gaps = [abs(np.exp(sb.log_laplace(spec, 1.0, lam, n)[0]) - cont) for n in (8, 64, 512)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-5

    def test_validation(self):
        assert np.exp(sb.log_laplace(_BM2, 1.0, 0.0, 8)[0]) == 1.0
        with pytest.raises(ValueError):
            sb.log_laplace(_BM2, 1.0, -1.0, 8)
        with pytest.raises(ValueError):
            sb.log_laplace(_BM2, 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            sb.log_laplace(_BM2, 1.0, np.nan, 8)
        with pytest.raises(ValueError):
            sb.log_laplace(_BM2, 1.0, np.nan)
        with pytest.raises(ValueError, match="at least one lambda"):
            sb.log_laplace(_BM2, 1.0, ())
        for spec in (sb.PowerClockSpec(1.0), sb.PowerClockSpec(2.0, rho=(1.0,))):
            for n_steps in (8, None):
                with pytest.raises(ValueError, match="no exact law for this clock"):
                    sb.log_laplace(spec, 1.0, 1.0, n_steps)
                with pytest.raises(ValueError, match="no exact law for this clock"):
                    sb.log_smallball(spec, 1.0, (0.5,), n_steps)


class TestSpectralClockEstimators:
    @pytest.mark.parametrize("spec", _QUADRATIC_CLOCKS, ids=_QUADRATIC_IDS)
    def test_one_interval_laplace_matches_matched_oracle(self, spec):
        # at N = 8 the matched and continuous laws are many SEs apart, so a
        # sampler drawing from a wrong spectrum fails the 4-SE band around the
        # dense-eigenvalue product
        cfg = McConfig(samples=1_000_000, n_steps=8, seed=44)
        ests = sb.estimate_laplace_multi(spec, sb.Partition((2.0,)), (1.0, 10.0), cfg)
        separations = []
        for lam, est in zip((1.0, 10.0), ests):
            matched = np.exp(_dense_log_laplace(lam, 2.0, 8, spec))
            assert abs(est.estimate - matched) < 4 * est.std_error
            separations.append(abs(np.exp(_continuous_log_laplace(lam, 2.0, spec)) - matched) / est.std_error)
        assert max(separations) > 8

    def test_trimmed_chaos_laplace_matches_matched_oracle(self):
        # the Exp(1) draws by inversion on the geometric clock's 14 drawn terms,
        # the other 36 carried by their mean
        q = sb.geometric_q(0.5, 50)
        cfg = McConfig(samples=100_000, n_steps=64, seed=54, workers=2)
        lams = (0.5, 2.0, 8.0)
        ests = sb.estimate_laplace_multi(sb.ChaosClockSpec(q), sb.Partition((1.0,)), lams, cfg)
        for exact, est in zip(np.exp(sb.log_laplace(sb.ChaosClockSpec(q), 1.0, lams, 64)), ests):
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_weighted_one_interval_scales_the_clock(self):
        spec = sb.ChaosClockSpec((1.0, 0.5))
        cfg = McConfig(samples=2000, n_steps=16, seed=45)
        weighted = sb.estimate_laplace_multi(spec, sb.Partition((1.0,), weights=(3.0,)), (1.0,), cfg)[0]
        plain = sb.estimate_laplace_multi(spec, sb.Partition((1.0,)), (3.0,), cfg)[0]
        assert weighted.estimate == plain.estimate

    def test_conditional_probes_match_matched_smallball_law(self):
        # P(sup |B(C_N)| <= eps) for the discrete clock: the theta series over
        # the dense-eigenvalue Laplace product
        spec = sb.ChaosClockSpec((1.0, 0.5))
        eps_grid = (0.8, 0.5)
        cfg = McConfig(samples=200_000, n_steps=8, seed=46)
        m = np.arange(60)
        for eps, est in zip(eps_grid, sb.probe_smallball_conditional(spec, 1.0, eps_grid, cfg)):
            lams = (2 * m + 1) ** 2 * np.pi**2 / (8.0 * eps * eps)
            terms = np.exp([_dense_log_laplace(lam, 1.0, 8, spec) for lam in lams])
            want = 4.0 / np.pi * np.sum(np.where(m % 2 == 0, 1.0, -1.0) / (2 * m + 1) * terms)
            assert abs(est.estimate - want) < 4 * est.std_error

    def test_trimmed_geometric_probe_matches_full_matched_law(self):
        # the sampler draws 14 of the 50 terms and carries the rest by their
        # mean; the oracle keeps all 50
        q = sb.geometric_q(0.5, 50)
        cfg = McConfig(samples=20_000, n_steps=64, seed=50, workers=2)
        eps_grid = (0.4, 0.2)
        exact = np.exp(sb.log_smallball(sb.ChaosClockSpec(q), 1.0, eps_grid, 64))
        for p, est in zip(exact, sb.probe_smallball_conditional(sb.ChaosClockSpec(q), 1.0, eps_grid, cfg)):
            assert abs(est.estimate - p) < 4 * est.std_error


class TestExactSmallballLaw:
    def test_geometric_clock_constant_to_second_order(self):
        # prod_{j>=1} cosh(x 2^-j) = sinh(x)/x (Levy's stochastic-area formula),
        # so K_hat(eps) = pi/2 - eps log(4/eps) + O(eps exp(-2 pi/eps))
        eps = np.geomspace(0.2, 1e-4, 12)
        k_hat = -eps * sb.log_smallball(sb.ChaosClockSpec(sb.geometric_q(0.5, 50)), 1.0, eps)
        assert k_hat == pytest.approx(np.pi / 2 - eps * np.log(4.0 / eps), abs=1e-12)

    def test_log_form_does_not_underflow(self):
        log_p = sb.log_smallball(sb.ChaosClockSpec(sb.geometric_q(0.5, 50)), 1.0, (0.002, 1e-4))
        assert np.exp(log_p[0]) == 0.0
        assert np.all(np.isfinite(log_p))

    def test_validation(self):
        spec = sb.ChaosClockSpec([1.0])
        for eps, n_steps in ((0.0, None), (-0.5, 8), (0.5, 0), (0.5, -4), (np.nan, None), (np.inf, 8)):
            with pytest.raises(ValueError):
                sb.log_smallball(spec, 1.0, (eps,), n_steps)
        with pytest.raises(ValueError):
            sb.log_smallball(spec, 0.0, (0.5,))
        with pytest.raises(ValueError, match="at least one eps"):
            sb.log_smallball(spec, 1.0, ())

    @pytest.mark.parametrize("n_steps", [None, 8])
    def test_eps_below_the_overflow_bound(self, n_steps):
        # lam_0 = pi^2 / (8 eps^2) overflows below eps ~ 1.8e-153: a usage
        # error about eps, not about lambda; just above, log P stays finite
        spec = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
        with pytest.raises(ValueError, match="eps"):
            sb.log_smallball(spec, 1.0, (1e-155,), n_steps)
        assert np.isfinite(sb.log_smallball(spec, 1.0, (1e-150,), n_steps)[0])

    @pytest.mark.parametrize("n_steps", [2, 8, 64])
    def test_matched_law_is_theta_over_dense_spectrum(self, n_steps):
        spec = sb.ChaosClockSpec((1.0, 0.5))
        m = np.arange(60)
        eps_grid = (1.5, 0.8, 0.3)
        for eps, got in zip(eps_grid, sb.log_smallball(spec, 1.0, eps_grid, n_steps)):
            lams = (2 * m + 1) ** 2 * np.pi**2 / (8.0 * eps * eps)
            terms = np.exp([_dense_log_laplace(lam, 1.0, n_steps, spec) for lam in lams])
            want = 4.0 / np.pi * np.sum(np.where(m % 2 == 0, 1.0, -1.0) / (2 * m + 1) * terms)
            assert np.exp(got) == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx(np.log(want), rel=1e-12)


_LAW_CLOCKS = [
    _BM2,
    sb.PowerClockSpec(2.0, rho=1.5),
    sb.ChaosClockSpec((1.0, 0.5)),
    sb.ChaosClockSpec(sb.geometric_q(0.5, 50)),
]
_LAW_IDS = ["power", "power-rho", "chaos", "geometric-chaos"]


class TestExactLawContract:
    @pytest.mark.parametrize("n_steps", [None, 8, 512, 2**14])
    @pytest.mark.parametrize("spec", _LAW_CLOCKS, ids=_LAW_IDS)
    def test_laplace_probes_in_any_order(self, spec, n_steps):
        # unsorted, with duplicates: one value per lambda, in input order,
        # each equal to its one-lambda call
        lams = (1e3, 0.0, 5.0, 1e8, 5.0, 1.0, 10.0, 0.0)
        got = sb.log_laplace(spec, 1.0, lams, n_steps)
        assert got.shape == (len(lams),)
        assert list(got) == [sb.log_laplace(spec, 1.0, lam, n_steps)[0] for lam in lams]

    @pytest.mark.parametrize("n_steps", [None, 64])
    @pytest.mark.parametrize("spec", _LAW_CLOCKS, ids=_LAW_IDS)
    def test_smallball_probes_in_any_order(self, spec, n_steps):
        eps_grid = (0.3, 0.8, 0.15, 0.3, 2.0)
        got = sb.log_smallball(spec, 1.0, eps_grid, n_steps)
        assert got.shape == (len(eps_grid),)
        assert list(got) == [sb.log_smallball(spec, 1.0, (eps,), n_steps)[0] for eps in eps_grid]

    def test_bench_aliases_are_contract_calls(self):
        # the benchmark looks these names up in mc; each is its contract
        # expression bit for bit, and none is exported
        q = sb.geometric_q(0.5, 50)
        chaos = sb.ChaosClockSpec(q)
        assert mc.log_oracle_laplace_intbm2(5.0, 1.5) == sb.log_laplace(_BM2, 1.5, 5.0)[0]
        assert mc.oracle_laplace_intbm2(5.0, 1.5) == np.exp(sb.log_laplace(_BM2, 1.5, 5.0)[0])
        assert mc.log_oracle_laplace_chaos(5.0, 1.5, q) == sb.log_laplace(chaos, 1.5, 5.0)[0]
        assert mc.oracle_laplace_chaos(5.0, 1.5, q) == np.exp(sb.log_laplace(chaos, 1.5, 5.0)[0])
        for n_steps in (None, 512):
            want = np.exp(sb.log_smallball(chaos, 1.0, (0.3,), n_steps)[0])
            assert mc.oracle_smallball_chaos(0.3, 1.0, q, n_steps) == want
        cfg = McConfig(samples=600, n_steps=64, seed=21)
        bm = sb.BrownianProcess()
        assert mc.estimate_smallball_raw(bm, _WINDOW, 0.8, cfg) == sb.probe_smallball_raw(bm, _WINDOW, (0.8,), cfg)[0]
        want = sb.probe_smallball_conditional(_CHAOS, 1.0, (0.3,), cfg)[0]
        assert mc.estimate_smallball_conditional(_CHAOS, 1.0, 0.3, cfg) == want
        part = sb.Partition((1.0,))
        assert mc.estimate_laplace(_CHAOS, part, 2.0, cfg) == sb.estimate_laplace_multi(_CHAOS, part, (2.0,), cfg)[0]
        aliases = {
            "estimate_smallball_raw", "estimate_smallball_conditional", "estimate_laplace",
            "log_oracle_laplace_intbm2", "oracle_laplace_intbm2", "log_oracle_laplace_chaos",
            "oracle_laplace_chaos", "oracle_smallball_chaos",
        }
        assert not aliases & set(mc.__all__)
        assert not aliases & set(dir(sb))

    def test_power_clock_smallball_matches_conditional_probes(self):
        # the p = 2 power clock's exact small-ball law at the sampled grid
        eps_grid = (0.5, 0.3, 0.2)
        cfg = McConfig(samples=20_000, n_steps=64, seed=56, workers=2)
        exact = np.exp(sb.log_smallball(_BM2, 1.0, eps_grid, cfg.n_steps))
        probes = sb.probe_smallball_conditional(_BM2, 1.0, eps_grid, cfg)
        zs = [(r.estimate - p) / r.std_error for r, p in zip(probes, exact)]
        assert max(map(abs, zs)) <= 3.0, zs
