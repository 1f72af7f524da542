"""Estimator and oracle tests.

The grid-maximum transfer-operator oracle is validated three independent ways
(closed form at one step, brute-force Monte Carlo at small N, and the
corrected-diffusion shift at large N) before it is trusted as the
matched-discretization reference for the raw estimator.  Conditional
estimators are checked against the exact theta-series/product-Laplace oracle.
"""

import json

import numpy as np
import pytest

import smallball as sb
from smallball.mc import McConfig, logcosh

COSH_ORACLE_AT_1 = 0.6775678055260783  # (cosh sqrt 2)^(-1/2)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.sup_bm_grid_cdf(-1.0, 16)
        with pytest.raises(ValueError):
            sb.sup_bm_grid_cdf(0.5, 0)


class TestRawSmallball:
    def test_full_event_is_certain(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=2000, n_steps=64, seed=1)
        est = sb.estimate_smallball_raw(sb.BrownianProcess(), part, 50.0, cfg)
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_matches_grid_oracle(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=100_000, n_steps=256, seed=2)
        for eps in (0.5, 1.0):
            est = sb.estimate_smallball_raw(sb.BrownianProcess(), part, eps, cfg)
            exact = sb.sup_bm_grid_cdf(eps, 256)
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_monotone_in_window_width(self):
        cfg = McConfig(samples=20_000, n_steps=128, seed=3)
        vals = []
        for b in (0.4, 0.6, 0.9):
            part = sb.Partition((1.0,), windows=((0.0, b),))
            vals.append(sb.estimate_smallball_raw(sb.BrownianProcess(), part, 1.0, cfg).estimate)
        # same seed couples the paths, so monotonicity is exact
        assert vals[0] < vals[1] < vals[2]

    def test_joint_window_event(self):
        part = sb.Partition((0.5, 1.0), windows=((0.0, 0.8), (0.8, 1.6)))
        cfg = McConfig(samples=20_000, n_steps=128, seed=4)
        est = sb.estimate_smallball_raw(sb.BrownianProcess(), part, 1.0, cfg)
        assert 0.0 < est.estimate < 1.0

    def test_zero_hits_clopper_pearson(self):
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=500, n_steps=64, seed=5)
        est = sb.estimate_smallball_raw(sb.BrownianProcess(), part, 0.01, cfg)
        assert est.zero_hits
        assert est.estimate == 0.0
        assert est.std_error == pytest.approx(1.0 - 0.05 ** (1.0 / 500), rel=1e-12)

    def test_requires_windows(self):
        cfg = McConfig(samples=100, n_steps=64, seed=0)
        with pytest.raises(ValueError):
            sb.estimate_smallball_raw(sb.BrownianProcess(), sb.Partition((1.0,)), 1.0, cfg)
        with pytest.raises(ValueError):
            sb.estimate_smallball_raw(
                sb.BrownianProcess(), sb.Partition((1.0,), windows=((0.0, 1.0),)), -1.0, cfg
            )
        with pytest.raises(ValueError):
            sb.probe_smallball_raw(sb.BrownianProcess(), sb.Partition((1.0,)), (1.0, 0.5), cfg)
        for eps_grid in ((1.0, 0.0), (0.5, -1.0, 2.0), ()):
            with pytest.raises(ValueError):
                sb.probe_smallball_raw(
                    sb.BrownianProcess(), sb.Partition((1.0,), windows=((0.0, 1.0),)), eps_grid, cfg
                )

    def test_probe_matches_single_eps_estimator(self):
        # one set of sups serves every eps, in any order; each column must be
        # the standalone estimate bit for bit, zero-hit flag included
        part = sb.Partition((0.5, 1.0), windows=((0.0, 0.8), (0.8, 1.6)))
        cfg = McConfig(samples=2500, n_steps=64, seed=19, batch_size=1000)  # three batches, the last short
        eps_grid = (1.0, 0.01, 2.0)
        probes = sb.probe_smallball_raw(sb.BrownianProcess(), part, eps_grid, cfg)
        singles = [sb.estimate_smallball_raw(sb.BrownianProcess(), part, eps, cfg) for eps in eps_grid]
        assert probes == singles
        assert [r.zero_hits for r in probes] == [False, True, False]


class TestConditionalSmallball:
    def test_deterministic_clock_zero_variance(self):
        cfg = McConfig(samples=200, n_steps=64, seed=6)
        c = 0.7
        est = sb.estimate_smallball_conditional(lambda n, g: np.full(n, c), 1.0, 0.4, cfg)
        assert est.estimate == pytest.approx(sb.sup_bm_cdf(0.4 / np.sqrt(c)), rel=1e-14)
        assert est.std_error < 1e-10  # analytically zero; float cancellation residue
        # across many batches the merge must not amplify rounding: a sum of
        # squares formula leaves an SE of ~1e-12 here
        cfg = McConfig(samples=100_000, n_steps=64, seed=6, batch_size=700)
        c = 0.37
        est = sb.estimate_smallball_conditional(lambda n, g: np.full(n, c), 1.0, 0.3, cfg)
        assert est.estimate == pytest.approx(sb.sup_bm_cdf(0.3 / np.sqrt(c)), rel=1e-14)
        assert est.std_error <= 1e-15 * est.estimate

    def test_precomputed_sample_input(self):
        samples = np.array([0.5, 1.0, 2.0])
        cfg = McConfig(samples=3, n_steps=64, seed=7)
        est = sb.estimate_smallball_conditional(samples, 1.0, 0.5, cfg)
        want = np.mean(sb.sup_bm_cdf(0.5 / np.sqrt(samples)))
        assert est.estimate == pytest.approx(want, rel=1e-14)
        assert est.samples == 3

    def test_bad_clock_samples_rejected(self):
        # arrays, callables and simulated clocks share one check, and NaN fails it
        cfg = McConfig(samples=3, n_steps=64, seed=7)
        for clock in (np.array([0.5, np.nan]), lambda n, g: np.full(n, -1.0), lambda n, g: np.full(n, np.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                sb.estimate_smallball_conditional(clock, 1.0, 0.5, cfg)

    def test_large_eps_saturates(self):
        spec = sb.ChaosClockSpec((1.0,))
        cfg = McConfig(samples=500, n_steps=128, seed=8)
        assert sb.estimate_smallball_conditional(spec, 1.0, 40.0, cfg).estimate > 0.999999

    def test_matches_exact_chaos_oracle(self):
        spec = sb.ChaosClockSpec((1.0,))
        cfg = McConfig(samples=20_000, n_steps=1024, seed=9)
        for eps in (0.3, 0.5):
            est = sb.estimate_smallball_conditional(spec, 1.0, eps, cfg)
            exact = sb.oracle_smallball_chaos(eps, 1.0, spec.q)
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_raw_estimator_converges_from_above(self):
        # the raw estimator takes sups over the grid, which undershoot the true
        # sup, so its window probability exceeds the conditional (exact-in-B)
        # one by an O(sqrt h) deficit; comparisons must stay matched-resolution
        spec = sb.ChaosClockSpec((1.0,))
        eps = 0.3
        exact = sb.oracle_smallball_chaos(eps, 1.0, spec.q)
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        deficits = []
        for i, n_steps in enumerate((1024, 4096)):
            cfg = McConfig(samples=50_000, n_steps=n_steps, seed=10, stream_base=10 * i)
            est = sb.estimate_smallball_raw(sb.TimeChangedProcess(spec), part, eps, cfg)
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
            est_c = sb.estimate_smallball_conditional(spec, 1.0, eps, cfg)
            est_r = sb.estimate_smallball_raw(sb.TimeChangedProcess(spec), part, eps, cfg)
            assert est_c.std_error < est_r.std_error

    def test_variance_ratio_at_benchmark_point(self):
        # theoretical per-sample variance ratio raw/conditional at eps = 0.3 is
        # ~8.6 (computable from the product Laplace oracle); assert a safe floor
        spec = sb.ChaosClockSpec((1.0,))
        part = sb.Partition((1.0,), windows=((0.0, 1.0),))
        cfg = McConfig(samples=20_000, n_steps=512, seed=12)
        est_c = sb.estimate_smallball_conditional(spec, 1.0, 0.3, cfg)
        est_r = sb.estimate_smallball_raw(sb.TimeChangedProcess(spec), part, 0.3, cfg)
        ratio = est_r.std_error**2 / est_c.std_error**2
        assert ratio > 6.0


class TestLaplaceEstimation:
    def test_lambda_zero_is_one(self):
        cfg = McConfig(samples=200, n_steps=64, seed=13)
        est = sb.estimate_laplace(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), 0.0, cfg)
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
            est = sb.estimate_laplace(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), lam, cfg)
            exact = sb.oracle_laplace_intbm2(lam, 1.0)
            assert abs(est.estimate - exact) < 4 * est.std_error

    def test_weighted_functional(self):
        part = sb.Partition((1.0, 2.0), weights=(2.0, 1.0))
        cfg = McConfig(samples=2000, n_steps=256, seed=16)
        est = sb.estimate_laplace(sb.ChaosClockSpec((0.5,)), part, 1.0, cfg)
        assert 0.0 < est.estimate < 1.0

    def test_negative_lambda_rejected(self):
        cfg = McConfig(samples=10, n_steps=64, seed=0)
        with pytest.raises(ValueError):
            sb.estimate_laplace(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), -1.0, cfg)


_CHAOS = sb.ChaosClockSpec((0.5, 0.25))
_WINDOW = sb.Partition((1.0,), windows=((0.0, 1.0),))
_ESTIMATORS = {
    "estimate_laplace": lambda cfg: [sb.estimate_laplace(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), 2.0, cfg)],
    "estimate_laplace_multi": lambda cfg: sb.estimate_laplace_multi(
        sb.PowerClockSpec(2.0), sb.Partition((0.5, 1.0), weights=(2.0, 1.0)), (0.5, 2.0, 8.0), cfg
    ),
    "estimate_smallball_raw": lambda cfg: [sb.estimate_smallball_raw(sb.TimeChangedProcess(_CHAOS), _WINDOW, 0.6, cfg)],
    "estimate_smallball_conditional": lambda cfg: [sb.estimate_smallball_conditional(_CHAOS, 1.0, 0.3, cfg)],
    "probe_smallball_conditional": lambda cfg: list(
        sb.probe_smallball_conditional(_CHAOS, 1.0, (0.5, 0.3, 0.2), cfg).results
    ),
    "probe_smallball_raw": lambda cfg: sb.probe_smallball_raw(sb.TimeChangedProcess(_CHAOS), _WINDOW, (0.6, 0.4, 0.8), cfg),
}


class TestWorkerInvariance:
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_workers_do_not_change_results(self, name):
        # seven batches, the last one short, spread over two threads
        cfg = McConfig(samples=3000, n_steps=128, seed=17, batch_size=450)
        serial = _ESTIMATORS[name](cfg)
        threaded = _ESTIMATORS[name](McConfig(samples=3000, n_steps=128, seed=17, batch_size=450, workers=2))
        assert [(r.estimate, r.std_error) for r in serial] == [(r.estimate, r.std_error) for r in threaded]
        assert all(r.samples == 3000 and r.std_error > 0 for r in serial)


class TestOracles:
    def test_intbm2_frozen_value(self):
        assert sb.oracle_laplace_intbm2(0.0, 1.0) == 1.0
        assert sb.oracle_laplace_intbm2(1.0, 1.0) == pytest.approx(COSH_ORACLE_AT_1, rel=1e-14)

    def test_intbm2_slope_asymptote(self):
        # -lambda^(-1/2) log E -> t/sqrt(2); ties the p = 2 clock constant 1/8
        # to the Laplace-side constant via the Tauberian conversion
        lam = 1e8
        slope = -sb.log_oracle_laplace_intbm2(lam, 1.0) / np.sqrt(lam)
        assert slope == pytest.approx(2.0 ** -0.5, abs=1e-3)
        want = sb.tauberian_forward(sb.AsymptoticOrder(1.0, 0.0, 0.125)).big_l
        assert slope == pytest.approx(want, abs=1e-3)

    def test_overflow_safe(self):
        v = sb.log_oracle_laplace_intbm2(1e12, 1.0)
        assert np.isfinite(v)
        assert sb.oracle_laplace_intbm2(1e12, 1.0) == 0.0  # clean underflow

    def test_chaos_product_structure(self):
        # one pair equals two independent squared-Brownian factors
        assert sb.oracle_laplace_chaos(3.0, 1.0, [1.0]) == pytest.approx(
            sb.oracle_laplace_intbm2(3.0, 1.0) ** 2, rel=1e-14
        )
        q = [0.5, 0.25, 0.125]
        manual = -sum(float(logcosh(qq * np.sqrt(6.0))) for qq in q)
        assert sb.log_oracle_laplace_chaos(3.0, 1.0, q) == pytest.approx(manual, rel=1e-14)

    def test_smallball_chaos_limits(self):
        q = [0.5]
        assert sb.oracle_smallball_chaos(50.0, 1.0, q) == pytest.approx(1.0, abs=1e-13)
        small = sb.oracle_smallball_chaos(0.1, 1.0, q)
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
            return float(np.sum(0.5 * logcosh(np.sqrt(2.0 * lam * weights)))) / np.sqrt(lam)

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
        ext = sb.extract_constant(sb.ProbeGrid(eps, results), (1.0, 0.0))
        assert ext.k_hat == pytest.approx([k] * 5, rel=1e-12)
        assert ext.extrapolated == pytest.approx(k, rel=1e-10)

    def test_perturbed_model_extrapolates_through(self):
        # P = exp(-K/eps)(1 + eps): K_hat = K - eps log(1+eps) = K - eps^2 + ...
        eps = (0.4, 0.3, 0.2, 0.15, 0.1)
        k = 0.5
        results = tuple(sb.EstimateResult(np.exp(-k / e) * (1 + e), 0.0, 1, 0) for e in eps)
        ext = sb.extract_constant(sb.ProbeGrid(eps, results), (1.0, 0.0))
        assert abs(ext.extrapolated - k) < 2 * max(eps[-3:]) ** 2
        assert ext.gaps_non_increasing

    def test_plain_float_fields(self):
        # numpy scalars would print as np.float64(...) in detail lines
        eps = (0.4, 0.3, 0.2)
        results = tuple(sb.EstimateResult(np.exp(-0.5 / e), 0.0, 1, 0) for e in eps)
        ext = sb.extract_constant(sb.ProbeGrid(eps, results), (1.0, 0.0))
        for values in (ext.epsilons, ext.k_hat, ext.gaps):
            assert all(type(x) is float for x in values)
        assert type(ext.extrapolated) is float

    def test_nonpositive_estimates_dropped(self):
        eps = (0.4, 0.3, 0.2, 0.15)
        results = (
            sb.EstimateResult(0.5, 0.0, 1, 0),
            sb.EstimateResult(0.0, 0.0, 1, 0, zero_hits=True),
            sb.EstimateResult(0.2, 0.0, 1, 0),
            sb.EstimateResult(0.1, 0.0, 1, 0),
        )
        ext = sb.extract_constant(sb.ProbeGrid(eps, results), (1.0, 0.0))
        assert ext.dropped == (1,)
        assert len(ext.k_hat) == 3

    def test_needs_three_valid_points(self):
        eps = (0.4, 0.3)
        results = tuple(sb.EstimateResult(0.5, 0.0, 1, 0) for _ in eps)
        with pytest.raises(ValueError):
            sb.extract_constant(sb.ProbeGrid(eps, results), (1.0, 0.0))

    def test_probe_grid_validation(self):
        with pytest.raises(ValueError):
            sb.ProbeGrid((0.1, 0.2), (sb.EstimateResult(0.5, 0, 1, 0),) * 2)  # increasing
        with pytest.raises(ValueError):
            sb.ProbeGrid((0.2, 0.1), (sb.EstimateResult(0.5, 0, 1, 0),))  # length

    def test_probe_matches_single_eps_estimator(self):
        # the shared-clock probe reproduces the standalone estimator exactly
        spec = sb.ChaosClockSpec((0.5,))
        cfg = McConfig(samples=3000, n_steps=256, seed=18)
        grid = sb.probe_smallball_conditional(spec, 1.0, (0.5, 0.3), cfg)
        single = sb.estimate_smallball_conditional(spec, 1.0, 0.3, cfg)
        assert grid.results[1].estimate == single.estimate
        assert grid.results[1].std_error == single.std_error


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
        parsed = json.loads(est.to_json("laplace", {"lambda": 2.0}))
        assert parsed["estimate"] == 0.25

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError):
            McConfig(n_steps=1)
        with pytest.raises(ValueError):
            McConfig(workers=0)
        assert McConfig(n_steps=2**14).effective_batch == 256
