"""Tests for the closed-form constants and conversions.

Expected values are frozen from independent computations: symbolic evaluation
of the closed forms, high-precision theta-series evaluation (two series
representations agree to 19 digits), and the Airy/harmonic-oscillator ground
state anchors.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smallball as sb
from smallball.asymptotics import _THETA_BLOCK, Partition, WeightSequenceSpec

# Frozen by 40-digit evaluation of the alternating theta series; the Gaussian
# reflection series gives the same digits.
SUP_CDF_AT_1 = 0.3707774297995239
SUP_CDF_AT_HALF = 0.0091569902897608


def rng():
    return np.random.default_rng(20240817)


class TestTauberian:
    def test_forward_examples(self):
        lo = sb.tauberian_forward(sb.AsymptoticOrder(1.0, 0.0, 0.125))
        assert lo.pow_exponent == 0.5
        assert lo.log_exponent == 0.0
        assert lo.big_l == pytest.approx(2.0 ** -0.5, rel=1e-14)

        assert sb.tauberian_forward(sb.AsymptoticOrder(1.0, 0.0, 0.25)).big_l == pytest.approx(1.0, rel=1e-14)

    def test_inverse_examples(self):
        ao = sb.tauberian_inverse(sb.LaplaceOrder(0.5, 0.0, 2.0 ** -0.5))
        assert (ao.alpha, ao.beta) == (1.0, 0.0)
        assert ao.big_k == pytest.approx(0.125, rel=1e-13)

        # K = alpha (L / (1+alpha))^(1+alpha) = (2/2)^2 = 1 at alpha = 1
        assert sb.tauberian_inverse(sb.LaplaceOrder(0.5, 0.0, 2.0)).big_k == pytest.approx(1.0, rel=1e-13)

    def test_round_trip_random_orders(self):
        r = rng()
        for _ in range(1000):
            o = sb.AsymptoticOrder(r.uniform(0.1, 5), r.uniform(-3, 3), 10.0 ** r.uniform(-3, 3))
            back = sb.tauberian_inverse(sb.tauberian_forward(o))
            assert back.alpha == pytest.approx(o.alpha, rel=1e-12)
            assert back.beta == pytest.approx(o.beta, rel=1e-12, abs=1e-12)
            assert back.big_k == pytest.approx(o.big_k, rel=1e-12)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            sb.AsymptoticOrder(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sb.AsymptoticOrder(1.0, 0.0, -2.0)
        with pytest.raises(ValueError):
            sb.LaplaceOrder(1.5, 0.0, 1.0)


class TestSupBmCdf:
    def test_frozen_values(self):
        assert sb.sup_bm_cdf(1.0) == pytest.approx(SUP_CDF_AT_1, abs=1e-14)
        assert sb.sup_bm_cdf(0.5) == pytest.approx(SUP_CDF_AT_HALF, abs=1e-14)

    def test_limits(self):
        assert sb.sup_bm_cdf(50.0) == 1.0
        assert sb.sup_bm_cdf(0.02) == 0.0  # underflow region; log form stays finite
        assert np.isfinite(sb.sup_bm_log_cdf(0.02))

    def test_strictly_increasing_log_scale(self):
        x = np.geomspace(1e-2, 10.0, 200)
        lf = sb.sup_bm_log_cdf(x)
        assert np.all(np.diff(lf) > 0)

    def test_two_sided_bounds(self):
        # classical sandwich (2/pi) e^{-pi^2/8x^2} <= F(x) <= (4/pi) e^{-pi^2/8x^2},
        # checked in log space so the underflow region is covered too
        x = np.geomspace(1e-2, 10.0, 120)
        lf = sb.sup_bm_log_cdf(x)
        expo = -np.pi**2 / (8 * x * x)
        assert np.all(lf >= np.log(2 / np.pi) + expo - 1e-12)
        assert np.all(lf <= np.log(4 / np.pi) + expo + 1e-12)

    def test_bounds_at_one(self):
        lo = (2 / np.pi) * np.exp(-np.pi**2 / 8)
        hi = (4 / np.pi) * np.exp(-np.pi**2 / 8)
        assert lo <= sb.sup_bm_cdf(1.0) <= hi

    def test_array_and_scalar_agree(self):
        # each value takes its own number of series terms, so no value depends
        # on the rest of the array, to the bit
        x = np.array([0.05, 0.3, 1.0, 1.9, 2.5])
        assert [float(v) for v in sb.sup_bm_log_cdf(x)] == [sb.sup_bm_log_cdf(v) for v in x]
        assert [float(v) for v in sb.sup_bm_cdf(x)] == [sb.sup_bm_cdf(v) for v in x]

    def test_matches_mpmath_at_term_count_boundaries(self):
        mpmath = pytest.importorskip("mpmath")
        from smallball.asymptotics import _THETA_TOL

        # term k of the reduced series joins where 4k(k+1)c < log(1/tol), c = pi^2/(8x^2);
        # the boundaries of k = 1..5 lie below x = 2, where the reflection series takes over
        c_edges = np.log(1.0 / _THETA_TOL) / (4.0 * np.arange(1, 6) * np.arange(2, 7))
        edges = np.r_[np.pi / np.sqrt(8.0 * c_edges), 2.0]
        x = np.sort(np.r_[edges * (1 - 1e-9), edges * (1 + 1e-9), np.nextafter(2.0, 0.0), 2.0, 0.05, 6.0])

        def log_cdf(v):
            v = mpmath.mpf(float(v))
            total, k = mpmath.mpf(0), 0
            while True:
                term = mpmath.exp(-((2 * k + 1) ** 2) * mpmath.pi**2 / (8 * v * v)) / (2 * k + 1)
                total += term if k % 2 == 0 else -term
                if term < mpmath.mpf(10) ** -45:
                    return float(mpmath.log(4 / mpmath.pi * total))
                k += 1

        got = sb.sup_bm_log_cdf(x)
        with mpmath.workdps(40):
            want = np.array([log_cdf(v) for v in x])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_reflection_series_equals_three_terms(self):
        # Qbar(5x) <= 3.4e-22 Qbar(x) on x >= 2 is below half an ulp of the
        # two-term sum, so the third term leaves every double unchanged
        from scipy.special import erfc

        x = np.concatenate((np.linspace(2.0, 40.0, 400_001), np.geomspace(40.0, 1000.0, 1001)))
        z = x / np.sqrt(2.0)
        three = np.log1p(-2.0 * (erfc(z) - erfc(3.0 * z) + erfc(5.0 * z)))
        assert np.array_equal(sb.sup_bm_log_cdf(x), three)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sb.sup_bm_cdf(0.0)
        with pytest.raises(ValueError):
            sb.sup_bm_log_cdf(-1.0)

    def test_nan_is_rejected(self):
        # nan fails x > 0 like a nonpositive x, in a scalar, in the theta
        # range and in the reflection range; inf is P = 1
        for x in (np.nan, [0.5, np.nan], [3.0, np.nan]):
            for f in (sb.sup_bm_log_cdf, sb.sup_bm_cdf):
                with pytest.raises(ValueError, match="x must be positive"):
                    f(x)
        assert sb.sup_bm_log_cdf(np.inf) == 0.0


class TestSupBmLogCdfBlocks:
    """The theta series runs over the flattened argument in blocks of _THETA_BLOCK values."""

    @staticmethod
    def blocked_inputs():
        # block 0 all below 2 (theta series), block 1 all at or above 2
        # (reflection series), block 2 and the tail mixed
        gen = np.random.default_rng(16)
        b = _THETA_BLOCK
        return np.concatenate((
            np.exp(gen.uniform(np.log(0.03), np.log(2.0), b)),
            np.exp(gen.uniform(np.log(2.0), np.log(8.0), b)),
            np.exp(gen.uniform(np.log(0.03), np.log(8.0), b + 5)),
        ))

    def test_array_equals_scalar_across_block_edges(self):
        assert _THETA_BLOCK == 2**14
        x = self.blocked_inputs()
        assert x[_THETA_BLOCK : 2 * _THETA_BLOCK].min() >= 2.0
        scalar = np.array([sb.sup_bm_log_cdf(v) for v in x])
        for n in (_THETA_BLOCK - 1, _THETA_BLOCK, _THETA_BLOCK + 1, 3 * _THETA_BLOCK + 5):
            assert np.array_equal(sb.sup_bm_log_cdf(x[:n]), scalar[:n]), n

    def test_any_shape_and_layout(self):
        x = self.blocked_inputs()[: 3 * _THETA_BLOCK]
        flat = sb.sup_bm_log_cdf(x)
        for view in (
            x.reshape(96, -1),
            np.asfortranarray(x.reshape(96, -1)),
            x[::3],
            x.reshape(3, -1)[:, 1::2],
            x.reshape(96, -1).T,
        ):
            got = sb.sup_bm_log_cdf(view)
            assert got.shape == view.shape
            want = sb.sup_bm_log_cdf(np.ascontiguousarray(view).ravel()).reshape(view.shape)
            assert np.array_equal(got, want)
        assert np.array_equal(sb.sup_bm_log_cdf(x.reshape(96, -1)).ravel(), flat)
        assert sb.sup_bm_log_cdf(np.array([])).shape == (0,)
        assert isinstance(sb.sup_bm_log_cdf(np.float64(0.7)), float)

    def test_nonpositive_value_in_a_later_block(self):
        x = np.full(2 * _THETA_BLOCK + 3, 0.5)
        x[-1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            sb.sup_bm_log_cdf(x)

    def test_scipy_loads_on_the_first_value_at_or_above_two(self):
        root = str(Path(sb.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {root!r})\n"
            "import numpy as np\n"
            "from smallball.asymptotics import sup_bm_log_cdf, _THETA_BLOCK\n"
            "x = np.linspace(0.05, 1.99, 3 * _THETA_BLOCK)\n"
            "sup_bm_log_cdf(x)\n"
            "print('scipy.special' in sys.modules)\n"
            "x[-1] = 2.0\n"
            "sup_bm_log_cdf(x)\n"
            "print('scipy.special' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]

    def test_memory_stays_near_the_output(self):
        x = np.exp(np.random.default_rng(17).uniform(np.log(0.05), np.log(6.0), 1_000_000))
        sb.sup_bm_log_cdf(np.array([3.0]))  # load scipy.special outside the trace
        tracemalloc.start()
        try:
            out = sb.sup_bm_log_cdf(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unblocked, the call made about ten full-length temporaries (36 MB here)
        assert peak < out.nbytes + 2 * 2**20


class TestKappaP:
    def test_p2_closed_form(self):
        assert sb.kappa_p(2.0, 2.0 ** -0.5) == pytest.approx(0.125, rel=1e-14)
        assert sb.kappa_p(2.0, 4.0) == pytest.approx(4.0, rel=1e-14)

    def test_p1_from_airy_value(self):
        # 2^(2/1) * 1 * (lambda1(1)/3)^(3/2) with lambda1(1) = -a'_1 / 2^(1/3)
        assert sb.kappa_p(1.0, 0.8086165175) == pytest.approx(0.5597473190, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sb.kappa_p(0.5, 1.0)
        with pytest.raises(ValueError):
            sb.kappa_p(2.0, -1.0)


class TestWeightedLpClockOrder:
    def test_single_interval_p2(self):
        part = Partition((1.0,), weights=(1.0,))
        co = sb.weighted_lp_clock_order(2.0, 0.125, part)
        assert co.per_interval_k == pytest.approx((0.125,))
        assert co.combined == pytest.approx(0.125, rel=1e-14)
        assert co.order.alpha == 1.0 and co.order.beta == 0.0

    def test_two_intervals(self):
        # (1/8) (sum d_i^(1/2) Delta_i t)^2 = (1/8)(2 + 1)^2 = 9/8
        part = Partition((1.0, 2.0), weights=(4.0, 1.0))
        co = sb.weighted_lp_clock_order(2.0, 0.125, part)
        assert co.combined == pytest.approx(9.0 / 8.0, rel=1e-14)

    def test_weight_scaling(self):
        r = rng()
        for _ in range(50):
            m = int(r.integers(1, 5))
            times = tuple(np.cumsum(r.uniform(0.2, 1.5, m)))
            d = tuple(sorted(r.uniform(0.5, 5.0, m), reverse=True) + np.arange(m, 0, -1) * 1e-6)
            p = float(r.uniform(1.0, 4.0))
            c = float(r.uniform(0.5, 4.0))
            part = Partition(times, weights=d)
            alpha = 2.0 / p
            base = sb.weighted_lp_clock_order(p, 0.3, part).combined
            scaled = sb.weighted_lp_clock_order(p, 0.3, Partition(times, weights=tuple(c * x for x in d))).combined
            assert scaled == pytest.approx(c**alpha * base, rel=1e-11)

    def test_requires_weights(self):
        with pytest.raises(ValueError):
            sb.weighted_lp_clock_order(2.0, 0.125, Partition((1.0,)))


class TestTsbConstant:
    def test_single_interval_value(self):
        # 2 (pi^2/8)^(1/2) (1/8)^(1/2) = pi/4
        assert sb.tsb_constant(1.0, 0.0, [0.125], [1.0]) == pytest.approx(np.pi / 4, rel=1e-14)

    def test_matches_chaos_sup_constant(self):
        r = rng()
        for _ in range(300):
            m = int(r.integers(1, 7))
            times = tuple(np.cumsum(r.uniform(0.1, 2.0, m)))
            edges = np.cumsum(r.uniform(0.05, 1.0, 2 * m))
            windows = tuple((edges[2 * i] if i else 0.0, edges[2 * i + 1]) for i in range(m))
            w = float(r.uniform(0.2, 3.0))
            part = Partition(times, windows=windows)
            ks = 0.125 * w**2 * part.delta_t**2
            b = [win[1] for win in windows]
            assert sb.tsb_constant(1.0, 0.0, ks, b) == pytest.approx(sb.chaos_sup_constant(w, part), rel=1e-12)

    def test_vanishes_as_b_grows(self):
        # b -> c b divides the constant by c^(2 alpha/(1+alpha)) = c at alpha = 1
        vals = [sb.tsb_constant(1.0, 0.0, [0.125, 0.5], [c, 2 * c]) for c in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[1] == pytest.approx(vals[0] / 10.0, rel=1e-13)
        assert vals[2] == pytest.approx(vals[0] / 100.0, rel=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sb.tsb_constant(1.0, 0.0, [0.125], [1.0, 2.0])


class TestIteratedConstant:
    def test_brownian_outer_matches_tsb(self):
        r = rng()
        for _ in range(100):
            k = 10.0 ** r.uniform(-2, 2)
            b = float(r.uniform(0.3, 3.0))
            spec = sb.IteratedSpec(2.0, np.pi**2 / 8, 1.0, sb.AsymptoticOrder(1.0, 0.0, k / b**2))
            got = sb.iterated_first_order_constant(spec)
            want = sb.tsb_constant(1.0, 0.0, [k], [b])
            assert got == pytest.approx(want, rel=1e-12)

    def test_rho_alpha_one_simplification(self):
        # rho = alpha = 1: constant = 2 sqrt(kappa K)
        spec = sb.IteratedSpec(2.0, 3.0, 1.0, sb.AsymptoticOrder(1.0, 0.0, 0.7))
        assert sb.iterated_first_order_constant(spec) == pytest.approx(2 * np.sqrt(3.0 * 0.7), rel=1e-14)

    def test_clock_scale_homogeneity(self):
        r = rng()
        for _ in range(50):
            theta, kap = r.uniform(0.5, 4), r.uniform(0.2, 5)
            rho, alpha = r.uniform(0.3, 3), r.uniform(0.3, 3)
            k, c = 10.0 ** r.uniform(-2, 2), r.uniform(0.5, 5)
            base = sb.iterated_first_order_constant(sb.IteratedSpec(theta, kap, rho, sb.AsymptoticOrder(alpha, 0.0, k)))
            scaled = sb.iterated_first_order_constant(sb.IteratedSpec(theta, kap, rho, sb.AsymptoticOrder(alpha, 0.0, c * k)))
            assert scaled == pytest.approx(c ** (rho / (rho + alpha)) * base, rel=1e-12)

    def test_beta_zero_required(self):
        with pytest.raises(ValueError):
            sb.IteratedSpec(2.0, 1.0, 1.0, sb.AsymptoticOrder(1.0, 0.5, 1.0))


class TestWeightedSumConstant:
    def test_geometric_closed_form(self):
        base = sb.AsymptoticOrder(1.0, 0.0, 0.125)
        assert sb.weighted_sum_constant(base, WeightSequenceSpec.geometric(0.25)) == pytest.approx(0.5, rel=1e-14)

    def test_single_weight_is_identity(self):
        base = sb.AsymptoticOrder(1.7, 0.0, 0.42)
        assert sb.weighted_sum_constant(base, WeightSequenceSpec.explicit([1.0])) == pytest.approx(0.42, rel=1e-14)

    def test_explicit_two_terms(self):
        base = sb.AsymptoticOrder(1.0, 0.0, 0.125)
        # (1/8)(1 + 1/2)^2 = 9/32
        assert sb.weighted_sum_constant(base, WeightSequenceSpec.explicit([1.0, 0.25])) == pytest.approx(9 / 32, rel=1e-14)

    def test_truncations_increase_to_geometric_limit(self):
        base = sb.AsymptoticOrder(1.0, 0.0, 0.125)
        sigma = 0.25
        limit = sb.weighted_sum_constant(base, WeightSequenceSpec.geometric(sigma))
        prev = 0.0
        for terms in (1, 2, 4, 8, 16, 32):
            trunc = sb.weighted_sum_constant(base, WeightSequenceSpec.explicit(sigma ** np.arange(terms)))
            assert prev < trunc < limit + 1e-15
            prev = trunc
        assert limit - prev < 1e-8

    def test_polynomial_matches_zeta_oracle(self):
        from scipy.special import zeta

        # alpha = 1, a_j = j^-3: constant = (sum_j j^(-3/2))^2 = zeta(3/2)^2
        base = sb.AsymptoticOrder(1.0, 0.0, 1.0)
        got = sb.weighted_sum_constant(base, WeightSequenceSpec.polynomial(3.0))
        assert got == pytest.approx(float(zeta(1.5)) ** 2, rel=1e-10)

        # faster decay for a second point on the curve
        got = sb.weighted_sum_constant(base, WeightSequenceSpec.polynomial(6.0))
        assert got == pytest.approx(float(zeta(3.0)) ** 2, rel=1e-12)

    def test_polynomial_summability_guard(self):
        base = sb.AsymptoticOrder(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            # alpha = 1 needs r > 2
            sb.weighted_sum_constant(base, WeightSequenceSpec.polynomial(1.8))

    def test_beta_zero_required(self):
        with pytest.raises(ValueError):
            sb.weighted_sum_constant(sb.AsymptoticOrder(1.0, 1.0, 1.0), WeightSequenceSpec.geometric(0.5))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            WeightSequenceSpec.geometric(1.0)
        with pytest.raises(ValueError):
            WeightSequenceSpec.polynomial(0.9)
        with pytest.raises(ValueError):
            WeightSequenceSpec.explicit([1.0, -1.0])
        with pytest.raises(ValueError):
            WeightSequenceSpec("mystery")


class TestChaosConstants:
    def test_sup_unit_example(self):
        part = Partition((1.0,), windows=((0.0, 1.0),))
        assert sb.chaos_sup_constant(1.0, part) == pytest.approx(np.pi / 4, rel=1e-14)

    def test_sup_two_interval_example(self):
        part = Partition((1.0, 3.0), windows=((0.0, 1.0), (1.0, 2.0)))
        # (pi/4) * 2 * (1/1 + 2/2) = pi
        assert sb.chaos_sup_constant(2.0, part) == pytest.approx(np.pi, rel=1e-14)

    def test_sup_window_scaling(self):
        r = rng()
        for _ in range(50):
            m = int(r.integers(1, 5))
            times = tuple(np.cumsum(r.uniform(0.2, 1.5, m)))
            edges = np.cumsum(r.uniform(0.05, 1.0, 2 * m))
            windows = tuple((edges[2 * i] if i else 0.0, edges[2 * i + 1]) for i in range(m))
            c = float(r.uniform(0.5, 4.0))
            scaled = tuple((c * a, c * b) for a, b in windows)
            w = float(r.uniform(0.2, 3.0))
            v1 = sb.chaos_sup_constant(w, Partition(times, windows=windows))
            v2 = sb.chaos_sup_constant(w, Partition(times, windows=scaled))
            assert v2 == pytest.approx(v1 / c, rel=1e-12)

    def test_clock_unit_example(self):
        part = Partition((1.0,), weights=(1.0,))
        assert sb.chaos_clock_constant(1.0, part) == pytest.approx(0.125, rel=1e-14)

    def test_clock_two_interval_example(self):
        part = Partition((1.0, 2.0), weights=(4.0, 1.0))
        # (1/8) * 4 * (2 + 1)^2 = 4.5
        assert sb.chaos_clock_constant(2.0, part) == pytest.approx(4.5, rel=1e-14)

    def test_clock_weight_homogeneity(self):
        part = Partition((0.5, 2.0), weights=(3.0, 1.0))
        base = sb.chaos_clock_constant(1.5, part)
        scaled = Partition((0.5, 2.0), weights=(2.5 * 3.0, 2.5 * 1.0))
        assert sb.chaos_clock_constant(1.5, scaled) == pytest.approx(2.5 * base, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.chaos_sup_constant(1.0, Partition((1.0,)))  # no windows
        with pytest.raises(ValueError):
            sb.chaos_clock_constant(1.0, Partition((1.0,)))  # no weights
        with pytest.raises(ValueError):
            sb.chaos_sup_constant(-1.0, Partition((1.0,), windows=((0.0, 1.0),)))


class TestPartition:
    def test_delta_t(self):
        part = Partition((0.5, 2.0, 3.0))
        assert part.delta_t == pytest.approx([0.5, 1.5, 1.0])
        assert part.m == 3
        assert part.horizon == 3.0

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Partition((1.0, 1.0))
        with pytest.raises(ValueError):
            Partition((-1.0, 2.0))
        with pytest.raises(ValueError):
            Partition(())

    def test_window_interlacing(self):
        Partition((1.0, 2.0), windows=((0.0, 1.0), (1.0, 2.0)))  # touching allowed
        with pytest.raises(ValueError):
            Partition((1.0, 2.0), windows=((0.0, 1.5), (1.0, 2.0)))  # b_1 > a_2
        with pytest.raises(ValueError):
            Partition((1.0,), windows=((1.0, 1.0),))  # a_i < b_i violated

    def test_weights_strictly_decreasing(self):
        with pytest.raises(ValueError):
            Partition((1.0, 2.0), weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            Partition((1.0, 2.0), weights=(1.0, -0.5))
