"""Simulator tests: determinism, exact moments, scaling laws, discretization bias.

Statistical assertions use 4-standard-error bands around independently derived
moments (Ito isometry, Fubini on E B(s)^2 = s, Brownian scaling), with seeds
fixed so the suite is deterministic.
"""

import numpy as np
import pytest
from scipy.stats import kstest

import smallball as sb
from smallball import paths
from smallball.paths import _increments, _time_indices


class TestRngStream:
    def test_same_pair_reproduces(self):
        a = sb.RngStream(7, 3).generator().standard_normal(16)
        b = sb.RngStream(7, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sb.RngStream(7, 3).generator().standard_normal(16)
        b = sb.RngStream(7, 4).generator().standard_normal(16)
        c = sb.RngStream(8, 3).generator().standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulateBm:
    def test_bit_for_bit_determinism(self):
        g1 = sb.simulate_bm(128, 1.0, sb.RngStream(1, 2))
        g2 = sb.simulate_bm(128, 1.0, sb.RngStream(1, 2))
        assert np.array_equal(g1.values, g2.values)
        assert g1.values[0] == 0.0

    def test_terminal_moments(self):
        n, t_hor = 5000, 2.0
        gen = sb.RngStream(11, 0).generator()
        finals = np.array([sb.simulate_bm(32, t_hor, gen).values[-1] for _ in range(n)])
        se_mean = np.sqrt(t_hor / n)
        assert abs(finals.mean()) < 4 * se_mean
        # sample variance of N(0, T): SE ~ T sqrt(2/n)
        assert abs(finals.var(ddof=1) - t_hor) < 4 * t_hor * np.sqrt(2.0 / n)

    def test_times_attribute(self):
        g = sb.simulate_bm(4, 2.0, sb.RngStream(0, 0))
        assert g.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.simulate_bm(1, 1.0, sb.RngStream(0, 0))
        with pytest.raises(ValueError):
            sb.simulate_bm(8, -1.0, sb.RngStream(0, 0))


class TestClocks:
    def test_power_clock_mean(self):
        # E C(1) = E int_0^1 B^2 = 1/2
        c = sb.clock_terminal_samples(sb.PowerClockSpec(2.0), 1.0, 512, 10_000, sb.RngStream(3, 0))
        se = c.std(ddof=1) / np.sqrt(c.size)
        assert abs(c.mean() - 0.5) < 4 * se
        assert np.all(c >= 0)

    def test_chaos_clock_mean(self):
        # single q = 1: E C(1) = 2 * 1/2 = 1
        c = sb.clock_terminal_samples(sb.ChaosClockSpec((1.0,)), 1.0, 512, 10_000, sb.RngStream(3, 1))
        se = c.std(ddof=1) / np.sqrt(c.size)
        assert abs(c.mean() - 1.0) < 4 * se

    def test_self_similarity_scaling_law(self):
        # the p = 2 clock is 2-self-similar: C(2)/4 and C(1) agree in law, and the
        # uniform-grid discretization commutes with the scaling exactly
        n = 10_000
        c1 = sb.clock_terminal_samples(sb.PowerClockSpec(2.0), 1.0, 1024, n, sb.RngStream(4, 0))
        c2 = sb.clock_terminal_samples(sb.PowerClockSpec(2.0), 2.0, 1024, n, sb.RngStream(4, 1))
        d, _ = sb.ks_two_sample(c1, c2 / 4.0)
        assert d < sb.ks_critical_value(n, n, 0.01)

    def test_piecewise_rho_weights(self):
        # doubling rho on an interval scales its contribution by rho^p = 4
        part = sb.Partition((1.0, 2.0))
        base = sb.clock_interval_increment_samples(
            sb.PowerClockSpec(2.0, rho=(1.0, 1.0)), part, 512, 2000, sb.RngStream(5, 0)
        )
        bumped = sb.clock_interval_increment_samples(
            sb.PowerClockSpec(2.0, rho=(1.0, 2.0)), part, 512, 2000, sb.RngStream(5, 0)
        )
        assert bumped[:, 0] == pytest.approx(base[:, 0], rel=1e-12)
        assert bumped[:, 1] == pytest.approx(4.0 * base[:, 1], rel=1e-12)

    def test_interval_increments_sum_to_terminal(self):
        part = sb.Partition((0.5, 1.0, 2.0))
        inc = sb.clock_interval_increment_samples(sb.ChaosClockSpec((0.5, 0.25)), part, 512, 500, sb.RngStream(6, 0))
        total = sb.clock_terminal_samples(sb.ChaosClockSpec((0.5, 0.25)), 2.0, 512, 500, sb.RngStream(6, 0))
        assert np.all(inc >= 0)
        assert inc.sum(axis=1) == pytest.approx(total, rel=1e-12)

    def test_step_increments_match_interval_sums(self):
        spec = sb.PowerClockSpec(2.0)
        d_c = sb.clock_step_increments(spec, 1.0, 256, sb.RngStream(7, 0))
        total = sb.clock_terminal_samples(spec, 1.0, 256, 1, sb.RngStream(7, 0))[0]
        assert d_c.shape == (256,)
        assert d_c.sum() == pytest.approx(total, rel=1e-12)

    def test_quadrature_mean_exact_at_any_resolution(self):
        # E C_N(1) for the p = 2 clock equals 1/2 at every N: the trapezoid
        # rule is exact in expectation for the linear mean E B_s^2 = s
        for i, n_steps in enumerate((8, 64)):
            c = sb.clock_terminal_samples(sb.PowerClockSpec(2.0), 1.0, n_steps, 100_000, sb.RngStream(30, i))
            se = c.std(ddof=1) / np.sqrt(c.size)
            assert abs(c.mean() - 0.5) < 4 * se

    def test_quadrature_bias_shrinks_under_doubling(self):
        # p = 1 clock: E C_N(1) equals the trapezoid rule applied to
        # E|B_s| = sqrt(2s/pi), whose error against the limit 2/3 sqrt(2/pi)
        # shrinks as N doubles; the sample means must track the exact values
        def exact_mean(n_steps):
            t = np.linspace(0.0, 1.0, n_steps + 1)
            f = np.sqrt(2.0 * t / np.pi)
            return (f[0] / 2 + f[1:-1].sum() + f[-1] / 2) / n_steps

        limit = 2.0 / 3.0 * np.sqrt(2.0 / np.pi)
        biases = {n: exact_mean(n) - limit for n in (8, 16, 32)}
        assert abs(biases[16]) < abs(biases[8]) and abs(biases[32]) < abs(biases[16])
        for i, n_steps in enumerate((8, 32)):
            c = sb.clock_terminal_samples(sb.PowerClockSpec(1.0), 1.0, n_steps, 100_000, sb.RngStream(31, i))
            se = c.std(ddof=1) / np.sqrt(c.size)
            assert abs(c.mean() - exact_mean(n_steps)) < 4 * se

    def test_grid_alignment_required(self):
        part = sb.Partition((1.0 / 3.0, 1.0))
        with pytest.raises(ValueError):
            sb.clock_interval_increment_samples(sb.PowerClockSpec(2.0), part, 1000, 10, sb.RngStream(0, 0))
        # multiples of 3 land every partition time on the grid
        sb.clock_interval_increment_samples(sb.PowerClockSpec(2.0), part, 999, 10, sb.RngStream(0, 0))

    def test_time_indices(self):
        assert list(_time_indices(np.array([0.5, 1.0]), 8)) == [4, 8]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sb.PowerClockSpec(0.5)
        with pytest.raises(ValueError):
            sb.ChaosClockSpec(())
        with pytest.raises(ValueError):
            sb.ChaosClockSpec((1.0,), truncation=0)
        with pytest.raises(ValueError):
            sb.geometric_q(1.5, 3)


class TestLevyArea:
    def test_martingale_mean_and_ito_variance(self):
        # left-point sums at N steps: E A(1) = 0 and E A(1)^2 = 1 - 1/N exactly
        n, n_steps = 200_000, 16
        gen = sb.RngStream(8, 0).generator()
        a = _increments(sb.ChaosDirectProcess(sb.ChaosClockSpec((1.0,))), (1.0,), n_steps, n, gen).sum(axis=1)
        se_mean = a.std(ddof=1) / np.sqrt(n)
        assert abs(a.mean()) < 4 * se_mean
        want = 1.0 - 1.0 / n_steps
        a2 = a * a
        se_var = a2.std(ddof=1) / np.sqrt(n)
        assert abs(a2.mean() - want) < 4 * se_var

    def test_variance_bias_shrinks_with_grid_halving(self):
        # discretization bias of Var A(1) is exactly -1/N: halves per doubling
        n = 200_000
        v = {}
        for i, n_steps in enumerate((8, 16, 32)):
            gen = sb.RngStream(9, i).generator()
            a = _increments(sb.ChaosDirectProcess(sb.ChaosClockSpec((1.0,))), (1.0,), n_steps, n, gen).sum(axis=1)
            v[n_steps] = a.var(ddof=1)
        d1 = v[16] - v[8]
        d2 = v[32] - v[16]
        assert d1 > 0 and d2 > 0
        assert 1.3 < d1 / d2 < 3.1  # exact ratio 2, wide band for MC noise

    def test_path_starts_at_zero(self):
        g = sb.simulate_levy_area(64, 1.0, sb.RngStream(10, 0))
        assert g.values[0] == 0.0
        assert g.values[1] == 0.0  # left-point sum: first increment vanishes


class TestChaosDirect:
    def test_single_term_reduces_to_levy_area(self):
        spec = sb.ChaosClockSpec((1.0,))
        a = sb.simulate_chaos_direct(spec, 128, 1.0, sb.RngStream(12, 5))
        b = sb.simulate_levy_area(128, 1.0, sb.RngStream(12, 5))
        assert np.array_equal(a.values, b.values)

    def test_ito_isometry_variance(self):
        # E Z(1)^2 = sum q_j^2 * (1 - 1/N) for the left-point discretization
        q = np.array([0.5, 0.25])
        n, n_steps = 200_000, 32
        gen = sb.RngStream(13, 0).generator()
        z = _increments(sb.ChaosDirectProcess(sb.ChaosClockSpec(q)), (1.0,), n_steps, n, gen).sum(axis=1)
        want = np.sum(q**2) * (1.0 - 1.0 / n_steps)
        z2 = z * z
        se = z2.std(ddof=1) / np.sqrt(n)
        assert abs(z2.mean() - want) < 4 * se

    def test_truncation_tail_invisible(self):
        # geometric q_j = 2^-j: sups at J = 20 vs J = 50 are KS-indistinguishable
        n, n_steps = 5000, 256
        full = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
        short = sb.ChaosClockSpec(sb.geometric_q(0.5, 50), truncation=20)
        a = sb.sup_samples(sb.ChaosDirectProcess(full), (1.0,), n_steps, n, sb.RngStream(14, 0))[:, 0]
        b = sb.sup_samples(sb.ChaosDirectProcess(short), (1.0,), n_steps, n, sb.RngStream(14, 1))[:, 0]
        d, _ = sb.ks_two_sample(a, b)
        assert d < sb.ks_critical_value(n, n, 0.01)

    def test_running_sup_exposed(self):
        g = sb.simulate_chaos_direct(sb.ChaosClockSpec((0.5,)), 64, 1.0, sb.RngStream(15, 0))
        run = g.running_sup()
        assert run.shape == (65,)
        assert np.all(np.diff(run) >= 0)
        assert run[-1] == pytest.approx(np.max(np.abs(g.values)))


class TestTimeChanged:
    def test_identity_clock_reproduces_brownian_sup_law(self):
        # deterministic clock C(t) = t: sup law matches the continuous theta
        # series; grid-sup deficit at this resolution sits far below the KS
        # resolution of 2.5k samples
        n, n_steps = 2500, 8192
        h = 1.0 / n_steps
        gen = sb.RngStream(16, 0).generator()
        sups = np.empty(n)
        for i in range(n):
            g = sb.simulate_time_changed(np.full(n_steps, h), 1.0, gen)
            sups[i] = g.running_sup()[-1]
        stat = kstest(sups, lambda x: sb.sup_bm_cdf(np.maximum(x, 1e-9)))
        assert stat.statistic < 1.628 / np.sqrt(n)

    def test_deterministic_degenerate_clock(self):
        g = sb.simulate_time_changed(np.zeros(8), 1.0, sb.RngStream(17, 0))
        assert np.all(g.values == 0.0)

    def test_variance_equals_expected_clock(self):
        # Var Z(t) = E C(t) by conditional variance
        spec = sb.ChaosClockSpec((0.5,))
        n, n_steps = 4000, 256
        sup_gen = sb.RngStream(18, 0).generator()
        finals = np.empty(n)
        for i in range(n):
            d_c = sb.clock_step_increments(spec, 1.0, n_steps, sup_gen)
            finals[i] = sb.simulate_time_changed(d_c, 1.0, sup_gen).values[-1]
        want = 2.0 * 0.25 * 0.5  # 2 q^2 E int_0^1 B^2 = q^2
        f2 = finals**2
        se = f2.std(ddof=1) / np.sqrt(n)
        assert abs(f2.mean() - want) < 4 * se

    def test_negative_increments_rejected(self):
        with pytest.raises(ValueError):
            sb.simulate_time_changed(np.array([0.1, -0.2, 0.1]), 1.0, sb.RngStream(0, 0))


class TestSupSamples:
    def test_shape_and_monotonicity_across_times(self):
        part_times = (0.5, 1.0)
        s = sb.sup_samples(sb.BrownianProcess(), part_times, 64, 500, sb.RngStream(19, 0))
        assert s.shape == (500, 2)
        assert np.all(s[:, 1] >= s[:, 0])  # running sup is monotone

    def test_deterministic_across_block_sizes_hidden(self, monkeypatch):
        # block size is internal; equal inputs give equal outputs
        def draw():
            return (
                sb.sup_samples(sb.BrownianProcess(), (1.0,), 128, 700, sb.RngStream(20, 0)),
                sb.clock_interval_increment_samples(
                    sb.PowerClockSpec(2.0, rho=(1.0, 2.0)), (0.5, 1.0), 128, 700, sb.RngStream(20, 1)
                ),
            )

        default = draw()
        assert all(np.array_equal(a, b) for a, b in zip(default, draw()))
        # Brownian paths and power clocks draw row-major, so 48-row blocks
        # (fifteen of them, the last of 28 rows) give the same bits
        monkeypatch.setattr(paths, "_BLOCK_DOUBLES", 48 * 128)
        assert all(np.array_equal(a, b) for a, b in zip(default, draw()))

    def test_unknown_process_rejected(self):
        with pytest.raises(TypeError):
            sb.sup_samples(object(), (1.0,), 64, 10, sb.RngStream(0, 0))


class TestTimeGridChecks:
    # every entry point checks its time grid before it simulates anything
    @pytest.mark.parametrize("times", [(-1.0,), (0.0,), (0.5, 0.25), (0.5, 0.5), (np.nan,), (np.inf,), ()])
    def test_partition_times_positive_and_increasing(self, times):
        rng = sb.RngStream(0, 0)
        calls = (
            lambda: sb.sup_samples(sb.BrownianProcess(), times, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(sb.ChaosClockSpec((1.0,)), times, 64, 10, rng),
            lambda: sb.clock_increments(sb.PowerClockSpec(2.0), times, 64, rng),
            lambda: sb.clock_step_increments(sb.ChaosClockSpec((1.0,)), times, 64, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="strictly increasing"):
                call()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, np.nan, np.inf])
    def test_horizon_positive(self, horizon):
        rng = sb.RngStream(0, 0)
        calls = (
            lambda: sb.clock_terminal_samples(sb.PowerClockSpec(2.0), horizon, 64, 10, rng),
            lambda: sb.clock_step_increments(sb.PowerClockSpec(2.0), horizon, 64, rng),
            lambda: sb.simulate_bm(64, horizon, rng),
            lambda: sb.simulate_levy_area(64, horizon, rng),
            lambda: sb.simulate_chaos_direct(sb.ChaosClockSpec((0.5,)), 64, horizon, rng),
            lambda: sb.simulate_time_changed(np.full(64, 1.0 / 64), horizon, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="positive"):
                call()


class TestPathGridAndDump:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sb.PathGrid(1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            sb.PathGrid(4, 1.0, np.ones(5))  # does not start at 0
        with pytest.raises(ValueError):
            sb.PathGrid(4, 1.0, np.zeros(4))  # wrong length

    def test_csv_dump(self, tmp_path):
        g = sb.simulate_bm(8, 1.0, sb.RngStream(21, 0))
        out = tmp_path / "path.csv"
        sb.dump_csv(g, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "time,value"
        assert len(rows) == 10
        t0, v0 = rows[1].split(",")
        assert float(t0) == 0.0 and float(v0) == 0.0
        # values survive a repr round trip exactly
        assert float(rows[-1].split(",")[1]) == g.values[-1]
