"""Simulator tests: determinism, exact moments, scaling laws, discretization bias.

Statistical assertions use 4-standard-error bands around independently derived
moments (Ito isometry, Fubini on E B(s)^2 = s, Brownian scaling), with seeds
fixed so the suite is deterministic.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import smallball as sb
from smallball import paths
from smallball.paths import _increments, _sampled_q, _time_indices

BM = sb.BrownianProcess()
LEVY_AREA = sb.ChaosDirectProcess(sb.ChaosClockSpec((1.0,)))


def box_muller_pair(gen, rows, n_steps, variance):
    """(X, Y), each (rows, N), from one (2 rows, N) uniform draw: radius rows, then angle rows."""
    u = gen.random((2 * rows, n_steps))
    r = np.sqrt(np.log(1.0 - u[:rows]) * (-2.0 * variance))
    t = np.tan((u[rows:] - 0.5) * np.pi)  # tan(theta / 2)
    d = 1.0 + t * t
    c = r / d
    return c * (2.0 - d), 2.0 * (t * c)  # R cos(theta), R sin(theta)


def clock_step_increments(spec, t, n_steps, rng):
    """(N,) per-step increments of one clock path: the clock half of a time change's block."""
    d_c = np.empty((1, n_steps))
    paths._fill_clock_steps(d_c, spec, (t,), paths.as_generator(rng))
    return d_c[0]


def law_samples(spec, t, n_steps, n, rng):
    """n i.i.d. spectral draws of C_N(t): n one-point replicates, each one uniform random point."""
    return paths._terminal_law_sampler(spec, t, n_steps)(np.ones(n, dtype=int), rng)


class ConstantUniform:
    """A generator whose every uniform is u, the points of one-point nets (their shifts) included."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[:] = self.u

    def integers(self, low, high, size, dtype):
        return np.full(size, self.u * 2.0**53, dtype=dtype)


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
        g1 = sb.simulate_path(BM, 128, 1.0, sb.RngStream(1, 2))
        g2 = sb.simulate_path(BM, 128, 1.0, sb.RngStream(1, 2))
        assert np.array_equal(g1.values, g2.values)
        assert g1.values[0] == 0.0

    def test_terminal_moments(self):
        n, t_hor = 5000, 2.0
        gen = sb.RngStream(11, 0).generator()
        finals = np.array([sb.simulate_path(BM, 32, t_hor, gen).values[-1] for _ in range(n)])
        se_mean = np.sqrt(t_hor / n)
        assert abs(finals.mean()) < 4 * se_mean
        # sample variance of N(0, T): SE ~ T sqrt(2/n)
        assert abs(finals.var(ddof=1) - t_hor) < 4 * t_hor * np.sqrt(2.0 / n)

    def test_times_attribute(self):
        g = sb.simulate_path(BM, 4, 2.0, sb.RngStream(0, 0))
        assert g.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.simulate_path(BM, 1, 1.0, sb.RngStream(0, 0))
        with pytest.raises(ValueError):
            sb.simulate_path(BM, 8, -1.0, sb.RngStream(0, 0))


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
        d_c = clock_step_increments(spec, 1.0, 256, sb.RngStream(7, 0))
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
        # negative or non-finite parameters (NaN fails every ordered comparison)
        for p, rho in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf), (2.0, (1.0, np.nan)), (2.0, -1.0)):
            with pytest.raises(ValueError, match="finite"):
                sb.PowerClockSpec(p, rho=rho)
        for q in ((np.nan,), (0.5, np.inf), (0.5, -0.25)):
            with pytest.raises(ValueError, match="finite"):
                sb.ChaosClockSpec(q)
        # each q_j is finite but sum q_j^2 is not: every term would look negligible
        for q in ((1e200,), (1e154, 1e154, 1e154)):
            with pytest.raises(ValueError, match="overflows"):
                sb.ChaosClockSpec(q)
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
        g = sb.simulate_path(LEVY_AREA, 64, 1.0, sb.RngStream(10, 0))
        assert g.values[0] == 0.0
        assert g.values[1] == 0.0  # left-point sum: first increment vanishes


class TestChaosDirect:
    def test_single_term_reduces_to_levy_area(self):
        # q = (1,): the left-point sum of X dY - Y dX from one Box-Muller pair per step
        n_steps = 128
        g = sb.simulate_path(LEVY_AREA, n_steps, 1.0, sb.RngStream(12, 5))
        d_x, d_y = (d[0] for d in box_muller_pair(sb.RngStream(12, 5).generator(), 1, n_steps, 1.0 / n_steps))
        x_left, y_left = (np.concatenate(([0.0], np.cumsum(d[:-1]))) for d in (d_x, d_y))
        assert np.array_equal(g.values[1:], np.cumsum(x_left * d_y - y_left * d_x))

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
        short = sb.ChaosClockSpec(sb.geometric_q(0.5, 50)[:20])
        a = sb.sup_samples(sb.ChaosDirectProcess(full), (1.0,), n_steps, n, sb.RngStream(14, 0))[:, 0]
        b = sb.sup_samples(sb.ChaosDirectProcess(short), (1.0,), n_steps, n, sb.RngStream(14, 1))[:, 0]
        d, _ = sb.ks_two_sample(a, b)
        assert d < sb.ks_critical_value(n, n, 0.01)

    def test_running_sup_exposed(self):
        g = sb.simulate_path(sb.ChaosDirectProcess(sb.ChaosClockSpec((0.5,))), 64, 1.0, sb.RngStream(15, 0))
        run = g.running_sup()
        assert run.shape == (65,)
        assert np.all(np.diff(run) >= 0)
        assert run[-1] == pytest.approx(np.max(np.abs(g.values)))


class TestTimeChanged:
    def test_deterministic_degenerate_clock(self):
        # rho = 0 freezes the clock, so B(C) stays at 0
        g = sb.simulate_path(sb.TimeChangedProcess(sb.PowerClockSpec(2.0, rho=0.0)), 8, 1.0, sb.RngStream(17, 0))
        assert np.all(g.values == 0.0)

    def test_variance_equals_expected_clock(self):
        # Var Z(t) = E C(t) by conditional variance
        process = sb.TimeChangedProcess(sb.ChaosClockSpec((0.5,)))
        n, n_steps = 4000, 256
        finals = _increments(process, (1.0,), n_steps, n, sb.RngStream(18, 0)).sum(axis=1)
        want = 2.0 * 0.25 * 0.5  # 2 q^2 E int_0^1 B^2 = q^2
        f2 = finals**2
        se = f2.std(ddof=1) / np.sqrt(n)
        assert abs(f2.mean() - want) < 4 * se


class TestSinglePath:
    @pytest.mark.parametrize(
        "process, horizon",
        [
            (BM, 1.0),
            (sb.ChaosDirectProcess(sb.ChaosClockSpec(sb.geometric_q(0.5, 50))), 1.0),
            (LEVY_AREA, 2.0),
            (sb.TimeChangedProcess(sb.ChaosClockSpec(sb.geometric_q(0.5, 50))), 1.0),
            (sb.TimeChangedProcess(sb.PowerClockSpec(3.0)), 7.5),
        ],
        ids=["bm", "chaos", "levy-area", "time-changed-chaos", "time-changed-p3"],
    )
    def test_running_sup_equals_one_row_batch(self, process, horizon):
        # a single path is the one-row block of the batch kernel, bit for bit
        n_steps = 512
        g = sb.simulate_path(process, n_steps, horizon, sb.RngStream(25, 3))
        sup = sb.sup_samples(process, (horizon,), n_steps, 1, sb.RngStream(25, 3))
        assert g.running_sup()[-1] == sup[0, 0]


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
                sb.sup_samples(sb.BrownianProcess(), (0.25, 0.5, 1.0), 128, 700, sb.RngStream(20, 2)),
                sb.clock_interval_increment_samples(
                    sb.PowerClockSpec(2.0, rho=(1.0, 2.0)), (0.5, 1.0), 128, 700, sb.RngStream(20, 1)
                ),
                law_samples(sb.PowerClockSpec(2.0), 1.0, 128, 700, sb.RngStream(20, 3)),
                law_samples(sb.PowerClockSpec(2.0), 1.0, 127, 700, sb.RngStream(20, 4)),
                law_samples(sb.ChaosClockSpec((1.0, 0.5)), 1.0, 128, 700, sb.RngStream(20, 5)),
            )

        default = draw()
        assert all(np.array_equal(a, b) for a, b in zip(default, draw()))
        # Brownian paths, power clocks and the spectral draws fill each block
        # with one row-major draw, so 48-row blocks (fifteen of them, the last
        # of 28 rows) give the same bits; outside its net the p = 2 draw takes
        # 96 uniforms per row at N = 128 and at odd N = 127 (64 pairs, 16 in
        # the net), the chaos draw 224 (256 atoms, 32 in the net)
        monkeypatch.setattr(paths, "_BLOCK_DOUBLES", 48 * 128)
        assert all(np.array_equal(a, b) for a, b in zip(default, draw()))

    @pytest.mark.parametrize(
        "process",
        [
            sb.BrownianProcess(),
            sb.ChaosDirectProcess(sb.ChaosClockSpec((1.0, 0.5, 0.25))),
            sb.TimeChangedProcess(sb.ChaosClockSpec((1.0, 0.5, 0.25))),
        ],
    )
    def test_segment_sup_equals_running_max_of_the_path(self, process):
        # the sup is read as segment maxima between partition nodes; it must
        # equal the running max of |Z| over the whole path at those nodes
        times, n_steps, n = (0.125, 0.5, 0.75, 1.0), 64, 300
        sups = sb.sup_samples(process, times, n_steps, n, sb.RngStream(21, 0))
        d = _increments(process, times, n_steps, n, sb.RngStream(21, 0))  # one block, same stream
        z = np.zeros((n, n_steps + 1))
        np.cumsum(d, axis=1, out=z[:, 1:])
        ref = np.maximum.accumulate(np.abs(z), axis=1)[:, _time_indices(times, n_steps)]
        assert np.array_equal(sups, ref)

    def test_unknown_process_rejected(self):
        with pytest.raises(TypeError):
            sb.sup_samples(object(), (1.0,), 64, 10, sb.RngStream(0, 0))


_CHAOS3 = sb.ChaosClockSpec((1.0, 0.5, 0.25))


def _traced_peak(call):
    """Peak bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockKernels:
    def test_chaos_draw_order(self):
        # each chaos term draws one (2b, N) block of uniforms: Box-Muller
        # radii for every row of the block, then angles, giving X_j and Y_j;
        # the scale folds into the radius: sqrt(h q_j) for a direct sum, whose
        # area term then carries q_j, and q_j sqrt(h) for a clock
        spec = sb.ChaosClockSpec((1.0, 0.5, 0.25))
        n_steps, b, t = 32, 5, 2.0
        h = t / n_steps

        def reference_pairs(seed, rows, power):
            gen = sb.RngStream(seed, 0).generator()
            for qj in spec.q:  # all three are drawn: no term is skipped
                yield box_muller_pair(gen, rows, n_steps, h * qj**power)

        def left(dw):
            out = np.zeros_like(dw)
            np.cumsum(dw[:, :-1], axis=1, out=out[:, 1:])
            return out

        def clock_steps(seed, rows):
            v = np.zeros((rows, n_steps + 1))
            for d_x, d_y in reference_pairs(seed, rows, 2):
                for dw in (d_x, d_y):
                    w = np.zeros((rows, n_steps + 1))
                    np.cumsum(dw, axis=1, out=w[:, 1:])
                    v += w * w
            return (v[:, :-1] + v[:, 1:]) * (0.5 * h)

        d_z = np.zeros((b, n_steps))
        for d_x, d_y in reference_pairs(22, b, 1):
            d_z += left(d_x) * d_y - left(d_y) * d_x
        assert np.array_equal(_increments(sb.ChaosDirectProcess(spec), (t,), n_steps, b, sb.RngStream(22, 0)), d_z)
        assert np.array_equal(clock_step_increments(spec, t, n_steps, sb.RngStream(23, 0)), clock_steps(23, 1)[0])
        c = sb.clock_terminal_samples(spec, t, n_steps, b, sb.RngStream(24, 0))
        assert np.array_equal(c, np.cumsum(clock_steps(24, b), axis=1)[:, -1])

    # tracemalloc peak bound in MB of each draw: one block buffer of 2^17
    # doubles (1 MB) for Brownian paths, two for the spectral draws (the block
    # outside the nets, then the nets' points), four for a chaos clock (the
    # block, a stacked (2b, N) pair and a (b, N) scratch) and five for a
    # direct chaos sum (the block and two stacked pairs)
    _PEAK_MB = {
        (lambda: sb.sup_samples(sb.BrownianProcess(), (1.0,), 512, 4096, sb.RngStream(24, 0))): 1.5,
        (
            lambda: paths._terminal_law_sampler(sb.PowerClockSpec(2.0), 1.0, 2**14)(
                np.full(16, 256), sb.RngStream(24, 1)
            )
        ): 3,
        (lambda: sb.sup_samples(sb.ChaosDirectProcess(_CHAOS3), (1.0,), 512, 4096, sb.RngStream(24, 2))): 6,
        (lambda: sb.sup_samples(sb.TimeChangedProcess(_CHAOS3), (1.0,), 512, 4096, sb.RngStream(24, 3))): 6,
        (
            lambda: paths._terminal_law_sampler(sb.ChaosClockSpec(sb.geometric_q(0.9, 400)), 1.0, 256)(
                np.full(16, 256), sb.RngStream(24, 5)
            )
        ): 3,
    }

    @pytest.mark.parametrize("draw", list(_PEAK_MB))
    def test_block_buffers_stay_small(self, draw):
        # the spectral draws run at an estimator layout, 16 nets of 256
        # points, and size their blocks by the width drawn outside the nets:
        # 3034 of the 3066 atoms of q_j = 0.9^j at N = 256, 624 of the 656
        # kept p = 2 modes at N = 2^14
        assert _traced_peak(draw) < self._PEAK_MB[draw] * 2**20

    def test_chaos_peak_does_not_grow_with_terms(self):
        # the chaos kernels allocate their buffers once per block and reuse
        # them for every term: 50 terms of q_j = 2^-j (14 sampled) peak within
        # half a block buffer of three
        def peak(process):
            return _traced_peak(lambda: sb.sup_samples(process, (1.0,), 512, 4096, sb.RngStream(24, 4)))

        for kind in (sb.ChaosDirectProcess, sb.TimeChangedProcess):
            assert peak(kind(_GEOMETRIC)) < peak(kind(_CHAOS3)) + 2**19


class TestPlanarNormals:
    # one Box-Muller pair per (X, Y) entry: (R cos theta, R sin theta) with
    # R = sqrt(-2 log(1 - U1)) and tan(theta / 2) = tan(pi (U2 - 1/2))
    def test_law(self):
        from scipy.stats import kstest

        b, n_steps = 400, 512  # 204800 pairs
        xy, scratch = np.empty((2 * b, n_steps)), np.empty((b, n_steps))
        paths._fill_planar_normals(sb.RngStream(60, 0).generator(), xy, scratch, 1.0)
        x, y = xy[:b].ravel(), xy[b:].ravel()
        n = x.size
        # N(0, 1): E v^2 = 1, E v^4 = 3, E v^8 = 105, so Var v^2 = 2 and Var v^4 = 96
        for v in (x, y):
            assert abs(v.mean()) < 4 / np.sqrt(n)
            assert abs(np.mean(v**2) - 1.0) < 4 * np.sqrt(2.0 / n)
            assert abs(np.mean(v**4) - 3.0) < 4 * np.sqrt(96.0 / n)
            assert kstest(v, "norm").pvalue > 1e-3
        # independence: Var XY = 1 and Var X^2 Y^2 = 9 - 1 = 8
        assert abs(np.mean(x * y)) < 4 / np.sqrt(n)
        assert abs(np.mean(x * x * y * y) - 1.0) < 4 * np.sqrt(8.0 / n)

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53], ids=["zero", "largest"])
    def test_extreme_uniforms_stay_finite(self, u):
        # U = 0 gives R = 0; the largest U gives R = sqrt(106 ln 2) at an angle
        # just short of pi, where t = tan(pi (U - 1/2)) ~ 2e15 is still finite
        xy, scratch = np.empty((4, 8)), np.empty((2, 8))
        with np.errstate(all="raise"):
            paths._fill_planar_normals(ConstantUniform(u), xy, scratch, 1.0)
        x, y = xy[:2], xy[2:]
        r_max = np.sqrt(106 * np.log(2.0))
        if u == 0.0:
            assert np.all(xy == 0.0)
        else:
            assert np.all(np.isfinite(xy))
            assert x == pytest.approx(np.full((2, 8), -r_max), rel=1e-15, abs=0.0)
            assert np.all(np.abs(y) < 1e-14)
        assert np.all(np.hypot(x, y) <= r_max * (1 + 1e-15))


class TestTimeGridChecks:
    # every entry point checks its time grid before it simulates anything
    @pytest.mark.parametrize("times", [(1e-12, 1.0), (0.5, 0.5 + 1e-13, 1.0)])
    def test_partition_times_on_distinct_nodes(self, times):
        # both lie within the grid-node tolerance at N = 64, but the first
        # rounds to node 0 and the second pair to one node: an empty segment
        rng = sb.RngStream(0, 0)
        calls = (
            lambda: sb.sup_samples(sb.BrownianProcess(), times, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(sb.ChaosClockSpec((1.0,)), times, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(sb.PowerClockSpec(2.0), times, 64, 10, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="distinct grid nodes"):
                call()

    @pytest.mark.parametrize("times", [(-1.0,), (0.0,), (0.5, 0.25), (0.5, 0.5), (np.nan,), (np.inf,), ()])
    def test_partition_times_positive_and_increasing(self, times):
        rng = sb.RngStream(0, 0)
        calls = (
            lambda: sb.sup_samples(sb.BrownianProcess(), times, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(sb.ChaosClockSpec((1.0,)), times, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(sb.PowerClockSpec(2.0), times, 64, 10, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="strictly increasing"):
                call()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, np.nan, np.inf])
    def test_horizon_positive(self, horizon):
        rng = sb.RngStream(0, 0)
        processes = (
            BM,
            LEVY_AREA,
            sb.ChaosDirectProcess(sb.ChaosClockSpec((0.5,))),
            sb.TimeChangedProcess(sb.PowerClockSpec(2.0)),
            sb.TimeChangedProcess(sb.ChaosClockSpec((0.5,))),
        )
        calls = [lambda: sb.clock_terminal_samples(sb.PowerClockSpec(2.0), horizon, 64, 10, rng)]
        calls += [lambda p=p: sb.simulate_path(p, 64, horizon, rng) for p in processes]
        for call in calls:
            with pytest.raises(ValueError, match="positive"):
                call()


class TestNonFiniteSamples:
    """A clock that overflows double precision raises instead of returning inf or nan."""

    CLOCK = sb.PowerClockSpec(2000.0)

    def test_every_sampler_raises(self):
        rng = sb.RngStream(0, 0)
        calls = (
            lambda: sb.clock_terminal_samples(self.CLOCK, 100.0, 64, 10, rng),
            lambda: sb.clock_interval_increment_samples(self.CLOCK, (50.0, 100.0), 64, 10, rng),
            lambda: sb.probe_smallball_conditional(self.CLOCK, 100.0, (1.0,), sb.McConfig(samples=10, n_steps=64)),
            lambda: sb.sup_samples(sb.TimeChangedProcess(self.CLOCK), (100.0,), 64, 10, rng),
            lambda: sb.simulate_path(sb.TimeChangedProcess(self.CLOCK), 64, 100.0, rng),
        )
        for call in calls:
            with pytest.raises(sb.NumericError, match="not finite"):
                call()

    def test_underflow_is_not_an_error(self):
        # on a short horizon |B|^2000 underflows to 0: finite, so no raise
        got = sb.clock_terminal_samples(self.CLOCK, 1e-3, 64, 10, sb.RngStream(0, 0))
        assert np.array_equal(got, np.zeros(10))


class TestPathGridAndDump:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sb.PathGrid(1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            sb.PathGrid(4, 1.0, np.ones(5))  # does not start at 0
        with pytest.raises(ValueError):
            sb.PathGrid(4, 1.0, np.zeros(4))  # wrong length

    def test_csv_dump(self, tmp_path):
        g = sb.simulate_path(BM, 8, 1.0, sb.RngStream(21, 0))
        out = tmp_path / "path.csv"
        sb.dump_csv(g, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "time,value"
        assert len(rows) == 10
        t0, v0 = rows[1].split(",")
        assert float(t0) == 0.0 and float(v0) == 0.0
        # values survive a repr round trip exactly
        assert float(rows[-1].split(",")[1]) == g.values[-1]


def _dense_trapezoid_eigenvalues(n_steps, t=1.0):
    """Ascending eigenvalues of h^2 (N - max(l, m) + 1/2), the trapezoid clock's covariance form."""
    from scipy.linalg import eigvalsh

    h = t / n_steps
    idx = np.arange(1, n_steps + 1)
    return eigvalsh(h * h * (n_steps - np.maximum.outer(idx, idx) + 0.5))


class TestSpectralClockLaw:
    @pytest.mark.parametrize("n_steps", [2, 3, 8, 64, 512])
    def test_closed_form_spectrum_matches_dense_eigvalsh(self, n_steps):
        # eigvalsh is accurate to rounding relative to the largest eigenvalue,
        # so the comparison is normwise
        for t in (1.0, 2.0):
            w, mu, nu = sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0), t, n_steps)
            dense = _dense_trapezoid_eigenvalues(n_steps, t)
            assert (list(w), nu) == ([1.0], 1)
            assert np.max(np.abs(np.sort(mu) - dense)) <= 1e-13 * dense[-1]

    def test_forms(self):
        w, mu, nu = sb.quadratic_clock_spectrum(sb.ChaosClockSpec((1.0, 0.5, 0.25)[:2]), 1.0, 8)
        assert np.array_equal(w, [1.0, 0.25]) and nu == 2 and mu.shape == (8,)
        w, _, nu = sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0, rho=1.5), 1.0, 8)
        assert np.array_equal(w, [2.25]) and nu == 1
        for spec in (sb.PowerClockSpec(1.0), sb.PowerClockSpec(3.0), sb.PowerClockSpec(2.0, rho=(1.0, 2.0))):
            assert sb.quadratic_clock_spectrum(spec, 1.0, 8) is None
        with pytest.raises(ValueError):
            sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0), -1.0, 8)

    @pytest.mark.parametrize(
        "spec",
        [sb.ChaosClockSpec(sb.geometric_q(0.5, 50)), sb.PowerClockSpec(2.0, rho=1.5)],
        ids=["chaos", "power"],
    )
    def test_law_matches_path_simulation(self, spec):
        n = 20_000
        a = law_samples(spec, 1.0, 64, n, sb.RngStream(40, 0))
        b = sb.clock_terminal_samples(spec, 1.0, 64, n, sb.RngStream(40, 1))
        stat, _ = sb.ks_two_sample(a, b)
        assert stat < sb.ks_critical_value(n, n, 0.01)

    def test_chaos_draw_moments_match_the_spectrum(self):
        # C_N = sum_{j,k} c_jk E_jk, c_jk = 2 w_j mu_k over all 50 terms:
        # cumulants kappa_r = (r - 1)! sum c^r, and Var s^2 = (kappa_4 + 2 kappa_2^2) / n.
        # The draw carries its skipped atoms by a gamma of their mean and variance
        spec = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
        w, mu, _ = sb.quadratic_clock_spectrum(spec, 1.0, 64)
        c = np.outer(2.0 * w, mu)
        k2, k4 = np.sum(c**2), 6.0 * np.sum(c**4)
        n = 50_000
        x = law_samples(spec, 1.0, 64, n, sb.RngStream(51, 0))
        assert abs(x.mean() - c.sum()) < 4 * np.sqrt(k2 / n)
        assert abs(x.var(ddof=1) - k2) < 4 * np.sqrt((k4 + 2 * k2**2) / n)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 64])
    def test_power_draw_moments_match_the_spectrum(self, n_steps):
        # C_N = sum_k c_k xi_k^2, c_k = rho^2 mu_k: mean sum c, variance 2 sum c^2 and
        # kappa_4 = 48 sum c^4; N = 1 pairs the lone mode with the zero pad
        spec = sb.PowerClockSpec(2.0, rho=1.5)
        (w,), mu, _ = sb.quadratic_clock_spectrum(spec, 1.0, n_steps)
        c = w * mu
        k2, k4 = 2.0 * np.sum(c**2), 48.0 * np.sum(c**4)
        n = 50_000
        x = law_samples(spec, 1.0, n_steps, n, sb.RngStream(54, n_steps))
        assert abs(x.mean() - c.sum()) < 4 * np.sqrt(k2 / n)
        assert abs(x.var(ddof=1) - k2) < 4 * np.sqrt((k4 + 2 * k2**2) / n)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53], ids=["zero", "half", "largest"])
    def test_power_pair_draw_stays_finite(self, u):
        # every pair sees radius U and angle U: 2E (mu_k s + mu_{k+M} (1 - s)) with
        # E = -log(1 - U) <= 53 ln 2 and s = 1 / (1 + tan^2(pi U)), where
        # tan(pi fl(1/2)) ~ 1.6e16 is finite; N = 5 pads mu with one zero, and
        # the net holds all three pairs
        spec = sb.PowerClockSpec(2.0, rho=1.5)
        (w,), mu, _ = sb.quadratic_clock_spectrum(spec, 1.0, 5)
        mu_a, mu_b = mu[:3], np.append(mu[3:], 0.0)
        s = 1.0 / (1.0 + np.tan(np.pi * u) ** 2)
        want = -2.0 * np.log1p(-u) * w * np.sum(mu_a * s + mu_b * (1.0 - s))
        x = law_samples(spec, 1.0, 5, 4, ConstantUniform(u))
        assert np.all(np.isfinite(x))
        assert x == pytest.approx(np.full(4, want), rel=1e-14, abs=0.0)

    def test_one_mode_chaos_draw_is_exponential(self):
        # one term at N = 1: mu_1 = h^2 / 2, so C_1(1) = E ~ Exp(1)
        from scipy.stats import kstest

        x = law_samples(sb.ChaosClockSpec((1.0,)), 1.0, 1, 20_000, sb.RngStream(52, 0))
        assert kstest(x, "expon").pvalue > 1e-3

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53], ids=["zero", "largest"])
    def test_exponential_inversion_stays_finite(self, u):
        # E = -log(1 - U) over U in [0, 1) on the 2^-53 grid: E = 0 at U = 0,
        # and at most 53 ln 2 at the largest U; the one atom is the net's coordinate
        x = law_samples(sb.ChaosClockSpec((1.0,)), 1.0, 1, 5, ConstantUniform(u))
        # mu_1 = h^2 / (4 sin^2(pi / 4)) is 1/2 to rounding
        assert x == pytest.approx(np.full(5, -np.log1p(-u)), rel=1e-15, abs=0.0)
        assert np.all(np.isfinite(x)) and np.all(x <= 53 * np.log(2.0) * (1 + 1e-15))

    @pytest.mark.parametrize(
        "spec", [sb.PowerClockSpec(2.0, rho=1.5), sb.ChaosClockSpec((1.0, 0.5))], ids=["power", "chaos"]
    )
    def test_draw_equals_inline_reference(self, spec):
        # nothing is skipped at N = 64, and the rows span several row blocks
        # (4096 rows of 32 uniforms outside the p = 2 net, 1365 of 96 outside
        # the chaos net): the uniforms outside the nets are one row-major draw,
        # so the block layout does not show in the bits
        n_steps, n = 64, paths._BLOCK_DOUBLES // 16 + 5
        got = law_samples(spec, 1.0, n_steps, n, sb.RngStream(53, 0))
        assert np.array_equal(got, _reference_spectral_draw(spec, 1.0, n_steps, n, sb.RngStream(53, 0)))

    @pytest.mark.parametrize(
        "spec",
        [sb.PowerClockSpec(1.0), sb.PowerClockSpec(3.0, rho=2.0), sb.PowerClockSpec(2.0, rho=(1.5,))],
        ids=["p1", "p3", "stepwise-rho"],
    )
    def test_other_clocks_fall_through_bit_for_bit(self, spec):
        # no spectral draw: the estimators simulate paths, whose bits
        # TestFrozenPlainRecords pins at the estimator
        assert paths._terminal_law_sampler(spec, 2.0, 64) is None


def _sorted_prefix_split(w, mu, nu):
    """Kept modes per term by the definition: sort every atom w_j mu_k, skip the longest prefix within budget."""
    c = np.outer(w, mu)
    share = (c / c.sum()).ravel()
    order = np.argsort(share, kind="stable")
    keep = np.ones(share.size, dtype=bool)
    keep[order[np.cumsum(share[order] ** 3) <= 2.0**-53 * nu * nu / 8.0]] = False
    keep = keep.reshape(c.shape)
    return keep, keep.sum(axis=1)


def _reference_spectral_draw(spec, t, n_steps, n, rng):
    """The documented spectral draw of n one-point replicates, written out.

    The kept atoms come from the definition (``_sorted_prefix_split``).
    chi2_1: kept mode k paired with kept mode k + M, M = ceil(K/2) (odd K
    pads a zero), as log(1 - U) (base + slope s) with s = 1 / (1 + tan^2(pi U'));
    the net takes the first min(M, 16) pairs, radius and angle interleaved,
    and the other pairs draw their radii, then their angles.  chi2_2:
    -2 c_jk log(1 - U) per atom; the net takes the 32 largest atoms, ranked in
    term-major order, and the others draw in that order.  First comes one
    row-major (n, width) draw of the uniforms outside the net, then the
    one-point nets' shifts gen.integers(0, 2**53, (1, n, 1, dims)), which are
    their points, then one gamma variate per row.  Each row sums the atoms
    outside the net, then adds the net's.
    """
    w, mu, nu = sb.quadratic_clock_spectrum(spec, t, n_steps)
    keep, kept = _sorted_prefix_split(w, mu, nu)
    _, shape, scale = paths._spectral_split(w, mu, nu)
    gen = rng.generator()
    if nu == 1:
        half = -(-kept[0] // 2)
        m = np.append(mu[: kept[0]], np.zeros(2 * half - kept[0]))
        base, slope = -2.0 * w[0] * m[half:], -2.0 * w[0] * (m[:half] - m[half:])
        pairs = min(half, 16)

        def pair_terms(r, a, sel):
            return np.log(1.0 - r) * (base[sel] + slope[sel] / (1.0 + np.tan(a * np.pi) ** 2))

        u = gen.random((n, 2 * (half - pairs)))
        want = pair_terms(u[:, : half - pairs], u[:, half - pairs :], slice(pairs, None)).sum(axis=1)
        x = gen.integers(0, 2**53, (1, n, 1, 2 * pairs), dtype=np.uint64)[0, :, 0] * 2.0**-53
        want += pair_terms(x[:, 0::2], x[:, 1::2], slice(None, pairs)).sum(axis=1)
    else:
        c = np.outer(w, mu)[keep]
        top = np.argsort(-c, kind="stable")[:32]
        rest = np.delete(c, top)
        want = (np.log(1.0 - gen.random((n, rest.size))) * (-2.0 * rest)).sum(axis=1)
        x = gen.integers(0, 2**53, (1, n, 1, top.size), dtype=np.uint64)[0, :, 0] * 2.0**-53
        want += (np.log(1.0 - x) * (-2.0 * c[top])).sum(axis=1)
    if scale:
        want += gen.gamma(shape, scale, n)
    return want


# (spec, n_steps) pairs whose spectral draw skips atoms: the p = 2 clock keeps
# 656 of 16384 modes, q_j = 2^-j keeps 978 of 25600 atoms at N = 512
_SKIPPING = {
    "power-2^14": (sb.PowerClockSpec(2.0, rho=1.5), 2**14),
    "power-2048": (sb.PowerClockSpec(2.0), 2048),
    "chaos-512": (sb.ChaosClockSpec(sb.geometric_q(0.5, 50)), 512),
    "chaos-64": (sb.ChaosClockSpec(sb.geometric_q(0.5, 14)), 64),
    "chaos-0.9": (sb.ChaosClockSpec(sb.geometric_q(0.9, 400)), 256),
    "lognormal": (sb.ChaosClockSpec(tuple(np.random.default_rng(3).lognormal(0.0, 3.0, 60))), 128),
}


class TestSpectralSplit:
    # the spectral draw samples the atoms c = w_j mu_k above one unit roundoff
    # of kappa_3 and carries the rest by one moment-matched gamma per row
    @pytest.mark.parametrize("name", sorted(_SKIPPING))
    def test_skipped_kappa3_share_below_unit_roundoff(self, name):
        spec, n_steps = _SKIPPING[name]
        w, mu, nu = sb.quadratic_clock_spectrum(spec, 1.0, n_steps)
        kept, _, _ = paths._spectral_split(w, mu, nu)
        keep, want = _sorted_prefix_split(w, mu, nu)
        assert np.array_equal(kept, want)
        assert np.array_equal(keep, np.arange(mu.size) < kept[:, None])  # a prefix of each term's modes
        # 8 nu sum_skip c^3 <= 2^-53 (nu sum c)^3, in shares of sum c
        share = np.outer(w, mu) / (w.sum() * mu.sum())
        skipped = 8.0 * nu * np.sum(share[~keep] ** 3) / nu**3
        assert 0 < skipped <= 2.0**-53
        # the smallest kept atom would push the share over
        assert skipped + 8.0 * nu * share[keep].min() ** 3 / nu**3 > 2.0**-53

    def test_rule_is_scale_free(self):
        q = np.asarray(sb.geometric_q(0.5, 12))
        w, mu, nu = sb.quadratic_clock_spectrum(sb.ChaosClockSpec(tuple(q)), 1.0, 512)
        kept, shape, scale = paths._spectral_split(w, mu, nu)
        for factor in (1e150, 1e-150):
            w_f, mu_f, _ = sb.quadratic_clock_spectrum(sb.ChaosClockSpec(tuple(q * factor)), 3.0, 512)
            kept_f, shape_f, scale_f = paths._spectral_split(w_f, mu_f, nu)
            assert np.array_equal(kept_f, kept)
            assert shape_f == pytest.approx(shape, rel=1e-12)
            assert scale_f == pytest.approx(scale * 9.0 * factor**2, rel=1e-12)  # c scales by t^2 q^2
        w, mu, _ = sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0), 1.0, 2**14)
        w_r, mu_r, _ = sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0, rho=1e100), 1.0, 2**14)
        kept, shape, scale = paths._spectral_split(w, mu, 1)
        kept_r, shape_r, scale_r = paths._spectral_split(w_r, mu_r, 1)
        assert np.array_equal(kept_r, kept) and kept[0] == 656
        assert shape_r == pytest.approx(shape, rel=1e-12)
        assert scale_r == pytest.approx(scale * 1e200, rel=1e-12)

    def test_zero_weight_draws_no_gamma(self):
        # rho = 0: C is 0 with no 0/0 gamma shape; the stream holds only the
        # uniforms outside the nets and the nets' shifts
        w, mu, nu = sb.quadratic_clock_spectrum(sb.PowerClockSpec(2.0, rho=0.0), 1.0, 2**14)
        kept, shape, scale = paths._spectral_split(w, mu, nu)
        assert kept[0] == 656 and np.isfinite(shape) and scale == 0.0
        gen = sb.RngStream(60, 0).generator()
        assert np.all(law_samples(sb.PowerClockSpec(2.0, rho=0.0), 1.0, 2**14, 7, gen) == 0.0)
        follow = sb.RngStream(60, 0).generator()
        follow.random((7, 624))
        follow.integers(0, 2**53, (1, 7, 1, 32), dtype=np.uint64)
        assert gen.random() == follow.random()

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 64])
    def test_nothing_skipped_at_small_n(self, n_steps):
        # N = 1, 2, 3 pad as before: N = 1 and 3 pair a mode with the zero pad
        for spec in (sb.PowerClockSpec(2.0, rho=1.5), sb.ChaosClockSpec((1.0, 0.5))):
            w, mu, nu = sb.quadratic_clock_spectrum(spec, 1.0, n_steps)
            kept, shape, scale = paths._spectral_split(w, mu, nu)
            assert np.all(kept == n_steps) and shape == scale == 0.0
            got = law_samples(spec, 1.0, n_steps, 50, sb.RngStream(61, n_steps))
            assert np.array_equal(got, _reference_spectral_draw(spec, 1.0, n_steps, 50, sb.RngStream(61, n_steps)))

    @pytest.mark.parametrize("name", sorted(_SKIPPING))
    def test_gamma_carries_the_skipped_moments(self, name):
        # kappa_1 and kappa_2 of the skipped atoms exactly; the gamma's kappa_3,
        # 2 shape scale^3, lies in [0, skipped kappa_3] (Cauchy-Schwarz)
        spec, n_steps = _SKIPPING[name]
        w, mu, nu = sb.quadratic_clock_spectrum(spec, 1.0, n_steps)
        _, shape, scale = paths._spectral_split(w, mu, nu)
        keep, _ = _sorted_prefix_split(w, mu, nu)
        c = np.outer(w, mu)[~keep]
        assert shape * scale == pytest.approx(nu * np.sum(c), rel=1e-12)
        assert shape * scale**2 == pytest.approx(2.0 * nu * np.sum(c * c), rel=1e-12)
        assert 0.0 < 2.0 * shape * scale**3 <= 8.0 * nu * np.sum(c**3) * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["power-2^14", "chaos-512"])
    def test_draw_equals_inline_reference(self, name):
        # 300 rows: 946 of the 978 kept atoms outside the net at N = 512, and
        # 624 of the 656 kept modes at N = 2^14; both skip atoms, so a gamma follows
        spec, n_steps = _SKIPPING[name]
        got = law_samples(spec, 1.0, n_steps, 300, sb.RngStream(62, 0))
        assert np.array_equal(got, _reference_spectral_draw(spec, 1.0, n_steps, 300, sb.RngStream(62, 0)))

    def test_power_draw_matches_the_exact_laplace_law(self):
        # the one-interval Laplace estimator over the truncated draw against
        # log_laplace at N = 2^14 (656 of 16384 modes drawn)
        lams = (1.0, 5.0, 10.0)
        cfg = sb.McConfig(samples=50_000, n_steps=2**14, seed=63, workers=2)
        results = sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), lams, cfg)
        exact = np.exp(sb.log_laplace(sb.PowerClockSpec(2.0), 1.0, lams, n_steps=2**14))
        for r, e in zip(results, exact):
            assert abs(r.estimate - e) <= 4 * r.std_error

    def test_chaos_draw_matches_the_exact_smallball_law(self):
        # conditional probes over the truncated draw (978 of 25600 atoms) against
        # log_smallball at N = 512
        eps = (0.4, 0.2, 0.1)
        spec = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
        cfg = sb.McConfig(samples=50_000, n_steps=512, seed=64, workers=2)
        results = sb.probe_smallball_conditional(spec, 1.0, eps, cfg)
        exact = np.exp(sb.log_smallball(spec, 1.0, eps, n_steps=512))
        for r, e in zip(results, exact):
            assert abs(r.estimate - e) <= 4 * r.std_error


def _first_order_rule(spec):
    """The earlier truncation rule: skip the smallest q_j whose q_j^2 sum to at most 2^-53 sum q_j^2, carry nothing."""
    q = spec.effective_q
    w = q * q
    order = np.argsort(w, kind="stable")
    keep = np.ones(q.size, dtype=bool)
    keep[order[np.cumsum(w[order]) <= 2.0**-53 * w.sum()]] = False
    return q[keep], 0.0


_GEOMETRIC = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
# sum_{j=15}^{50} 4^-j: the part of sum q_j^2 the samplers carry by its moments
_GEOMETRIC_SKIPPED = (4.0**-14 - 4.0**-50) / 3.0


class TestSampledChaosTerms:
    # the chaos samplers draw no path for the smallest q_j whose q_j^4 sum to
    # at most one unit roundoff of (sum q_j^2)^2, and carry S = sum_skip q_j^2
    # by its moments; the exact spectrum keeps every term
    def test_kept_terms(self):
        q, skipped = _sampled_q(_GEOMETRIC)
        assert np.array_equal(q, _GEOMETRIC.effective_q[:14])
        assert skipped == pytest.approx(_GEOMETRIC_SKIPPED, rel=1e-14)
        q, skipped = _sampled_q(sb.ChaosClockSpec(sb.geometric_q(0.3, 80)))
        assert np.array_equal(q, sb.geometric_q(0.3, 8))
        assert skipped == pytest.approx(np.sum(np.asarray(sb.geometric_q(0.3, 80))[8:] ** 2), rel=1e-14)
        for q in (sb.geometric_q(0.5, 14), (1.0, 0.5)):
            assert np.array_equal(_sampled_q(sb.ChaosClockSpec(q))[0], q)
            assert _sampled_q(sb.ChaosClockSpec(q))[1] == 0.0
        # unsorted: only the three smallest go, the rest keep their order
        q = (2e-4, 1e-5, 1.0, 3e-5, 0.5, 2e-5)
        kept, skipped = _sampled_q(sb.ChaosClockSpec(q))
        assert np.array_equal(kept, [2e-4, 1.0, 0.5])
        assert skipped == pytest.approx(1e-10 + 9e-10 + 4e-10, rel=1e-14)
        # a short q skips nothing
        short = sb.ChaosClockSpec(sb.geometric_q(0.5, 50)[:5])
        assert np.array_equal(_sampled_q(short)[0], sb.geometric_q(0.5, 5))
        assert _sampled_q(short)[1] == 0.0

    @pytest.mark.parametrize(
        "q",
        [sb.geometric_q(0.5, 50), sb.geometric_q(0.3, 80), sb.geometric_q(0.9, 400),
         tuple(np.random.default_rng(3).lognormal(0.0, 12.0, 60)), (1e150, 1e140, 1e130), (1e-150, 1e-155)],
        ids=["half", "0.3", "0.9", "lognormal", "huge", "tiny"],
    )
    def test_dropped_share_below_unit_roundoff(self, q):
        q = np.asarray(q)
        kept, skipped = _sampled_q(sb.ChaosClockSpec(tuple(q)))
        dropped = np.setdiff1d(q, kept)
        assert kept.size + dropped.size == q.size and kept.size < q.size
        # shares of sum q_j^2, so that q_j^4 neither overflows nor underflows
        share = q**2 / np.sum(q**2)
        dropped_share = dropped**2 / np.sum(q**2)
        assert np.sum(dropped_share**2) <= 2.0**-53
        # the smallest kept term would push the share over: no more could go
        assert dropped.max() < kept.min()
        assert np.sum(dropped_share**2) + np.min(share[np.isin(q, kept)]) ** 2 > 2.0**-53
        assert skipped == pytest.approx(np.sum(dropped**2), rel=1e-14)

    def test_exact_law_keeps_every_term(self):
        w, _, _ = sb.quadratic_clock_spectrum(_GEOMETRIC, 1.0, 8)
        assert w.size == 50 and _GEOMETRIC.effective_q.size == 50
        assert _GEOMETRIC.one_norm == 2.0 * np.sum(sb.geometric_q(0.5, 50))

    def test_samplers_equal_the_explicit_truncation(self):
        # both path samplers draw the 14 kept terms as q[:14] does, bit
        # for bit, and add the stated compensation for S = sum_{j>14} q_j^2:
        # the clock's trapezoid steps h^2 S (2k - 1) and a direct chaos sum's
        # N(0, 2 i h^2 S) at step i (drawn after the kept terms).  Without it
        # they differ by ~1e-9.  The spectral draw prunes jointly in (j, k)
        # (TestSpectralSplit)
        short = sb.ChaosClockSpec(sb.geometric_q(0.5, 50)[:14])
        n_steps, b, t = 64, 300, 2.0
        h = t / n_steps
        s = _GEOMETRIC_SKIPPED

        c_full = clock_step_increments(_GEOMETRIC, t, n_steps, sb.RngStream(48, 0))
        c_short = clock_step_increments(short, t, n_steps, sb.RngStream(48, 0))
        assert c_full - c_short == pytest.approx(h * h * s * (2 * np.arange(1, n_steps + 1) - 1), rel=1e-6)

        gen = sb.RngStream(48, 1).generator()
        z_short = _increments(sb.ChaosDirectProcess(short), (t,), n_steps, b, gen)
        tail = gen.standard_normal((b, n_steps)) * (h * np.sqrt(2.0 * s * np.arange(n_steps)))
        z_full = _increments(sb.ChaosDirectProcess(_GEOMETRIC), (t,), n_steps, b, sb.RngStream(48, 1))
        assert z_full - z_short == pytest.approx(tail, rel=1e-6, abs=1e-20)
        assert np.all(z_full[:, 0] == 0.0)

    def test_nothing_dropped_keeps_every_bit(self, monkeypatch):
        # J = 14 skips nothing: no ramp and no Gaussian draw (the spectral
        # draw does not read this rule: TestSpectralSplit)
        spec = sb.ChaosClockSpec(sb.geometric_q(0.5, 14))
        assert _sampled_q(sb.ChaosClockSpec(sb.geometric_q(0.5, 15)))[0].size == 14

        def draw():
            return (
                sb.sup_samples(sb.ChaosDirectProcess(spec), (1.0,), 64, 200, sb.RngStream(49, 0)),
                sb.sup_samples(sb.TimeChangedProcess(spec), (1.0,), 64, 200, sb.RngStream(49, 1)),
            )

        trimmed = draw()
        monkeypatch.setattr(paths, "_sampled_q", lambda s: (s.effective_q, 0.0))
        assert all(np.array_equal(a, b) for a, b in zip(trimmed, draw()))


class TestCompensatedLaw:
    # the compensated samplers against closed-form moments of all 50 terms,
    # and in distribution against the first-order rule's 27 drawn terms
    def test_clock_mean_at_every_node(self):
        # E C_N(t_k) = t_k^2 sum_j q_j^2 for the trapezoid clock
        n_steps, n = 64, 20_000
        nodes = np.arange(1, n_steps + 1) / n_steps
        c = np.cumsum(sb.clock_interval_increment_samples(_GEOMETRIC, nodes, n_steps, n, sb.RngStream(55, 0)), axis=1)
        want = nodes**2 * np.sum(_GEOMETRIC.effective_q**2)
        assert np.all(np.abs(c.mean(axis=0) - want) < 4 * c.std(axis=0, ddof=1) / np.sqrt(n))

    def test_direct_step_variance(self):
        # Var dZ_i = 2 i h^2 sum_j q_j^2 at left node i; step 0 is exactly 0
        n_steps, n = 32, 20_000
        h = 1.0 / n_steps
        d = _increments(sb.ChaosDirectProcess(_GEOMETRIC), (1.0,), n_steps, n, sb.RngStream(55, 1))
        want = 2.0 * np.arange(n_steps) * h * h * np.sum(_GEOMETRIC.effective_q**2)
        d2 = d * d
        assert np.all(d[:, 0] == 0.0)
        assert np.all(np.abs(d2[:, 1:].mean(axis=0) - want[1:]) < 4 * d2[:, 1:].std(axis=0, ddof=1) / np.sqrt(n))

    @pytest.mark.parametrize("kind", [sb.ChaosDirectProcess, sb.TimeChangedProcess], ids=["direct", "time-changed"])
    def test_sups_match_the_first_order_rule(self, kind, monkeypatch):
        n, n_steps = 10_000, 64
        new = sb.sup_samples(kind(_GEOMETRIC), (0.5, 1.0), n_steps, n, sb.RngStream(56, 0))
        monkeypatch.setattr(paths, "_sampled_q", _first_order_rule)
        old = sb.sup_samples(kind(_GEOMETRIC), (0.5, 1.0), n_steps, n, sb.RngStream(56, 1))
        for col in range(2):
            d, _ = sb.ks_two_sample(new[:, col], old[:, col])
            assert d < sb.ks_critical_value(n, n, 0.01)


class TestScrambledNets:
    # the randomized quasi-Monte Carlo point sets behind the estimators' spectral draws
    def test_directions_match_scipy_sobol(self):
        # unscrambled points 0..2^10 - 1 in Gray-code order, all 32 dimensions
        from scipy.stats import qmc

        m = 10
        v = paths._sobol_directions(m)
        j = np.arange(2**m)
        gray = (j ^ (j >> 1)).astype(np.uint64)
        x = np.zeros((2**m, 32), dtype=np.uint64)
        for k in range(m):
            x ^= v[:, k] * ((gray >> np.uint64(k)) & np.uint64(1))[:, None]
        assert np.array_equal(x * 2.0**-53, qmc.Sobol(32, scramble=False).random(2**m))

    def test_scrambled_nets_keep_their_strata(self):
        # every coordinate of a 2^m-point net puts one point in each interval of
        # length 2^-m, and coordinates 1 and 2 form a (0, m, 2)-net
        m = 8
        u = np.empty((3 * 2**m, 32))
        paths._Nets(np.full(3, 2**m), 32, np.random.default_rng(1)).take(u)
        assert np.all((u >= 0.0) & (u < 1.0))
        for net in u.reshape(3, 2**m, 32):
            cells = np.floor(net * 2**m).astype(int)
            assert all(np.unique(cells[:, i]).size == 2**m for i in range(32))
            for a in range(m + 1):
                box = np.floor(net[:, 0] * 2**a) * 2 ** (m - a) + np.floor(net[:, 1] * 2 ** (m - a))
                assert np.unique(box).size == 2**m

    @pytest.mark.parametrize(
        "sizes", [[32] * 8, [64] * 4, [4096], [1696], [200, 300], [8193], [7, 7, 6], [5, 1, 1], [1, 1]], ids=str
    )
    def test_blocks_read_the_same_points(self, sizes):
        # point j of replicate r is e_r XOR (XOR of L v_k over the bits of gray(j)),
        # built here from the stream alone, whichever blocks the rows are read in
        n, dims = sum(sizes), 32
        bits = int(max(sizes) - 1).bit_length()
        draws = np.random.default_rng(3).integers(0, 2**53, (bits + 1, len(sizes), 1, dims), dtype=np.uint64)
        v = paths._sobol_directions(bits).T  # (k, dim)
        want = []
        for r, size in enumerate(sizes):
            lv = np.zeros((bits, dims), dtype=np.uint64)
            for d in range(bits):
                # column d of L: digit d (bit 52 - d) set, random less significant digits
                digit = np.uint64(1) << np.uint64(52 - d)
                lv ^= np.where(v & digit > 0, draws[d, r, 0] & (digit - np.uint64(1)) | digit, np.uint64(0))
            j = np.arange(size)
            x = np.repeat(draws[bits, r], size, axis=0)
            for k in range(bits):
                x ^= np.where(((j ^ (j >> 1)) >> k & 1)[:, None] == 1, lv[k], np.uint64(0))
            want.append(x)
        want = np.concatenate(want) * 2.0**-53
        for cuts in ([], [1], [n // 3, n // 2], [n - 1]):
            cuts = [c for c in cuts if 0 < c < n]
            nets = paths._Nets(sizes, dims, np.random.default_rng(3))
            parts = [nets.take(np.empty((len(p), dims))) for p in np.split(np.arange(n), cuts)]
            assert np.array_equal(np.concatenate(parts), want)

    def test_points_are_uniform(self):
        # the digital shift makes every point uniform: over 4000 scrambles of a
        # 4-point net each point's coordinates have mean 1/2 and variance 1/12
        u = np.empty((4 * 4000, 32))
        paths._Nets(np.full(4000, 4), 32, np.random.default_rng(5)).take(u)
        per_point = u.reshape(4000, 4, 32)
        assert np.all(np.abs(per_point.mean(axis=0) - 0.5) < 4.0 * np.sqrt(1 / 12 / 4000))
        assert np.all(np.abs(per_point.var(axis=0) - 1 / 12) < 4.0 * np.sqrt(1 / 180 / 4000))

    @pytest.mark.parametrize("name", ["power-2^14", "chaos-512", "chaos-64"])
    def test_net_draws_keep_the_mean(self, name):
        # 40 nets of 64 rows: their means scatter around the exact mean sum nu c
        spec, n_steps = _SKIPPING[name]
        w, mu, nu = sb.quadratic_clock_spectrum(spec, 1.0, n_steps)
        means = paths._terminal_law_sampler(spec, 1.0, n_steps)(np.full(40, 64), sb.RngStream(70, 0)).reshape(40, 64).mean(axis=1)
        exact = nu * w.sum() * mu.sum()
        assert abs(means.mean() - exact) < 4.0 * means.std(ddof=1) / np.sqrt(40)

    def test_one_point_replicates_are_the_iid_draw(self):
        # a one-point net is its digital shift, one uniform random point per
        # replicate, so one-point replicates draw i.i.d. rows
        u = np.empty((300, 32))
        paths._Nets(np.ones(300, dtype=int), 32, np.random.default_rng(7)).take(u)
        want = np.random.default_rng(7).integers(0, 2**53, (1, 300, 1, 32), dtype=np.uint64)[0, :, 0]
        assert np.array_equal(u, want * 2.0**-53)
        spec = sb.ChaosClockSpec(sb.geometric_q(0.5, 50))
        got = law_samples(spec, 1.0, 512, 300, sb.RngStream(71, 0))
        assert np.array_equal(got, _reference_spectral_draw(spec, 1.0, 512, 300, sb.RngStream(71, 0)))

    def test_other_clocks_draw_iid_rows(self):
        # no spectral draw, so no nets: the estimators simulate i.i.d. paths
        assert paths._terminal_law_sampler(sb.PowerClockSpec(3.0), 1.0, 64) is None


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


class TestFrozenKernelDigests:
    # one sha256 of each path kernel's output: 300 rows at N = 512, in two
    # row blocks (256 and 44), at two partition times.  An indicator record
    # pins only hit counts; these pin the paths' bits.  The chaos kernels run
    # at q_j = 2^-j, J = 50 (14 sampled terms and the carry).  Their
    # Box-Muller pairs go through numpy's vectorized log and tan, so like the
    # RQMC hex records these digests are pinned for this numpy build and CPU
    @pytest.mark.parametrize(
        "stream, process, expected",
        [
            (0, BM, "74c0d3587f1f4884ae97f26e3baef57efe83e6c7d226d86866912d534aafbe31"),
            (1, sb.ChaosDirectProcess(_GEOMETRIC), "34342905813eab3b01a62a521671cfc297249ea60b37826b2bcc18b4219b4333"),
            (2, sb.TimeChangedProcess(_GEOMETRIC), "3259cc2b64b51ce78f6b18505e1c844d3c201ac42ced3a39efca08bd9d586456"),
            (3, sb.TimeChangedProcess(sb.PowerClockSpec(3.0)), "34c1e847e1896c2df0d3199e8096ae2e094c7ea96e0167130b7b58282fccb21e"),
            (
                4,
                sb.TimeChangedProcess(sb.PowerClockSpec(2.0, rho=(1.5, 0.5))),
                "a25e987b18b4809e17dd9b53add5db58bfb48beaecb3e6fad30dccdfc7b134b0",
            ),
        ],
        ids=["brownian", "chaos-direct", "chaos-time-change", "power-time-change", "stepwise-rho-time-change"],
    )
    def test_sup_samples(self, stream, process, expected):
        sups = sb.sup_samples(process, (0.5, 1.0), 512, 300, sb.RngStream(81, stream))
        assert sups.shape == (300, 2)
        assert _sha256(sups) == expected

    def test_clock_increments(self):
        x = sb.clock_interval_increment_samples(sb.PowerClockSpec(3.0), (0.5, 1.0), 512, 300, sb.RngStream(81, 5))
        assert x.shape == (300, 2)
        assert _sha256(x) == "dcfc5a5d193a8b0f4ae349c5157a66b0352edbd3fe67cb1b828b3341c3ae5367"
