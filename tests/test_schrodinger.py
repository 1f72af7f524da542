"""Ground-state solver tests against closed-form and independent oracles.

Anchors: the harmonic oscillator (p = 2, exact value 1/sqrt(2)), the |x|
potential (Airy function: lambda_1(1) = -a'_1 / 2^(1/3), with a'_1 taken from
scipy.special, independent of our solver), and the hard-wall limit p -> inf.
A pure-Python Sturm-count bisection provides an independent check of the
LAPACK path on small grids.
"""

import numpy as np
import pytest
from scipy import special
from scipy.linalg import lapack

import smallball as sb
from smallball import schrodinger
from smallball.schrodinger import EigenConfig, _even_sector, _grid, _sturm_ground

HARMONIC = 2.0 ** -0.5
SQUARE_WELL = np.pi**2 / 8.0


def airy_lambda1():
    a1p = special.ai_zeros(1)[1][0]  # first zero of Ai'
    return -a1p / 2.0 ** (1.0 / 3.0)


class TestLambda1Values:
    def test_harmonic_oscillator(self):
        res = sb.lambda1(2.0)
        assert res.value == pytest.approx(HARMONIC, abs=1e-9)
        assert res.error_estimate < 1e-8

    def test_airy_potential(self):
        want = airy_lambda1()
        assert want == pytest.approx(0.8086165175, abs=1e-9)
        assert sb.lambda1(1.0).value == pytest.approx(want, abs=1e-6)

    def test_ground_energy_dips_then_rises_in_p(self):
        # raising p deepens the well inside |x| < 1 before the walls win:
        # lambda_1 falls from p = 1 to a minimum near p ~ 4, then climbs to
        # the hard-wall value pi^2/8
        v1 = sb.lambda1(1.0).value
        v2 = sb.lambda1(2.0).value
        v4 = sb.lambda1(4.0).value
        v8 = sb.lambda1(8.0).value
        assert v1 > v2 > v4
        assert v4 < v8 < SQUARE_WELL

    def test_hard_wall_limit(self):
        # |x|^p -> hard wall on (-1, 1); approach is slow but monotone
        cfg = EigenConfig(half_width=1.5, grid_points=2048, richardson_levels=2)
        v50 = sb.lambda1(50.0, cfg).value
        v200 = sb.lambda1(200.0, cfg).value
        assert v50 < v200 < SQUARE_WELL
        assert SQUARE_WELL - v200 < 0.11

    def test_float_conversion(self):
        assert float(sb.lambda1(2.0)) == sb.lambda1(2.0).value


class TestConvergenceBehaviour:
    def test_richardson_differences_shrink_fourfold(self):
        res = sb.lambda1(2.0, EigenConfig(grid_points=1024, richardson_levels=2))
        g = res.grid_values
        ratio = (g[0] - g[1]) / (g[1] - g[2])
        assert 3.0 < ratio < 5.0  # second-order scheme: ~4x per doubling

    @pytest.mark.parametrize("p", [1.0, 2.5, 4.0])
    def test_domain_truncation_independent(self, p):
        a = sb.lambda1(p, EigenConfig(half_width=10.0, grid_points=2048, richardson_levels=1)).value
        b = sb.lambda1(p, EigenConfig(half_width=14.0, grid_points=2048, richardson_levels=1)).value
        # ground state decays like exp(-c x^(1+p/2)); walls at 10 vs 14 are invisible
        # up to the slightly different grid spacing resolved by extrapolation
        assert abs(a - b) < 1e-6

    def test_domain_truncation_matched_spacing(self):
        # same dx on both domains isolates the pure truncation effect
        a = sb.lambda1(2.0, EigenConfig(half_width=10.0, grid_points=2000, richardson_levels=1)).value
        b = sb.lambda1(2.0, EigenConfig(half_width=14.0, grid_points=2800, richardson_levels=1)).value
        assert abs(a - b) < 1e-9


class TestGroundState:
    def test_even_symmetry(self):
        x, psi = sb.ground_state(2.0, EigenConfig(grid_points=1024, richardson_levels=1))
        assert np.max(np.abs(psi - psi[::-1])) < 1e-8
        assert np.max(np.abs(x + x[::-1])) < 1e-12

    def test_normalized_and_positive(self):
        x, psi = sb.ground_state(1.0, EigenConfig(grid_points=512, richardson_levels=1))
        dx = x[1] - x[0]
        sq = psi**2
        norm_sq = dx * (sq.sum() - 0.5 * (sq[0] + sq[-1]))
        assert norm_sq == pytest.approx(1.0, rel=1e-10)
        assert psi.min() > -1e-10  # ground state has no sign change

    def test_rayleigh_quotient_matches_eigenvalue(self):
        cfg = EigenConfig(grid_points=2048, richardson_levels=1)
        x, psi = sb.ground_state(2.0, cfg)
        n = cfg.grid_points * 2
        dx = 2.0 * cfg.half_width / n
        lap = np.zeros_like(psi)
        lap[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / dx**2
        lap[0] = (psi[1] - 2 * psi[0]) / dx**2
        lap[-1] = (psi[-2] - 2 * psi[-1]) / dx**2
        h_psi = -0.5 * lap + np.abs(x) ** 2 * psi
        rq = np.sum(psi * h_psi) / np.sum(psi * psi)
        assert rq == pytest.approx(sb.lambda1(2.0, cfg).grid_values[-1], rel=1e-9)


def _sturm_count(diag, off2, lam):
    """Eigenvalues strictly below lam, by the classic LDL^T sign recurrence."""
    count = 0
    d = 1.0
    for i in range(len(diag)):
        d = diag[i] - lam - (off2[i - 1] / d if i else 0.0)
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


class TestIndependentSturmOracle:
    @pytest.mark.parametrize("p,half_width", [(2.0, 8.0), (1.0, 8.0), (200.0, 1.5)])
    def test_bisection_matches_pure_python_count(self, p, half_width):
        n = 256
        _, diag, off = _grid(p, half_width, n)
        off2 = off**2
        lo, hi = 0.0, float(np.max(diag)) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _sturm_count(diag, off2, mid) >= 1:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        got = sb.lambda1(p, EigenConfig(half_width=half_width, grid_points=n, richardson_levels=1)).grid_values[0]
        assert got == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("n", [192, 193])  # x = 0 a node; x = 0 between two nodes
    def test_matches_dense_eigensolver(self, n):
        _, diag, off = _grid(2.0, 8.0, n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = np.linalg.eigvalsh(dense)[0]
        got = sb.lambda1(2.0, EigenConfig(half_width=8.0, grid_points=n, richardson_levels=1)).grid_values[0]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("half_width", [1.5, 12.0])
    @pytest.mark.parametrize("n", [64, 65, 1024])
    def test_bracket_holds_ground_value(self, p, half_width, n):
        # dstebz by index on the full matrix, with its own Gershgorin bracket.
        # A Sturm count sees lambda only through fl(diag - lambda), so two
        # brackets can end half an ulp of 1/dx^2 apart (7.3e-12 at half_width
        # 1.5, n = 1024); on these inputs they agree to a few ulps of lambda,
        # and p >= 50 keeps a 1e-10 margin for its hard walls.
        _, diag, off = _grid(p, half_width, n)
        m, w, *_, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 2.0 * np.finfo(float).eps, b"E")
        assert info == 0 and m == 1
        got = sb.lambda1(p, EigenConfig(half_width=half_width, grid_points=n, richardson_levels=1)).grid_values[0]
        assert got == pytest.approx(w[0], rel=1e-13 if p <= 10 else 1e-10)

    def test_bracket_without_a_node_below_one(self):
        # n = 65 on [-100, 100]: the first node past 0 is x = 100/65 > 1, so
        # the cos(pi x / 2) trial vector is empty and the bracket falls back
        # to that node's unit vector
        _, diag, off = _grid(1.0, 100.0, 65)
        want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
        got = sb.lambda1(1.0, EigenConfig(half_width=100.0, grid_points=65, richardson_levels=1)).grid_values[0]
        assert got == pytest.approx(want, rel=1e-12)


def _sturm_resolution(half_width, n):
    """Half an ulp of 1/dx^2: how finely a double-precision Sturm count sees lambda."""
    return 0.5 * np.spacing((n / (2.0 * half_width)) ** 2)


def _full_bracket_grid_values(p, cfg):
    """Every level bisected on (0, vu], as before the predicted brackets."""
    values = []
    for k in range(cfg.richardson_levels + 1):
        _, diag, off, trial = _even_sector(p, cfg.half_width, cfg.grid_points * 2**k)
        values.append(_sturm_ground(diag, off, trial))
    return values


class TestPredictedBracket:
    """Refined levels bisect in a certified bracket around the Richardson prediction."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.3, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("half_width", [6.0, 12.0])
    @pytest.mark.parametrize("grid_points", [1024, 1025])
    def test_grid_values_match_full_bracket(self, p, half_width, grid_points):
        cfg = EigenConfig(half_width=half_width, grid_points=grid_points, richardson_levels=2)
        got = sb.lambda1(p, cfg).grid_values
        want = _full_bracket_grid_values(p, cfg)
        for k, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) <= _sturm_resolution(half_width, grid_points * 2**k), (k, a, b)

    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize(
        "shift,half",
        [(5.0, 1e-9), (-0.5, 1e-12), (1e-6, 1e-12), (0.0, 0.0), (1e-9, 1e-9), (-1e-9, 1e-9)],
        ids=["far-above", "far-below", "just-above", "zero-width", "lower-end-on-value", "upper-end-on-value"],
    )
    def test_bad_prediction_widens_to_the_full_bracket_value(self, n, shift, half):
        # the ends widen until certified; an end that lands on the value is
        # padded clear of the Sturm resolution
        _, diag, off, trial = _even_sector(3.0, 12.0, n)
        want = _sturm_ground(diag, off, trial)
        got = _sturm_ground(diag, off, trial, want + shift, half)
        assert abs(got - want) <= _sturm_resolution(12.0, n)

    def test_end_inside_the_sturm_resolution_is_padded(self):
        # LDL^T (dpttrf) and dstebz's Sturm count round differently, so within
        # the Sturm resolution of the value a shift can pass the certificate
        # while dstebz counts the value below it; an unpadded lower end there
        # leaves dstebz an empty bracket
        n = 16384
        _, diag, off, trial = _even_sector(3.3, 12.0, n)
        want = _sturm_ground(diag, off, trial)
        res = _sturm_resolution(12.0, n)
        shifts = [
            s
            for s in np.linspace(want - 3 * res, want + 3 * res, 121)
            if lapack.dpttrf(diag - s, off)[2] == 0 and lapack.dstebz(diag, off, 1, s, 2.0, 0, 0, 1.0, b"E")[0] == 0
        ]
        if not shifts:
            pytest.skip("the two counts agree everywhere on this LAPACK")
        half = 1e-8
        for s in shifts[:: max(1, len(shifts) // 4)]:
            got = _sturm_ground(diag, off, trial, s + half, half)  # lower end at s
            assert abs(got - want) <= res

    def test_forced_bad_prediction_in_lambda1(self, monkeypatch):
        cfg = EigenConfig(grid_points=1024, richardson_levels=2)
        want = _full_bracket_grid_values(2.0, cfg)
        monkeypatch.setattr(schrodinger, "_prediction", lambda raw: (5.0, 1e-6) if raw else (0.0, np.inf))
        got = sb.lambda1(2.0, cfg).grid_values
        for k, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) <= _sturm_resolution(12.0, 1024 * 2**k)

    def test_each_end_is_certified_by_one_factorization(self, monkeypatch):
        # at the default grid the predictions hold: one dpttrf per bracket end
        # of each refined level, none at level 0
        calls = []
        real = lapack.dpttrf
        monkeypatch.setattr(lapack, "dpttrf", lambda d, e: calls.append(len(d)) or real(d, e))
        res = sb.lambda1(3.3)
        assert calls == [4096, 4096, 8192, 8192]
        assert res.grid_values[0] < res.grid_values[1] < res.grid_values[2]

    def test_prediction(self):
        assert schrodinger._prediction([]) == (0.0, np.inf)
        assert schrodinger._prediction([2.0]) == (2.0, 2e-3)
        centre, half = schrodinger._prediction([1.0, 1.0 + 2**-10])
        assert centre == 1.0 + 2**-10 + 2**-12 and half == 2**-14


def _dense_ground_vector(x, diag, off):
    """Full-matrix ground eigenvector, positive, with unit trapezoid norm."""
    _, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    v = np.abs(vecs[:, 0])  # a ground state has one sign
    dx = x[1] - x[0]
    return v / np.sqrt(dx * (v @ v - 0.5 * (v[0] ** 2 + v[-1] ** 2)))


class TestEvenSector:
    """The even-sector reduction reproduces the full matrix's ground state."""

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_ground_state_matches_dense_eigenvector(self, p):
        cfg = EigenConfig(half_width=8.0, grid_points=96, richardson_levels=1)  # n = 192
        x, psi = sb.ground_state(p, cfg)
        x_full, diag, off = _grid(p, 8.0, 192)
        assert np.array_equal(x, x_full)
        np.testing.assert_allclose(psi, _dense_ground_vector(x_full, diag, off), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_odd_grid_eigenvector_matches_dense(self, p):
        # ground_state's grids are even (richardson_levels >= 1), so the odd
        # sector's eigenvector is checked here: no x = 0 scaling to undo
        n = 193
        x, diag, off = _grid(p, 8.0, n)
        _, sd, so, trial = _even_sector(p, 8.0, n)
        _, half = _sturm_ground(sd, so, trial, vector=True)
        want = _dense_ground_vector(x, diag, off)[-half.size :]
        half = np.abs(half) * (want @ want) ** 0.5 / (half @ half) ** 0.5
        np.testing.assert_allclose(half, want, rtol=0, atol=1e-10)


class TestValidation:
    def test_p_below_one(self):
        with pytest.raises(ValueError):
            sb.lambda1(0.5)
        with pytest.raises(ValueError):
            sb.ground_state(0.0)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [sb.lambda1, sb.ground_state])
    def test_p_not_finite(self, solve, p):
        # nan used to reach dstebz (info=4); inf returned a value from grids
        # whose wall at |x| = 1 moves between levels
        with pytest.raises(ValueError, match="finite"):
            solve(p)

    def test_config_guards(self):
        for half_width in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                EigenConfig(half_width=half_width)
        with pytest.raises(ValueError):
            EigenConfig(grid_points=32)
        with pytest.raises(ValueError):
            EigenConfig(richardson_levels=0)


class TestImplausibleGroundValue:
    """Both entry points share the Sturm helper's checks on the dstebz value."""

    CFG = EigenConfig(grid_points=64, richardson_levels=1)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, 1e300])
    @pytest.mark.parametrize("solve", [sb.lambda1, sb.ground_state])
    def test_raises(self, monkeypatch, solve, bad):
        real = lapack.dstebz

        def fake(*args):
            m, w, iblock, isplit, info = real(*args)
            return m, np.full_like(w, bad), iblock, isplit, info

        monkeypatch.setattr(lapack, "dstebz", fake)
        with pytest.raises(sb.NumericError, match="implausible ground value"):
            solve(2.0, self.CFG)

    def test_failed_bisection_raises(self, monkeypatch):
        real = lapack.dstebz
        monkeypatch.setattr(lapack, "dstebz", lambda *args: (0, *real(*args)[1:4], 1))
        with pytest.raises(sb.NumericError, match="Sturm bisection failed"):
            sb.ground_state(2.0, self.CFG)
