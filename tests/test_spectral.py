"""Spectral decomposition of antisymmetric matrices: pairing, norms, projections."""

import json

import numpy as np
import pytest

import smallball as sb
from smallball.errors import NumericError
from smallball.spectral import AntisymmetricMatrix, SpectralData


def canonical_block(values, dim=None):
    """Block-diagonal antisymmetric matrix with 2x2 rotation blocks."""
    r = len(values)
    n = dim if dim is not None else 2 * r
    a = np.zeros((n, n))
    for j, v in enumerate(values):
        a[2 * j, 2 * j + 1] = v
        a[2 * j + 1, 2 * j] = -v
    return AntisymmetricMatrix(a)


def random_antisymmetric(rng, n):
    g = rng.standard_normal((n, n))
    return AntisymmetricMatrix(0.5 * (g - g.T))


class TestSingularPairs:
    def test_single_block(self):
        assert sb.singular_pairs(canonical_block([2.5])).q == pytest.approx((2.5,))

    def test_two_blocks_with_padding(self):
        data = sb.singular_pairs(canonical_block([3.0, 1.0], dim=5))
        assert data.q == pytest.approx((3.0, 1.0))
        assert data.one_norm == pytest.approx(8.0)
        assert data.hs_norm_sq == pytest.approx(20.0)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mat = random_antisymmetric(rng, 6)
            data = sb.singular_pairs(mat)
            assert data.hs_norm_sq == pytest.approx(np.sum(mat.a**2), rel=1e-10)

    def test_even_multiplicity_clustering(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            mat = random_antisymmetric(rng, n)
            data = sb.singular_pairs(mat)
            assert len(data.q) <= n // 2
            assert all(a >= b for a, b in zip(data.q, data.q[1:]))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            mat = random_antisymmetric(rng, 8)
            u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            conj = AntisymmetricMatrix(u.T @ mat.a @ u)
            d1, d2 = sb.singular_pairs(mat), sb.singular_pairs(conj)
            assert d2.one_norm == pytest.approx(d1.one_norm, rel=1e-9)
            assert d2.hs_norm_sq == pytest.approx(d1.hs_norm_sq, rel=1e-9)

    def test_zero_matrix_has_empty_spectrum(self):
        assert sb.singular_pairs(AntisymmetricMatrix(np.zeros((4, 4)))).q == ()

    def test_pairing_failure_raises(self):
        # tampered matrix bypassing construction: a genuinely unpaired spectrum
        mat = AntisymmetricMatrix(np.zeros((2, 2)))
        object.__setattr__(mat, "a", np.diag([2.0, 1.0]))
        with pytest.raises(NumericError):
            sb.singular_pairs(mat)


class TestProjection:
    def test_full_projection_is_identity(self):
        rng = np.random.default_rng(8)
        mat = random_antisymmetric(rng, 6)
        assert np.array_equal(sb.project(mat, 6).a, mat.a)

    def test_rank_one_projection_is_zero(self):
        mat = canonical_block([3.0, 1.0])
        assert np.all(sb.project(mat, 1).a == 0.0)

    def test_truncation_error_decreases_to_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mat = random_antisymmetric(rng, 10)
            errs = [np.linalg.norm(sb.project(mat, k).a - mat.a) for k in range(1, 11)]
            assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))
            assert errs[-1] == 0.0

    def test_out_of_range(self):
        mat = canonical_block([1.0])
        with pytest.raises(ValueError):
            sb.project(mat, 0)
        with pytest.raises(ValueError):
            sb.project(mat, 3)


class TestInterlacing:
    def test_full_rank_trivial(self):
        mat = canonical_block([3.0, 1.0])
        assert sb.interlace_check(mat, 4)

    def test_exact_subblock(self):
        assert sb.interlace_check(canonical_block([3.0, 1.0]), 2)

    def test_random_matrices_always_interlace(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            mat = random_antisymmetric(rng, 8)
            k = int(rng.integers(1, 9))
            assert sb.interlace_check(mat, k)

    def test_projected_pairs_interlace_explicitly(self):
        rng = np.random.default_rng(11)
        mat = random_antisymmetric(rng, 10)
        full = sb.singular_pairs(mat).q
        for k in range(2, 11):
            trunc = sb.singular_pairs(sb.project(mat, k)).q
            assert all(t <= f + 1e-10 for t, f in zip(trunc, full))


class TestSpectralData:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralData((1.0, 2.0))  # increasing
        with pytest.raises(ValueError):
            SpectralData((1.0, -1.0))

    def test_norm_definitions(self):
        data = SpectralData((2.0, 1.0, 0.5))
        assert data.one_norm == pytest.approx(2 * 3.5)
        assert data.hs_norm_sq == pytest.approx(2 * 5.25)


class TestConstructionAndLoaders:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            AntisymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            AntisymmetricMatrix(np.zeros((2, 3)))

    def test_tolerance_scales_with_magnitude(self):
        a = np.array([[0.0, 1e8], [-1e8, 0.0]])
        a[0, 1] += 1e-5  # within 1e-12 relative of the 1e8 scale
        AntisymmetricMatrix(a)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("0,3,0,0\n-3,0,0,0\n0,0,0,1\n0,0,-1,0\n")
        mat = sb.load_matrix(path)
        assert sb.singular_pairs(mat).q == pytest.approx((3.0, 1.0))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[0.0, 2.0], [-2.0, 0.0]]))
        assert sb.singular_pairs(sb.load_matrix(path)).q == pytest.approx((2.0,))

    def test_json_shape_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": [[0, 1]]}))
        with pytest.raises(ValueError):
            sb.load_matrix(path)

    def test_loader_validates_antisymmetry(self, tmp_path):
        path = tmp_path / "sym.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(ValueError):
            sb.load_matrix(path)
