import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from consistency import bartlett_factor_rows, wishart_draws
from wishartsv.errors import InvalidParameter
from wishartsv.matops import uchol
from wishartsv.randsamp import (
    make_rng,
    sample_bartlett_factor,
    sample_beta,
    sample_chi2,
    sample_matrix_beta,
    sample_mvnormal_prec,
    substream,
)

N = 100_000
KS_BOUND = 1.95 / np.sqrt(N)


class TestChi2:
    def test_mean_df2(self):
        draws = sample_chi2(2.0, make_rng(1), size=N)
        assert abs(draws.mean() - 2.0) < 4 * np.sqrt(2 * 2.0 / N)

    def test_fractional_df(self):
        draws = sample_chi2(0.5, make_rng(2), size=N)
        assert abs(draws.mean() - 0.5) < 4 * np.sqrt(2 * 0.5 / N)

    def test_invalid_df(self):
        with pytest.raises(InvalidParameter):
            sample_chi2(-1.0, make_rng(0))

    def test_matches_chi2_law(self):
        draws = sample_chi2(3.7, make_rng(3), size=N)
        assert kstest(draws, chi2_dist(3.7).cdf).statistic < KS_BOUND


class TestBeta:
    def test_uniform_case(self):
        draws = sample_beta(1.0, 1.0, make_rng(4), size=N)
        assert kstest(draws, "uniform").statistic < KS_BOUND

    def test_mean(self):
        draws = sample_beta(3.0, 2.0, make_rng(5), size=N)
        se = np.sqrt(beta_dist(3, 2).var() / N)
        assert abs(draws.mean() - 0.6) < 4 * se

    def test_arcsine_half_moment(self):
        # E[sqrt(eta)] = 2/pi for Beta(1/2, 1/2)
        draws = sample_beta(0.5, 0.5, make_rng(6), size=N)
        root = np.sqrt(draws)
        se = root.std(ddof=1) / np.sqrt(N)
        assert abs(root.mean() - 2 / np.pi) < 4 * se

    def test_invalid_shapes(self):
        with pytest.raises(InvalidParameter):
            sample_beta(0.0, 1.0, make_rng(0))


class TestWishart:
    def test_q1_mean(self):
        draws = wishart_draws(3.0, np.eye(1), make_rng(7), size=N)
        assert abs(draws.mean() - 3.0) < 4 * np.sqrt(6.0 / N)

    def test_q2_mean(self):
        draws = wishart_draws(5.0, np.eye(2), make_rng(8), size=N)
        mean = draws.mean(axis=0)
        # Var(W_ii) = 2 df, Var(W_ij) = df for identity scale
        assert abs(mean[0, 0] - 5.0) < 4 * np.sqrt(10.0 / N)
        assert abs(mean[1, 1] - 5.0) < 4 * np.sqrt(10.0 / N)
        assert abs(mean[0, 1]) < 4 * np.sqrt(5.0 / N)

    def test_scale_mean(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = uchol(a)
        draws = wishart_draws(6.0, p, make_rng(9), size=N)
        np.testing.assert_allclose(draws.mean(axis=0), 6.0 * a, atol=0.1)

    def test_rank_deficient(self):
        w = wishart_draws(1, np.eye(3), make_rng(10))
        eig = np.linalg.eigvalsh(w)
        assert np.sum(eig > 1e-10 * eig.max()) == 1

    def test_q1_reduces_to_chi2(self):
        draws = wishart_draws(4.0, np.array([[2.0]]), make_rng(11), size=N)[:, 0, 0]
        assert kstest(draws / 4.0, chi2_dist(4.0).cdf).statistic < KS_BOUND

    def test_invalid_df(self):
        with pytest.raises(InvalidParameter):
            wishart_draws(1.5, np.eye(3), make_rng(0))


class TestBartlettFactor:
    @pytest.mark.parametrize("size", [None, 4])
    def test_same_bits_as_triu_and_gamma(self, size):
        # the strict lower triangle is +0.0 and the squared diagonal is
        # gamma((df - i) / 2, scale 2), drawn in the same order
        q, df = 3, 4.5
        u = sample_bartlett_factor(q, df, make_rng(15), size=size)
        rng = make_rng(15)
        ref = np.triu(rng.standard_normal((q, q) if size is None else (size, q, q)), k=1)
        idx = np.arange(q)
        ref[..., idx, idx] = np.sqrt(rng.gamma((df - idx) / 2.0, 2.0, size=None if size is None else (size, q)))
        assert u.tobytes() == ref.tobytes()


    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [None, 1, 4])
    def test_same_bits_as_the_row_loop(self, q, size):
        # the masked copy and the strided diagonal of the row-major view give
        # the bits of zeroing row by row and fancy-indexing the diagonal, from
        # the same draws in the same order
        df = q + 0.75
        rng, ref_rng = make_rng(q), make_rng(q)
        for _ in range(2):  # a second call reuses the layout made for q
            u = sample_bartlett_factor(q, df, rng, size=size)
            assert u.tobytes() == bartlett_factor_rows(q, df, ref_rng, size=size).tobytes()
        assert rng.random() == ref_rng.random()


class TestMatrixBeta:
    def test_q1_is_scalar_beta(self):
        draws = sample_matrix_beta(1, 5.0, 1.0, make_rng(12), size=N)[:, 0, 0]
        se = np.sqrt(beta_dist(2.5, 0.5).var() / N)
        assert abs(draws.mean() - 5.0 / 6.0) < 4 * se
        var = beta_dist(2.5, 0.5).var()
        assert abs(draws.var(ddof=1) - var) < 4 * np.sqrt(2.0) * var / np.sqrt(N)

    def test_q3_mean(self):
        draws = sample_matrix_beta(3, 5.0, 1, make_rng(13), size=N)
        mean = draws.mean(axis=0)
        sd = draws.std(axis=0, ddof=1)
        np.testing.assert_array_less(
            np.abs(mean - 5.0 / 6.0 * np.eye(3)), 4 * sd / np.sqrt(N)
        )

    def test_eigenvalues_in_unit_interval(self):
        rng = make_rng(14)
        for _ in range(200):
            b = sample_matrix_beta(2, 4.0, 3.0, rng)
            eig = np.linalg.eigvalsh(b)
            assert np.all(eig >= -1e-12) and np.all(eig <= 1 + 1e-12)

    def test_invalid_df(self):
        with pytest.raises(InvalidParameter):
            sample_matrix_beta(3, 1.5, 5.0, make_rng(0))


class TestMvNormalPrec:
    def test_identity(self):
        rng = make_rng(15)
        draws = np.array([sample_mvnormal_prec(np.eye(2), rng) for _ in range(20_000)])
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=4 * np.sqrt(2.0 / 20_000))

    def test_diagonal_prec(self):
        rng = make_rng(16)
        draws = np.array([sample_mvnormal_prec(np.diag([2.0, 1.0]), rng) for _ in range(20_000)])
        var = draws.var(axis=0, ddof=1)
        assert abs(var[0] - 0.25) < 4 * 0.25 * np.sqrt(2.0 / 20_000)
        assert abs(var[1] - 1.0) < 4 * 1.0 * np.sqrt(2.0 / 20_000)

    def test_full_prec(self):
        factor = np.array([[2.0, 1.0], [0.0, 2.0]])  # factor' factor = [[4, 2], [2, 5]]
        expected = np.array([[5.0, -2.0], [-2.0, 4.0]]) / 16.0
        rng = make_rng(17)
        draws = np.array([sample_mvnormal_prec(factor, rng) for _ in range(50_000)])
        np.testing.assert_allclose(np.cov(draws.T), expected, atol=0.01)


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a1 = sample_chi2(2.5, make_rng(99), size=10)
        a2 = sample_chi2(2.5, make_rng(99), size=10)
        np.testing.assert_array_equal(a1, a2)
        w1 = wishart_draws(5.0, np.eye(3), make_rng(99), size=4)
        w2 = wishart_draws(5.0, np.eye(3), make_rng(99), size=4)
        np.testing.assert_array_equal(w1, w2)

    def test_substreams_differ(self):
        x = substream(0, 1).standard_normal(5)
        y = substream(0, 2).standard_normal(5)
        assert not np.array_equal(x, y)
        np.testing.assert_array_equal(x, substream(0, 1).standard_normal(5))
