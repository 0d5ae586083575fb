import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import cauchy

from wishartsv.cli import simulate
from wishartsv.errors import DimensionMismatch, InvalidParameter
from wishartsv.filtering import (
    ReturnsSeries,
    bb_forward_filter,
    constrained_lambda,
    forecast_logdensity,
    grid_search,
    marginal_loglik,
    ue_forward_filter,
)
from wishartsv.volproc import UEHyper, match_ue_to_bb


def toy_series(T=40, q=2, seed=0):
    rng = np.random.default_rng(seed)
    return ReturnsSeries(rng.standard_normal((T, q)))


def mvt_const(n, q):
    return gammaln((n + 1.0) / 2.0) - gammaln((n + 1.0 - q) / 2.0) - 0.5 * q * math.log(math.pi)


def dense_loglik(returns, n, lam, d0):
    """Marginal log likelihood from the dense recursion D_t = lam D_{t-1} + r_t r_t'."""
    T, q = returns.shape
    d = np.array(d0, dtype=float)
    total = T * mvt_const(n, q)
    for r in returns:
        s = r @ np.linalg.solve(d, r)
        total -= 0.5 * (q * math.log(lam) + np.linalg.slogdet(d)[1]) + 0.5 * (n + 1.0) * math.log1p(s / lam)
        d = lam * d + np.outer(r, r)
    return total


def decimal_loglik(returns, n, lam, digits=60):
    """dense_loglik in ``digits``-digit decimal arithmetic (d0 = I).

    Each step solves D_{t-1} x = r_t by Gaussian elimination, which also
    gives |D_{t-1}| as the product of the pivots.  Inputs are converted
    exactly from binary, so the only rounding is at ``digits`` digits,
    far below what the conditioning of D_t costs in double precision.
    """
    T, q = returns.shape
    with localcontext() as ctx:
        ctx.prec = digits
        lam_d = Decimal(lam)
        d = [[Decimal(int(i == j)) for j in range(q)] for i in range(q)]
        total = Decimal(0)
        for row in returns:
            r = [Decimal(float(x)) for x in row]
            a = [d[i][:] + [r[i]] for i in range(q)]
            det = Decimal(1)
            for k in range(q):
                det *= a[k][k]
                for i in range(k + 1, q):
                    f = a[i][k] / a[k][k]
                    for j in range(k, q + 1):
                        a[i][j] -= f * a[k][j]
            x = [Decimal(0)] * q
            for i in reversed(range(q)):
                x[i] = (a[i][q] - sum(a[i][j] * x[j] for j in range(i + 1, q))) / a[i][i]
            s = sum(r[i] * x[i] for i in range(q))
            total -= (q * lam_d.ln() + det.ln()) / 2 + Decimal(n + 1.0) / 2 * (1 + s / lam_d).ln()
            d = [[lam_d * d[i][j] + r[i] * r[j] for j in range(q)] for i in range(q)]
    return float(total) + T * mvt_const(n, q)


class TestReturnsSeries:
    def test_shape_properties(self):
        s = toy_series(10, 3)
        assert s.T == 10 and s.q == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameter):
            ReturnsSeries(np.array([[1.0, np.nan]]))

    def test_timestamp_length(self):
        with pytest.raises(DimensionMismatch):
            ReturnsSeries(np.zeros((3, 1)), timestamps=("a", "b"))


class TestForecastDensity:
    def test_standard_cauchy(self):
        # q = 1, n = 1, lam = 1, D = 1
        for r in (0.0, 0.5, -2.0, 7.0):
            lhs = forecast_logdensity(np.array([r]), np.eye(1), 1.0, 1.0)
            assert lhs == pytest.approx(cauchy.logpdf(r), rel=1e-12)

    def test_scalar_integrates_to_one(self):
        val, _ = quad(
            lambda r: math.exp(forecast_logdensity(np.array([r]), np.array([[2.0]]), 4.0, 0.8)),
            -np.inf,
            np.inf,
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_q2_integrates_to_one(self):
        d = np.array([[1.5, 0.4], [0.4, 1.0]])
        inner = lambda r1: quad(
            lambda r2: math.exp(
                forecast_logdensity(np.array([r1, r2]), d, 5.0, 0.7)
            ),
            -np.inf,
            np.inf,
        )[0]
        val, _ = quad(inner, -np.inf, np.inf, limit=100)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_df_bound(self):
        with pytest.raises(InvalidParameter):
            forecast_logdensity(np.zeros(3), np.eye(3), 2.0, 0.8)


class TestForwardFilters:
    def test_ue_recursion_values(self):
        data = ReturnsSeries(np.array([[1.0], [2.0]]))
        ue = UEHyper(q=1, k=1, n=3, lam=0.5, d0=np.eye(1))
        filt = ue_forward_filter(data, ue)
        np.testing.assert_allclose(filt.g[:, 0, 0] ** 2, [1.0, 1.5, 4.75])
        np.testing.assert_allclose(filt.k_seq, [4.0, 4.0, 4.0])
        assert filt.loglik == pytest.approx(filt.log_forecast.sum())

    def test_bb_k_recursion(self):
        data = toy_series(5, 2, seed=1)
        bb = match_ue_to_bb(UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2)))
        filt = bb_forward_filter(data, bb)
        expect = [6.0]
        for _ in range(5):
            expect.append(bb.beta * expect[-1] + 1.0)
        np.testing.assert_allclose(filt.k_seq, expect)

    def test_matched_equivalence(self):
        data = toy_series(60, 3, seed=2)
        ue = UEHyper(q=3, k=1, n=5, lam=0.8, d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        fu = ue_forward_filter(data, ue)
        fb = bb_forward_filter(data, bb)
        np.testing.assert_array_equal(fu.g, fb.g)
        np.testing.assert_allclose(fu.log_forecast, fb.log_forecast, rtol=1e-12)
        assert fu.loglik == pytest.approx(fb.loglik, rel=1e-12)
        np.testing.assert_allclose(fb.k_seq, np.full(61, 6.0))

    def test_p_chol_matches_definition(self):
        # G_t is upper with positive diagonal and G_t G_t' = k D_t, so
        # P_t = G_t^{-1} is uchol((k D_t)^{-1}); D_t from the dense recursion
        data = toy_series(4, 3, seed=3)
        d = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
        ue = UEHyper(q=3, k=1, n=5, lam=0.8, d0=d)
        filt = ue_forward_filter(data, ue)
        for t in range(5):
            g = filt.g[t]
            assert np.all(np.tril(g, -1) == 0) and np.all(g.diagonal() > 0)
            np.testing.assert_allclose(g @ g.T, d, rtol=1e-12)
            p = np.linalg.inv(g)
            np.testing.assert_allclose(p.T @ p, np.linalg.inv(d), rtol=1e-9, atol=1e-12)
            if t < 4:
                d = 0.8 * d + np.outer(data.returns[t], data.returns[t])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ue_forward_filter(toy_series(5, 2), UEHyper(q=3, k=1, n=5, lam=0.8, d0=np.eye(3)))


class TestMarginalLoglik:
    def test_matches_filter_sum(self):
        data = toy_series(80, 2, seed=4)
        ue = UEHyper(q=2, k=1, n=6, lam=0.85, d0=np.eye(2))
        filt = ue_forward_filter(data, ue)
        assert marginal_loglik(data, 6.0, 0.85, np.eye(2)) == pytest.approx(
            filt.loglik, rel=1e-12
        )

    def test_invalid_n(self):
        with pytest.raises(InvalidParameter):
            marginal_loglik(toy_series(5, 3), 1.5, 0.8, np.eye(3))

    def test_ill_conditioned_against_decimal_reference(self):
        # criterion 13's series, drawn from the UE law: cond(D_t) passes
        # 1e16, so no double-precision recursion is exact here, but an
        # error in one step's s_t must not carry into every later step
        ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
        data, _ = simulate("ue", ue, 1000, seed=42)
        ref = decimal_loglik(data.returns, 6.0, 0.85)
        assert marginal_loglik(data, 6.0, 0.85, np.eye(3)) == pytest.approx(ref, rel=1e-3)
        assert ue_forward_filter(data, ue).loglik == pytest.approx(ref, rel=1e-3)


class TestGridSearch:
    def test_recovers_argmax(self):
        data = toy_series(200, 3, seed=5)
        d0 = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
        n_grid = [3.0, 5.0, 8.0]
        lam_grid = [0.7, 0.9]
        n_star, lam_star, surface = grid_search(data, d0, n_grid, lam_grid)
        i, j = np.unravel_index(np.argmax(surface), surface.shape)
        assert n_star == n_grid[i] and lam_star == lam_grid[j]
        assert surface.shape == (3, 2)
        for i, n in enumerate(n_grid):
            for j, lam in enumerate(lam_grid):
                ref = dense_loglik(data.returns, n, lam, d0)
                assert surface[i, j] == pytest.approx(ref, rel=1e-10)
                assert marginal_loglik(data, n, lam, d0) == pytest.approx(ref, rel=1e-10)

    def test_tie_breaks_to_first(self):
        data = ReturnsSeries(np.array([[0.5]]))
        # duplicate grid points: first index must win
        n_star, lam_star, _ = grid_search(data, np.eye(1), [3.0, 3.0], [0.8, 0.8])
        assert (n_star, lam_star) == (3.0, 0.8)

    def test_empty_grid(self):
        with pytest.raises(InvalidParameter):
            grid_search(toy_series(3, 1), np.eye(1), [], [0.8])


class TestConstrainedLambda:
    def test_exact_value(self):
        assert constrained_lambda(10.0, 1.0, 3) == 6.0 / 7.0

    def test_identity_form(self):
        # lambda^{-1} = 1 + k / (n - q - 1)
        lam = constrained_lambda(8.0, 2.0, 2)
        assert 1.0 / lam == pytest.approx(1.0 + 2.0 / 5.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(InvalidParameter):
            constrained_lambda(4.0, 1.0, 3)
