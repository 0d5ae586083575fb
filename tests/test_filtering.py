import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import gammaln
from scipy.stats import cauchy

from consistency import chol_update, factor_path_surface, rchol
from wishartsv.errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite
from wishartsv.filtering import (
    ReturnsSeries,
    _df_path,
    _factor_path,
    _forecast_terms,
    _initial_factor,
    constrained_lambda,
    forward_filter,
    grid_search,
    marginal_loglik,
    simulate,
)
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb


def toy_series(T=40, q=2, seed=0):
    rng = np.random.default_rng(seed)
    return ReturnsSeries(rng.standard_normal((T, q)))


def scale_terms(returns, d0, discount):
    """(g, b, logdet): the factor path from D_0 and its forecast terms."""
    g = _factor_path(returns, _initial_factor(d0, returns.shape[1]), discount)
    return (g, *_forecast_terms(np.diagonal(g, axis1=1, axis2=2), discount))


def one_step(r, d, n, lam):
    """The one-step forecast log density of r given D = d: ``marginal_loglik`` of a one-row series."""
    return marginal_loglik(ReturnsSeries(np.asarray(r, dtype=float)[None]), n, lam, d)


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
    """dense_loglik in ``digits``-digit decimal arithmetic (d0 = I), with its two sums.

    Returns (loglik, sum_t log|D_{t-1}|, sum_t log(1 + s_t / lam)); the
    sums do not depend on n, so one pass serves every n at this lam.
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
        logdet, log1p = Decimal(0), Decimal(0)
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
            logdet += det.ln()
            log1p += (1 + s / lam_d).ln()
            d = [[lam_d * d[i][j] + r[i] * r[j] for j in range(q)] for i in range(q)]
        total = -(T * q * lam_d.ln() + logdet) / 2 - Decimal(n + 1.0) / 2 * log1p
    return float(total) + T * mvt_const(n, q), float(logdet), float(log1p)


@functools.cache
def criterion13_reference(lam):
    """Criterion 13's series (the UE law at q = 3, n = 6, lambda = 0.85, T = 1000, seed 42)
    and ``decimal_loglik``'s two sums on it at ``lam``: one 60-digit pass per lam."""
    data, _ = simulate(UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3)), 1000, seed=42)
    return data, decimal_loglik(data.returns, 6.0, lam)


class TestReturnsSeries:
    def test_shape_properties(self):
        s = toy_series(10, 3)
        assert s.T == 10 and s.q == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameter):
            ReturnsSeries(np.array([[1.0, np.nan]]))

    def test_needs_a_column(self):
        # q = 0 would reach grid_search and marginal_loglik as a numpy
        # reduction error; T = 0 is a valid empty series
        with pytest.raises(DimensionMismatch):
            ReturnsSeries(np.zeros((3, 0)))
        assert ReturnsSeries(np.zeros((0, 2))).T == 0


class TestForecastDensity:
    # the density reads lambda and D only through lambda D, so lambda = 1
    # (outside the grid's (0, 1)) is run as lambda = 0.5 with D doubled
    def test_standard_cauchy(self):
        # q = 1, n = 1, lam D = 1
        for r in (0.0, 0.5, -2.0, 7.0):
            lhs = one_step([r], 2.0 * np.eye(1), 1.0, 0.5)
            assert lhs == pytest.approx(cauchy.logpdf(r), rel=1e-12)

    def test_scalar_integrates_to_one(self):
        val, _ = quad(
            lambda r: math.exp(one_step([r], np.array([[2.0]]), 4.0, 0.8)),
            -np.inf,
            np.inf,
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_q2_integrates_to_one(self):
        d = np.array([[1.5, 0.4], [0.4, 1.0]])
        inner = lambda r1: quad(
            lambda r2: math.exp(one_step([r1, r2], d, 5.0, 0.7)),
            -np.inf,
            np.inf,
        )[0]
        val, _ = quad(inner, -np.inf, np.inf, limit=100)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_matches_dense_closed_form(self):
        # r' D^{-1} r and log|D| from a dense solve and slogdet
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = int(rng.integers(1, 6))
            a = rng.standard_normal((q, q))
            d = a @ a.T + 0.1 * np.eye(q)
            r = rng.standard_normal(q)
            n = q - 1 + 0.01 + 20.0 * rng.random()
            lam = 1.0 if rng.random() < 0.2 else 0.05 + 0.94 * rng.random()
            s = r @ np.linalg.solve(d, r)
            expect = mvt_const(n, q) - 0.5 * (q * math.log(lam) + np.linalg.slogdet(d)[1])
            expect -= 0.5 * (n + 1.0) * math.log1p(s / lam)
            got = one_step(r, 2.0 * d, n, 0.5) if lam == 1.0 else one_step(r, d, n, lam)
            assert got == pytest.approx(expect, rel=1e-13, abs=0)

    def test_2x2_hand_case(self):
        # D^{-1} = (1/16) [[5, -2], [-2, 4]], so r = (1, 1) gives s = 5/16; |D| = 16
        d = np.array([[4.0, 2.0], [2.0, 5.0]])
        expect = mvt_const(3.0, 2) - 0.5 * math.log(16.0) - 2.0 * math.log1p(5.0 / 16.0)
        assert one_step(np.ones(2), 2.0 * d, 3.0, 0.5) == pytest.approx(expect, rel=1e-14)

    def test_df_bound(self):
        for n in (2.0, float("nan")):
            with pytest.raises(InvalidParameter, match="invalid for q=3"):
                one_step(np.zeros(3), np.eye(3), n, 0.8)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan"), float("inf")])
    def test_invalid_lambda(self, lam):
        with pytest.raises(InvalidParameter, match="lambda"):
            one_step(np.ones(2), np.eye(2), 5.0, lam)

    def test_bad_scale(self):
        with pytest.raises(InvalidParameter, match="d0 must be 2x2"):
            one_step(np.ones(2), np.eye(3), 5.0, 0.8)
        with pytest.raises(NotPositiveDefinite):
            one_step(np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 5.0, 0.8)

    def test_overflow_is_reported(self):
        # s = |r|^2 = 2e400 overflows doubles, but log s does not: the log
        # density is finite, with log1p(s / lam) = log s - log lam
        expect = mvt_const(5.0, 2) - math.log(0.9) - 3.0 * (math.log(2.0) + 400.0 * math.log(10.0) - math.log(0.9))
        assert one_step([1e200, 1e200], np.eye(2), 5.0, 0.9) == pytest.approx(expect, rel=1e-14)


class TestForwardFilters:
    def test_ue_recursion_values(self):
        data = ReturnsSeries(np.array([[1.0], [2.0]]))
        ue = UEHyper(q=1, k=1, n=3, lam=0.5, d0=np.eye(1))
        filt = forward_filter(data, ue)
        np.testing.assert_allclose(filt.g[:, 0, 0] ** 2, [1.0, 1.5, 4.75])
        np.testing.assert_allclose(filt.k_seq, [4.0, 4.0, 4.0])
        assert filt.loglik == pytest.approx(filt.log_forecast.sum())

    def test_bb_k_recursion(self):
        data = toy_series(5, 2, seed=1)
        bb = match_ue_to_bb(UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2)))
        filt = forward_filter(data, bb)
        expect = [6.0]
        for _ in range(5):
            expect.append(bb.beta * expect[-1] + 1.0)
        np.testing.assert_allclose(filt.k_seq, expect)

    def test_matched_equivalence(self):
        data = toy_series(60, 3, seed=2)
        ue = UEHyper(q=3, k=1, n=5, lam=0.8, d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        fu = forward_filter(data, ue)
        fb = forward_filter(data, bb)
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
        filt = forward_filter(data, ue)
        assert filt.g.flags.c_contiguous  # the chain appends G_t in its own layout
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
            forward_filter(toy_series(5, 2), UEHyper(q=3, k=1, n=5, lam=0.8, d0=np.eye(3)))

    def test_bb_df_path_error_is_shared_with_simulate(self):
        # k_t runs 10, 6, 4, so the prior df at t=3 is beta k_2 = 2 = q - 1
        bb = BBHyper(q=3, k=1, beta=0.5, b=0.9, k0=10.0, d0=np.eye(3))
        with pytest.raises(InvalidParameter, match="at t=3$") as filtered:
            forward_filter(toy_series(5, 3), bb)
        with pytest.raises(InvalidParameter, match="at t=3$") as simulated:
            simulate(bb, 5, seed=0)
        assert str(filtered.value) == str(simulated.value)
        # t=3 lies past a horizon of 2
        assert forward_filter(toy_series(2, 3), bb).k_seq.tolist() == [10.0, 6.0, 4.0]

    @pytest.mark.parametrize("beta, k0, T", [(0.8, 20.0, 500), (0.9, 18.0, 1000), (0.95, 3.0, 2000), (0.999, 2.0, 5000)])
    def test_bb_df_path_is_exact(self, beta, k0, T):
        # k_t = beta k_{t-1} + 1 in exact rational arithmetic on the same doubles;
        # a loop over t drifts by up to 1.5e-14, one closed form from k_inf alone
        # cancels at k_0 << k_inf (the last case)
        exact = [Fraction(k0)]
        for _ in range(T):
            exact.append(Fraction(beta) * exact[-1] + 1)
        exact = np.array([float(x) for x in exact])
        k_seq = _df_path(BBHyper(q=2, k=1, beta=beta, b=0.9, k0=k0, d0=np.eye(2)), T)[1]
        assert np.max(np.abs(k_seq - exact) / exact) <= 5e-16

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        c=st.sampled_from([1e-150, 1.0, 1e150]),
        T=st.integers(0, 1),
        r=st.floats(-10.0, 10.0),
        d0=st.floats(1e-2, 1e2),
        n=st.floats(0.5, 20.0),
        lam=st.floats(0.05, 0.99),
    )
    def test_scale_equivariance(self, c, T, r, d0, n, lam):
        # returns x c and D_0 x c^2 give D_t x c^2: b_t = log(1 + s_t / lam)
        # is unchanged and each forecast log density drops by q log c.  b_t
        # is a difference of logs of size up to |log c| = 345, so it holds
        # to an absolute, not a relative, bound
        returns = np.full((T, 1), r)
        b = scale_terms(returns, np.array([[d0]]), lam)[1]
        b_c = scale_terms(c * returns, np.array([[c * c * d0]]), lam)[1]
        np.testing.assert_allclose(b_c, b, rtol=0, atol=1e-12)
        ue = UEHyper(q=1, k=1, n=n, lam=lam, d0=np.array([[d0]]))
        ue_c = UEHyper(q=1, k=1, n=n, lam=lam, d0=np.array([[c * c * d0]]))
        ll = forward_filter(ReturnsSeries(returns), ue).loglik
        ll_c = forward_filter(ReturnsSeries(c * returns), ue_c).loglik
        assert ll_c == pytest.approx(ll - T * np.log(c), rel=1e-12, abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        q=st.integers(1, 5),
        T=st.integers(0, 8),
        discount=st.floats(0.05, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_pass_matches_stacked_updates(self, q, T, discount, seed):
        # the reference advances J G_t' J with the stacked chol_update and
        # solves against each G_{t-1} on its own.  The pass takes rho from
        # math.hypot and chol_update from np.hypot, which round differently:
        # over 20 000 random cases of this strategy G differed by at most
        # 8.6e-16 per matrix (max-norm relative)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((q, q))
        d0 = a @ a.T + 0.1 * np.eye(q)
        returns = rng.standard_normal((T, q))
        g, b, logdet = scale_terms(returns, d0, discount)
        g_rev = rchol(d0).T[::-1, ::-1][None]
        ref = [g_rev[0].T[::-1, ::-1]]
        for r in returns:
            g_rev = chol_update(np.sqrt(discount) * g_rev, r[::-1][None])
            ref.append(g_rev[0].T[::-1, ::-1])
        ref = np.array(ref)
        assert (np.abs(g - ref).max(axis=(1, 2)) <= 1e-14 * np.abs(ref).max(axis=(1, 2))).all()
        w = [solve_triangular(ref[t], returns[t]) for t in range(T)]
        np.testing.assert_allclose(b, [math.log1p(wt @ wt / discount) for wt in w], rtol=0, atol=1e-13)
        np.testing.assert_array_equal(logdet, [2.0 * np.log(gt.diagonal()).sum() for gt in g[:-1]])

    def test_overflow_is_reported(self):
        # s_t overflows double precision although each log density is finite.
        # The 1e200 references are 900-digit mpmath runs of the dense
        # recursion.  In the pegged case, D_0 = 1e-300 I and a zero second
        # column shrink G's second pivot by sqrt(0.01) a step, to 1e-315, and
        # the last return then meets it; its reference is the closed form of
        # the diagonal recursion in 60-digit mpmath
        ue = UEHyper(q=2, k=1, n=5, lam=0.9, d0=np.eye(2))
        big = np.array([[1e200, 1e200], [1e200, -1e200]])
        pegged = np.zeros((166, 2))
        pegged[:, 0], pegged[-1, 1] = 1.0, 1.0
        for returns, d0, lam, expect in (
            (big, np.eye(2), 0.9, -5992.81470722051),
            (np.vstack([np.ones(2), big]), np.eye(2), 0.9, -5994.22008735693),
            (pegged, 1e-300 * np.eye(2), 0.01, 81184.71355973482),
        ):
            data, hyper = ReturnsSeries(returns), UEHyper(q=2, k=1, n=5, lam=lam, d0=d0)
            for run in (
                lambda: forward_filter(data, hyper).loglik,
                lambda: forward_filter(data, match_ue_to_bb(hyper)).loglik,
                lambda: marginal_loglik(data, 5.0, lam, d0),
                lambda: grid_search(data, d0, [5.0], [lam])[2][0, 0],
            ):
                assert run() == pytest.approx(expect, rel=1e-12)
        # the first t at which G_t is not finite is named: G_t overflows from
        # t=3 in the first series; in the other two, G_2's entry off the
        # diagonal overflows while both its pivots stay finite, and the third
        # series' last return then makes a pivot of G_3 infinite
        off = np.array([[1.7260981682604566e308, 1.1602498958633312e308],
                        [1.7237577868070446e308, 6.859659004083275e307]])
        for returns, t in (
            (np.vstack([big[:1], np.full((3, 2), 1.7e308)]), 3),
            (off, 2),
            (np.vstack([off, np.ones(2)]), 2),
        ):
            late_g = ReturnsSeries(returns)
            for run in (
                lambda: forward_filter(late_g, ue),
                lambda: forward_filter(late_g, match_ue_to_bb(ue)),
                lambda: marginal_loglik(late_g, 5.0, 0.9, np.eye(2)),
                lambda: grid_search(late_g, np.eye(2), [5.0], [0.9]),
            ):
                with pytest.raises(InvalidParameter, match=f"D_t is not finite at t={t}$"):
                    run()

    def test_zero_pivot_is_reported(self):
        # D_0 = 1e-310 I and a zero second column shrink (G_t)_11 by sqrt(0.01)
        # a step until it rounds to 0 at t=169; the message names G's row and t
        data, d0 = ReturnsSeries(np.tile([1e-150, 0.0], (400, 1))), 1e-310 * np.eye(2)
        hyper = UEHyper(q=2, k=1, n=5, lam=0.01, d0=d0)
        for run in (
            lambda: forward_filter(data, hyper),
            lambda: forward_filter(data, match_ue_to_bb(hyper)),
            lambda: marginal_loglik(data, 5.0, 0.01, d0),
            lambda: grid_search(data, d0, [5.0], [0.5, 0.01]),
        ):
            with pytest.raises(NotPositiveDefinite, match="^zero pivot in rank-1 update at row 1 at t=169$"):
                run()


class TestMarginalLoglik:
    def test_matches_filter_sum(self):
        data = toy_series(80, 2, seed=4)
        ue = UEHyper(q=2, k=1, n=6, lam=0.85, d0=np.eye(2))
        filt = forward_filter(data, ue)
        assert marginal_loglik(data, 6.0, 0.85, np.eye(2)) == pytest.approx(
            filt.loglik, rel=1e-12
        )

    def test_invalid_n(self):
        for n in (1.5, float("nan")):
            with pytest.raises(InvalidParameter):
                marginal_loglik(toy_series(5, 3), n, 0.8, np.eye(3))

    @pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0, float("nan")])
    def test_invalid_lambda(self, lam):
        with pytest.raises(InvalidParameter, match="lambda"):
            marginal_loglik(toy_series(5, 2), 5.0, lam, np.eye(2))

    def test_ill_conditioned_against_decimal_reference(self):
        # criterion 13's series, drawn from the UE law: cond(D_t) passes
        # 1e16, so no double-precision recursion is exact here, but an
        # error in one step's forecast terms must not carry into every later
        # step.  The error is 8.7e-4 relative, almost all of it in
        # sum_t log|D_{t-1}|, from drift in G's small diagonal entries
        data, (ref, _, _) = criterion13_reference(0.85)
        ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
        assert marginal_loglik(data, 6.0, 0.85, np.eye(3)) == pytest.approx(ref, rel=1e-3)
        assert forward_filter(data, ue).loglik == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("lam", [0.80, 0.85, 0.90])
    def test_ill_conditioned_error_is_flat_in_n(self, lam):
        # on criterion 13's series the surface error is mostly G's drift in
        # sum_t log|D_{t-1}|, which does not depend on n; the forecast terms
        # log(1 + s_t / lam) are read off the same G, so over n = 3..20 the
        # error moves by 1.5, 0.27 and 1.3 nats at these lambdas (a solve for
        # s_t against the drifted G moved it by 21.5, 40.4 and 43.5 nats)
        data, (_, logdet, log1p) = criterion13_reference(lam)
        n_grid = np.arange(3.0, 21.0)
        T, q = data.returns.shape
        ref = T * mvt_const(n_grid, q) - 0.5 * (T * q * math.log(lam) + logdet) - 0.5 * (n_grid + 1.0) * log1p
        err = grid_search(data, np.eye(3), n_grid, [lam])[2][:, 0] - ref
        assert err.max() - err.min() <= 5.0


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

    @pytest.mark.parametrize("q", range(1, 6))
    def test_matches_the_factor_path_route(self, q):
        # byte for byte against one whole factor path per lambda, on returns
        # from 1e-150 to 1e150 and on criterion 13's series (cond(D_t) > 1e16)
        rng = np.random.default_rng(60 + q)
        a = rng.standard_normal((q, q))
        d0 = a @ a.T + np.eye(q)
        n_grid, lambda_grid = np.arange(q - 0.5, q + 12.0), [0.6, 0.85, 0.95, 0.999]
        cases = [(ReturnsSeries(rng.standard_normal((400, q)) * 10.0**u), d0 * 10.0**u) for u in (-150, 0, 150)]
        if q == 3:
            cases.append((criterion13_reference(0.85)[0], np.eye(3)))
        for data, d in cases:
            surface = grid_search(data, d, n_grid, lambda_grid)[2]
            assert surface.tobytes() == factor_path_surface(data, d, n_grid, lambda_grid).tobytes()

    def test_tie_breaks_to_first(self):
        data = ReturnsSeries(np.array([[0.5]]))
        # duplicate grid points: first index must win
        n_star, lam_star, _ = grid_search(data, np.eye(1), [3.0, 3.0], [0.8, 0.8])
        assert (n_star, lam_star) == (3.0, 0.8)

    def test_empty_grid(self):
        with pytest.raises(InvalidParameter):
            grid_search(toy_series(3, 1), np.eye(1), [], [0.8])

    def test_nan_n(self):
        with pytest.raises(InvalidParameter, match="n=nan"):
            grid_search(toy_series(3, 1), np.eye(1), [float("nan"), 3.0], [0.9])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: grid_search(toy_series(3, 1), np.eye(1), [3.0, np.inf], [0.9]),
            lambda: marginal_loglik(toy_series(3, 1), np.inf, 0.9, np.eye(1)),
        ],
        ids=["grid_search", "marginal_loglik"],
    )
    def test_infinite_n(self, call):
        # gammaln(inf) - gammaln(inf) would make the surface NaN
        with pytest.raises(InvalidParameter, match="n=inf"):
            call()

    def test_d0_shape(self):
        with pytest.raises(InvalidParameter, match=r"d0 must be 3x3, got \(2, 2\)"):
            grid_search(toy_series(5, 3), np.eye(2), [5.0], [0.8])
        with pytest.raises(InvalidParameter, match=r"d0 must be 2x2, got \(3, 3\)"):
            marginal_loglik(toy_series(5, 2), 5.0, 0.8, np.eye(3))

    def test_d0_asymmetric(self):
        d0 = np.array([[1.0, 0.5], [0.0, 1.0]])
        for run in (
            lambda: grid_search(toy_series(5, 2), d0, [5.0], [0.8]),
            lambda: marginal_loglik(toy_series(5, 2), 5.0, 0.8, d0),
        ):
            with pytest.raises(NotPositiveDefinite, match="not symmetric"):
                run()


class TestNonfiniteD0:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda d0: UEHyper(q=2, k=1, n=5.0, lam=0.9, d0=d0),
            lambda d0: BBHyper(q=2, k=1, beta=0.8, b=0.9, k0=5.0, d0=d0),
            lambda d0: grid_search(ReturnsSeries(np.empty((0, 2))), d0, [5.0], [0.9]),
            lambda d0: grid_search(toy_series(T=3), d0, [5.0], [0.9]),
            lambda d0: marginal_loglik(toy_series(T=3), 5.0, 0.9, d0),
            lambda d0: one_step(np.ones(2), d0, 5.0, 0.9),
        ],
        ids=["UEHyper", "BBHyper", "grid_search-T0", "grid_search", "marginal_loglik", "one_step"],
    )
    def test_rejected(self, call, value):
        d0 = np.eye(2)
        d0[0, 0] = value
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            call(d0)


class TestConstrainedLambda:
    def test_exact_value(self):
        assert constrained_lambda(10.0, 1.0, 3) == 6.0 / 7.0

    def test_identity_form(self):
        # lambda^{-1} = 1 + k / (n - q - 1)
        lam = constrained_lambda(8.0, 2.0, 2)
        assert 1.0 / lam == pytest.approx(1.0 + 2.0 / 5.0, rel=1e-14)

    def test_domain(self):
        for n in (4.0, float("nan")):
            with pytest.raises(InvalidParameter):
                constrained_lambda(n, 1.0, 3)

    @pytest.mark.parametrize("n, k", [(np.inf, 1.0), (5.0, np.nan), (5.0, np.inf), (5.0, 0.0)])
    def test_nonfinite(self, n, k):
        # each returned NaN or 0 instead of a discount in (0, 1)
        with pytest.raises(InvalidParameter, match="finite"):
            constrained_lambda(n, k, 2)
