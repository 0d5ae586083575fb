"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also enforces the criterion's runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import cauchy, chi2 as chi2_dist, kstest
from scipy.stats import beta as beta_dist

from consistency import joint_consistency_report, kummer_partner
from wishartsv.compare import (
    MixtureConfig,
    log_plr,
    mixture_gibbs,
    ppc_intervals,
)
from wishartsv.filtering import (
    ReturnsSeries,
    constrained_lambda,
    forecast_logdensity,
    forward_filter,
    grid_search,
    marginal_loglik,
    simulate,
)
from wishartsv.matops import gram, uchol
from wishartsv.randsamp import (
    make_rng,
    sample_chi2,
    sample_matrix_beta,
    sample_wishart_bartlett,
)
from wishartsv.smoother import bb_backward_step
from wishartsv.specfun import tricomi_u_neg_half
from wishartsv.volproc import (
    UEHyper,
    example1_moments,
    expected_bb_step,
    match_ue_to_bb,
)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} [{name}]: FAIL")
        raise
    elapsed = time.time() - t0
    if elapsed > budget_s:
        print(f"criterion {num:02d} [{name}]: FAIL (runtime {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds budget {budget_s}s")
    print(f"criterion {num:02d} [{name}]: PASS ({elapsed:.1f}s)")


def test_criterion_01_matched_equivalence():
    with criterion(1, "matched UE/BB equivalence", 30.0):
        rng = np.random.default_rng(101)
        for _ in range(50):
            q = int(rng.integers(1, 4))
            n = q + rng.uniform(0.5, 6.0)
            lam = rng.uniform(0.6, 0.95)
            g = rng.standard_normal((q, q))
            d0 = g.T @ g + q * np.eye(q)
            ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=d0)
            bb = match_ue_to_bb(ue)
            data = ReturnsSeries(rng.standard_normal((100, q)) * rng.uniform(0.5, 2.0))
            fu = forward_filter(data, ue)
            fb = forward_filter(data, bb)
            np.testing.assert_array_equal(fu.g, fb.g)
            np.testing.assert_array_equal(fb.k_seq, np.full(101, n + 1.0))
            assert np.abs(fu.log_forecast - fb.log_forecast).max() < 1e-10
            ml = marginal_loglik(data, n, lam, d0)
            assert abs(ml - fu.loglik) < 1e-10 * max(1.0, abs(ml))
            assert abs(ml - fb.loglik) < 1e-10 * max(1.0, abs(ml))


def test_criterion_02_constrained_lambda():
    with criterion(2, "constrained lambda spot value", 5.0):
        value = constrained_lambda(10.0, 1.0, 3)
        assert value == 6.0 / 7.0
        assert round(value, 3) == 0.857


def test_criterion_03_matrix_beta_mean():
    with criterion(3, "matrix-beta mean", 60.0):
        n_draws = 100_000
        draws = sample_matrix_beta(3, 5.0, 1.0, make_rng(303), size=n_draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(mean - (5.0 / 6.0) * np.eye(3)), 4 * se)


def test_criterion_04_bb_step_moments():
    with criterion(4, "BB conditional-mean formulas", 120.0):
        rng = make_rng(404)
        ue = UEHyper(q=3, k=1, n=5.0, lam=0.8, d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        u = np.triu(rng.standard_normal((3, 3)))
        u[np.diag_indices(3)] = np.abs(u.diagonal()) + 0.5
        phi = u.T @ u
        # direct simulation of U~'U~ (P = I coordinates), 10^6 draws
        n_draws = 1_000_000
        shapes_a = (5.0 - np.arange(3)) / 2.0
        eta = rng.beta(shapes_a, 0.5, size=(n_draws, 3))
        batch = np.broadcast_to(u, (n_draws, 3, 3)).copy()
        idx = np.arange(3)
        batch[:, idx, idx] = np.sqrt(eta) * u.diagonal()
        sims = np.swapaxes(batch, 1, 2) @ batch
        expected = expected_bb_step(phi, bb, p_prev=np.eye(3)) * bb.b
        se = sims.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(sims.mean(axis=0) - expected), 4 * se + 1e-12)
        # diagonal case: shrink ratios are (n - i + 1)/(n - i + 1 + k)
        diag = expected_bb_step(np.diag([2.0, 3.0, 4.0]), bb, p_prev=np.eye(3)) * bb.b
        assert diag[0, 0] == pytest.approx(5.0 / 6.0 * 2.0, rel=1e-12)
        assert diag[1, 1] == pytest.approx(4.0 / 5.0 * 3.0, rel=1e-12)
        assert diag[2, 2] == pytest.approx(3.0 / 4.0 * 4.0, rel=1e-12)


def test_criterion_05_example1_closed_forms():
    with criterion(5, "Example 1 closed forms", 180.0):
        n_draws = 1_000_000
        rng = make_rng(505)
        idx = np.arange(2)
        for lam, v in [(0.25, 1.0), (0.25, 2.0), (0.5, np.sqrt(2.0)), (0.5, np.sqrt(8.0))]:
            # lam * v^2 covers {0.25, 1, 4}; v -> 0 covers 0 via the separate check
            ups = np.array([[v, 0.8 * v], [0.0, v]])
            tab_u, tab_b = example1_moments(ups, lam)
            # BB: theta_i ~ chi2_1 added to the squared diagonal of sqrt(lam) Ups
            theta = sample_chi2(1.0, rng, size=(n_draws, 2))
            u = np.broadcast_to(np.sqrt(lam) * ups, (n_draws, 2, 2)).copy()
            u[:, idx, idx] = np.sqrt(lam * ups.diagonal() ** 2 + theta)
            phis = np.swapaxes(u, 1, 2) @ u
            se_m = phis.std(axis=0, ddof=1) / np.sqrt(n_draws)
            np.testing.assert_array_less(np.abs(phis.mean(axis=0) - tab_b.mean), 4 * se_m)
            sq = (phis - phis.mean(axis=0)) ** 2
            se_v = sq.std(axis=0, ddof=1) / np.sqrt(n_draws)
            np.testing.assert_array_less(np.abs(phis.var(axis=0) - tab_b.var), 4 * se_v)
            # UE: Phi_t = lam Phi_{t+1} + z z', z ~ N(0, I)
            z = rng.standard_normal((n_draws, 2))
            zz = z[:, :, None] * z[:, None, :]
            phis_u = lam * (ups.T @ ups) + zz
            se_m = phis_u.std(axis=0, ddof=1) / np.sqrt(n_draws)
            np.testing.assert_array_less(np.abs(phis_u.mean(axis=0) - tab_u.mean), 4 * se_m)
            sq = (phis_u - phis_u.mean(axis=0)) ** 2
            se_v = sq.std(axis=0, ddof=1) / np.sqrt(n_draws)
            np.testing.assert_array_less(np.abs(phis_u.var(axis=0) - tab_u.var), 4 * se_v)
        # lam * v^2 = 0 limit enters through the Tricomi value at z = 0
        tab_u0, tab_b0 = example1_moments(np.array([[0.0, 0.0], [0.0, 0.0]]) + 1e-300, 0.5)
        np.testing.assert_allclose(tab_b0.mean.diagonal(), [1.0, 1.0], rtol=1e-10)


def test_criterion_06_tricomi_anchors():
    with criterion(6, "Tricomi anchors", 10.0):
        assert abs(tricomi_u_neg_half(0.0) - 1.0 / np.sqrt(np.pi)) < 1e-8
        for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(tricomi_u_neg_half(z) - kummer_partner(z)) < 1e-8
        # U(1/2, 2, z) = U(-1/2, 0, z) / z ~ z^{-1/2}
        assert tricomi_u_neg_half(200.0) / 200.0 == pytest.approx(200.0 ** -0.5, rel=0.02)


def test_criterion_07_joint_consistency():
    with criterion(7, "backward-sampler joint consistency", 300.0):
        for q in (1, 2, 3):
            ue = UEHyper(q=q, k=1, n=5.0, lam=0.8, d0=np.eye(q))
            bb = match_ue_to_bb(ue)
            rep_u = joint_consistency_report("ue", ue, np.eye(q), 6.0, 100_000, make_rng(700 + q))
            rep_b = joint_consistency_report("bb", bb, np.eye(q), 6.0, 100_000, make_rng(710 + q))
            for rep in (rep_u, rep_b):
                worst = max(
                    np.abs(rep[k]).max()
                    for k in ("z_mean_t", "z_mean_next", "z_second_t", "z_second_next", "z_cross")
                )
                assert worst < 4.0
        # BB diagonal increments against their chi-square law
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
        bb = match_ue_to_bb(ue)
        data = ReturnsSeries(np.random.default_rng(7).standard_normal((3, 2)))
        fb = forward_filter(data, bb)
        t = 2
        g_t, k_t = fb.g[t], fb.k_seq[t]
        f_next = np.sqrt(fb.k_seq[t + 1]) * np.linalg.inv(fb.g[t + 1])  # Phi_{t+1} = k_{t+1} D_{t+1}^{-1}
        base = uchol(bb.b * g_t.T @ f_next.T @ f_next @ g_t).diagonal() ** 2
        n_draws = 20_000
        df = (1.0 - bb.beta) * k_t
        theta = sample_chi2(df, make_rng(777), size=(n_draws, 2))
        f_t = bb_backward_step(np.broadcast_to(f_next, (n_draws, 2, 2)), g_t, bb.b, theta)
        thetas = np.diagonal(uchol(g_t.T @ gram(f_t) @ g_t), axis1=1, axis2=2) ** 2 - base
        for i in range(2):
            assert kstest(thetas[:, i], chi2_dist(df).cdf).statistic < 1.95 / np.sqrt(n_draws)


def test_criterion_08_nonequivalence_detection():
    with criterion(8, "UE/BB non-equivalence detection", 120.0):
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.5, d0=np.eye(2))
        rep = joint_consistency_report(
            "ue", ue, np.eye(2), 6.0, 100_000, make_rng(42), backward_model="bb"
        )
        off = np.abs(rep["z_cross"][0, 1])
        assert off > 4.0


def test_criterion_09_forecast_normalization():
    with criterion(9, "forecast density normalization", 60.0):
        for r in (-3.0, -1.0, 0.0, 0.5, 2.0):
            lhs = np.exp(forecast_logdensity(np.array([r]), np.eye(1), 1.0, 1.0))
            assert abs(lhs - cauchy.pdf(r)) < 1e-6
        # q = 2 mixture oracle: E_Phi[N(r | 0, Phi^{-1})] over the prior
        d = np.array([[1.5, 0.4], [0.4, 1.0]])
        n, lam = 5.0, 0.8
        rng = make_rng(909)
        p = uchol(np.linalg.inv(lam * d))  # P' P = (lam D)^{-1}
        phis = sample_wishart_bartlett(n, p, rng, size=200_000)
        ld = np.linalg.slogdet(phis)[1]
        for r in (np.array([0.3, -0.5]), np.array([1.5, 1.0])):
            qf = np.einsum("i,nij,j->n", r, phis, r)
            dens = np.exp(0.5 * ld - 0.5 * qf - np.log(2 * np.pi))
            se = dens.std(ddof=1) / np.sqrt(dens.size)
            closed = np.exp(forecast_logdensity(r, d, n, lam))
            assert abs(dens.mean() - closed) < 4 * se


def test_criterion_10_mixture_degenerate_calibration():
    with criterion(10, "mixture Gibbs degenerate calibration", 120.0):
        rng = np.random.default_rng(10)
        data = ReturnsSeries(rng.standard_normal((10, 2)))
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
        bb = match_ue_to_bb(ue)
        for a0, b0 in ((1.0, 1.0), (10.0, 1.0)):
            cfg = MixtureConfig(a0=a0, b0=b0, iterations=4000, burn_in=500, seed=1000 + int(a0))
            tr = mixture_gibbs(data, ue, bb, cfg, degenerate=True)
            thinned = tr.alpha[::10]
            stat = kstest(thinned, beta_dist(a0, b0).cdf).statistic
            assert stat < 3.0 / np.sqrt(thinned.size)
            # the count identity of the conjugate update, on the kept draws
            s = tr.z.sum(axis=1)
            np.testing.assert_array_equal(
                (a0 + s) + (b0 + tr.z.shape[1] - s), np.full(len(s), a0 + b0 + tr.z.shape[1])
            )


def test_criterion_11_plr_properties():
    with criterion(11, "PLR properties", 10.0):
        rng = np.random.default_rng(11)
        ll_a = rng.normal(-40.0, 3.0, size=30)
        ll_b = rng.normal(-42.0, 3.0, size=30)
        ab = log_plr(ll_a, ll_b)
        assert ab == pytest.approx(-log_plr(ll_b, ll_a), rel=1e-12)
        assert log_plr(ll_a, ll_a) == pytest.approx(0.0, abs=1e-12)
        c = 7.25
        shifted = log_plr(ll_a + c, ll_b)
        assert shifted == pytest.approx(ab + c, rel=1e-12)
        huge = log_plr(ll_a - 1e4, ll_b - 1e4)
        assert np.isfinite(huge) and huge == pytest.approx(ab, rel=1e-9)


def test_criterion_12_ppc_calibration():
    with criterion(12, "PPC calibration", 60.0):
        # the constrained discount does not keep the simulated series
        # well-conditioned: with seed 1 the returns shrink by orders of
        # magnitude and cond(D_t) passes 1e16, so the filters must work
        # on factors throughout
        n = 8.0
        lam = constrained_lambda(n, 1.0, 3)
        ue = UEHyper(q=3, k=1, n=n, lam=lam, d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        data, _ = simulate(ue, 2000, seed=1)
        fu = forward_filter(data, ue)
        fb = forward_filter(data, bb)
        lengths_u, cov_u = ppc_intervals(fu, data, level=0.95)
        lengths_b, cov_b = ppc_intervals(fb, data, level=0.95)
        assert 0.935 <= cov_u[-1] <= 0.965
        np.testing.assert_allclose(lengths_u, lengths_b, rtol=1e-12)
        np.testing.assert_allclose(cov_u, cov_b, rtol=1e-12)


def test_criterion_13_end_to_end_smoke():
    with criterion(13, "end-to-end grid recovery", 300.0):
        ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
        data, _ = simulate(ue, 1000, seed=42)
        n_grid = list(range(3, 21))
        lam_grid = [round(0.600 + 0.005 * i, 3) for i in range(79)]  # 5x coarsened
        n_star, lam_star, _ = grid_search(data, np.eye(3), n_grid, lam_grid)
        assert 4 <= n_star <= 9
        assert 0.80 <= lam_star <= 0.90
