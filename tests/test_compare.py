import collections
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import beta as beta_dist
from scipy.stats import kstest, multivariate_normal

from consistency import exact_path_loglik, exact_steps
from wishartsv import compare, filtering
from wishartsv.compare import (
    LOG_2PI,
    MixtureConfig,
    _gauss_terms,
    alpha_posterior_shapes,
    batch_means_se,
    log_plr,
    mixture_gibbs,
    path_loglik,
    ppc_intervals,
)
from wishartsv.errors import EmptyEnsemble, InvalidParameter
from wishartsv.filtering import ReturnsSeries, forward_filter, simulate
from wishartsv.randsamp import make_rng
from wishartsv.smoother import _noise, backward_sample, sample_ensemble
from wishartsv.volproc import UEHyper, match_ue_to_bb


def toy(T=15, q=2, seed=0, n=5.0, lam=0.8):
    rng = np.random.default_rng(seed)
    data = ReturnsSeries(rng.standard_normal((T, q)))
    ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=np.eye(q))
    return data, ue, match_ue_to_bb(ue)


class TestPathLoglik:
    def test_against_scipy(self):
        data, ue, _ = toy(T=6, q=2, seed=1)
        rng = np.random.default_rng(2)
        phis = np.empty((7, 2, 2))
        for t in range(7):
            g = rng.standard_normal((2, 2))
            phis[t] = g.T @ g + np.eye(2)
        path = np.swapaxes(np.linalg.cholesky(phis), 1, 2)
        expect = sum(
            multivariate_normal(cov=np.linalg.inv(phis[t])).logpdf(data.returns[t - 1])
            for t in range(1, 7)
        )
        assert path_loglik(path, data) == pytest.approx(expect, rel=1e-10)

    def test_against_exact_oracle(self):
        """One UE and one BB draw on a well-conditioned series, against 60-digit arithmetic.

        The oracle reads the draw's own noise, so only rounding separates the two.
        On criterion 13's series (``simulate`` of the UE law at q = 3, n = 6,
        lambda = 0.85, D_0 = I, T = 1000, seed 42), with 10 draws per model at
        compare-plr's seeds (``_noise(filt, substream(7, i))`` for UE and
        ``substream(8, i)`` for matched BB, i = 0..9), the oracle's log_plr (a
        mean-normalized log-sum-exp per side, in 60 digits) is
        34.72690538149374; the double-precision pipeline gives 201.28 there.
        """
        data, ue, bb = toy(T=200, q=3, seed=13, n=6.0, lam=0.85)
        steps = exact_steps(data.returns, ue.d0, ue.lam)
        for hyper, seed in ((ue, 5), (bb, 6)):
            filt = forward_filter(data, hyper)
            exact = float(exact_path_loglik(steps, hyper is ue, filt.discount, *_noise(filt, make_rng(seed))))
            assert path_loglik(backward_sample(filt, make_rng(seed)), data) == pytest.approx(exact, rel=1e-10)

    def test_skips_phi0(self):
        data, _, _ = toy(T=3, q=1, seed=3)
        factors = np.ones((4, 1, 1))
        bad_phi0 = factors.copy()
        bad_phi0[0] = 99.0
        assert path_loglik(factors, data) == path_loglik(bad_phi0, data)

    def test_ill_conditioned_draws(self):
        # simulated data whose sampled Phi_t reach cond > 1e12, where
        # refactoring a dense Phi_t failed its pivot check on SPD draws
        ue = UEHyper(q=3, k=1, n=8.0, lam=0.8, d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        data, _ = simulate(ue, 500, seed=1)
        for filt, seed in ((forward_filter(data, ue), 0), (forward_filter(data, bb), 1)):
            ll = path_loglik(sample_ensemble(filt, 20, seed=seed), data)
            assert ll.shape == (20,) and np.all(np.isfinite(ll))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 6), st.data())
    def test_stack_matches_slices(self, q, n, T, draw):
        # draws and time share one axis in the stacked call; every path's
        # loglik keeps the bits of a one-path call, and a one-path call
        # keeps the bits of the per-path sum over t
        entries = st.floats(-1e3, 1e3)
        f = np.triu(draw.draw(hnp.arrays(float, (n, T + 1, q, q), elements=entries)))
        idx = np.arange(q)
        f[..., idx, idx] = np.abs(f[..., idx, idx]) + 1e-3
        data = ReturnsSeries(draw.draw(hnp.arrays(float, (T, q), elements=entries)))
        single = [path_loglik(f[i], data) for i in range(n)]
        for i in range(n):
            ref = _gauss_terms(f[i, 1:], data.returns).sum() - 0.5 * T * q * LOG_2PI
            assert np.array_equal(single[i], ref) and np.ndim(single[i]) == 0
        stacked = path_loglik(f, data)
        assert stacked.shape == (n,) and np.array_equal(stacked, single)


    def test_overflowing_term_names_t(self):
        # |F_t r_t|^2 = 2e400 at t=2 overflows doubles
        factors = np.broadcast_to(np.eye(2), (3, 3, 2, 2))
        data = ReturnsSeries(np.array([[1.0, 1.0], [1e200, 1e200]]))
        with pytest.raises(InvalidParameter, match="at t=2$"):
            path_loglik(factors, data)


class TestLogPlr:
    def test_small_values(self):
        assert log_plr(np.log([1.0, 2.0, 3.0]), [0.0]) == pytest.approx(np.log(2.0))

    def test_extreme_values(self):
        x = np.array([-1e4, -1e4 + np.log(2.0)])
        assert log_plr(x, [0.0]) == pytest.approx(-1e4 + np.log(1.5))
        assert log_plr([1e4, 1e4], [-1e4]) == pytest.approx(2e4)

    def test_empty(self):
        for lu, lb in (([], [0.0]), ([0.0], [])):
            with pytest.raises(EmptyEnsemble):
                log_plr(lu, lb)

    def test_antisymmetry_and_zero(self):
        data, ue, bb = toy(T=10, q=2, seed=4)
        fu = forward_filter(data, ue)
        fb = forward_filter(data, bb)
        ens_u = sample_ensemble(fu, 30, seed=5)
        ens_b = sample_ensemble(fb, 30, seed=6)
        lu, lb = path_loglik(ens_u, data), path_loglik(ens_b, data)
        ab = log_plr(lu, lb)
        ba = log_plr(lb, lu)
        assert ab == pytest.approx(-ba, rel=1e-12)
        assert log_plr(lu, lu) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariant_mean_normalization(self):
        # doubling an ensemble by repetition leaves the estimate unchanged
        data, ue, bb = toy(T=8, q=1, seed=7)
        fu = forward_filter(data, ue)
        ens = sample_ensemble(fu, 10, seed=8)
        ll = path_loglik(ens, data)
        ref = path_loglik(sample_ensemble(forward_filter(data, ue), 6, seed=9), data)
        assert log_plr(np.concatenate([ll, ll]), ref) == pytest.approx(log_plr(ll, ref), rel=1e-12)


class TestBatchMeansSe:
    def test_iid_matches_naive_se(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(10_000)
        se = batch_means_se(x, 50)
        naive = x.std(ddof=1) / np.sqrt(x.size)
        assert se == pytest.approx(naive, rel=0.35)

    def test_constant_chain(self):
        assert batch_means_se(np.ones(100), 10) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            batch_means_se(np.ones(100), 1)
        with pytest.raises(InvalidParameter):
            batch_means_se(np.ones(3), 10)


class TestMixturePieces:
    def test_alpha_shapes(self):
        assert alpha_posterior_shapes(1.0, 2.0, np.array([1, 0, 1, 1])) == (4.0, 3.0)

    def test_config_burn_in_default(self):
        cfg = MixtureConfig(iterations=200)
        assert cfg.burn_in == 20
        with pytest.raises(InvalidParameter):
            MixtureConfig(iterations=10, burn_in=10)

    @pytest.mark.parametrize("shapes", [dict(a0=np.inf), dict(b0=np.nan)], ids=["a0-inf", "b0-nan"])
    def test_config_nonfinite_prior(self, shapes):
        # either would give an alpha trace of NaN
        with pytest.raises(InvalidParameter, match="finite"):
            MixtureConfig(iterations=10, **shapes)


class TestMixtureGibbs:
    def test_extreme_log_weight_gaps(self, monkeypatch):
        # log weight gaps of +-2000 give P(z = 1) of exactly 1 and 0, with no overflow warning
        data, ue, bb = toy(T=6, q=2, seed=11)
        gaps = np.array([2000.0, -2000.0, 2000.0, 2000.0, -2000.0, -2000.0])
        terms = np.concatenate([np.zeros(6), -gaps])  # one call per sweep: the UE terms, then the BB terms
        monkeypatch.setattr(compare, "_gauss_terms", lambda f, r: terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = mixture_gibbs(data, ue, bb, MixtureConfig(iterations=20, burn_in=0, seed=12))
        np.testing.assert_array_equal(tr.z, np.broadcast_to(gaps > 0, tr.z.shape))

    def test_trace_shapes_and_determinism(self):
        data, ue, bb = toy(T=6, q=2, seed=11)
        cfg = MixtureConfig(iterations=30, burn_in=5, seed=12)
        tr1 = mixture_gibbs(data, ue, bb, cfg)
        tr2 = mixture_gibbs(data, ue, bb, cfg)
        assert tr1.alpha.shape == (25,)
        assert tr1.z.shape == (25, 6)
        np.testing.assert_array_equal(tr1.alpha, tr2.alpha)
        assert set(np.unique(tr1.z)) <= {0, 1}

    def test_fractional_prior(self):
        # a0 + s + b0 + T - s need not round to a0 + b0 + T in floating point
        data, ue, bb = toy(T=50, q=2, seed=11)
        tr = mixture_gibbs(data, ue, bb, MixtureConfig(a0=0.1, b0=0.2, iterations=20, burn_in=0, seed=12))
        assert np.all((tr.alpha > 0) & (tr.alpha < 1))

    def test_chain_set_up_is_not_redone_per_sweep(self, monkeypatch):
        # D_0's factor and the df path are fixed for a chain: their counts
        # do not grow with the number of sweeps
        calls = {"uchol": 0, "_df_path": 0}

        def counted(name):
            inner = getattr(filtering, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(filtering, name, wrapper)

        counted("uchol")
        counted("_df_path")
        data, ue, bb = toy(T=20, q=2, seed=11)
        counts = []
        for iterations in (3, 30):
            calls.update(uchol=0, _df_path=0)
            mixture_gibbs(data, ue, bb, MixtureConfig(iterations=iterations, burn_in=0, seed=12))
            counts.append(dict(calls))
        assert counts[0] == counts[1] and counts[0]["uchol"] > 0 and counts[0]["_df_path"] > 0

    def test_a_later_sweep_calls_no_array_wrapper(self, monkeypatch):
        # a sweep builds its small arrays and its filters directly, and both
        # models' likelihood terms come from one call: per sweep after the
        # first, no np.stack, np.broadcast_to, np.broadcast_shapes or
        # dataclasses.replace, and one _gauss_terms
        calls = collections.Counter()
        counted = [(np, "stack"), (np, "broadcast_to"), (np, "broadcast_shapes"),
                   (compare, "replace"), (compare, "_gauss_terms")]
        for module, name in counted:
            inner = getattr(module, name, dataclasses.replace)  # compare need not bind replace
            monkeypatch.setattr(module, name, lambda *a, name=name, inner=inner, **k: calls.update([name]) or inner(*a, **k),
                                raising=False)
        data, ue, bb = toy(T=20, q=2, seed=11)
        runs = []
        for iterations in (2, 7):
            calls.clear()
            mixture_gibbs(data, ue, bb, MixtureConfig(iterations=iterations, burn_in=0, seed=12))
            runs.append(dict(calls))
        per_sweep = {name: (runs[1].get(name, 0) - runs[0].get(name, 0)) / 5 for _, name in counted}
        assert per_sweep == {"stack": 0, "broadcast_to": 0, "broadcast_shapes": 0, "replace": 0, "_gauss_terms": 1}

    def test_degenerate_recovers_prior(self):
        # with identical likelihood terms alpha's stationary law is Beta(a0, b0)
        data, ue, bb = toy(T=10, q=2, seed=13)
        cfg = MixtureConfig(a0=2.0, b0=5.0, iterations=4000, burn_in=500, seed=14)
        tr = mixture_gibbs(data, ue, bb, cfg, degenerate=True)
        thinned = tr.alpha[::10]
        stat = kstest(thinned, beta_dist(2.0, 5.0).cdf).statistic
        assert stat < 3.0 / np.sqrt(thinned.size)


class TestPpcIntervals:
    def test_matched_models_identical(self):
        data, ue, bb = toy(T=40, q=3, seed=15)
        lu, cu = ppc_intervals(forward_filter(data, ue), data)
        lb, cb = ppc_intervals(forward_filter(data, bb), data)
        np.testing.assert_allclose(lu, lb, rtol=1e-12)
        np.testing.assert_allclose(cu, cb, rtol=1e-12)

    def test_shapes_and_monotone_level(self):
        data, ue, _ = toy(T=20, q=2, seed=16)
        filt = forward_filter(data, ue)
        l95, c95 = ppc_intervals(filt, data, level=0.95)
        l50, c50 = ppc_intervals(filt, data, level=0.50)
        assert l95.shape == (20, 2) and c95.shape == (20,)
        assert np.all(l95 > l50)
        assert c95[-1] >= c50[-1]
        assert np.all((c95 >= 0) & (c95 <= 1))

    def test_calibration_under_the_model(self):
        # simulate straight from the one-step predictive margins and check
        # that empirical coverage approaches the nominal level
        ue = UEHyper(q=2, k=1, n=8.0, lam=0.85, d0=np.eye(2))
        data, _ = simulate(ue, 1500, seed=17)
        filt = forward_filter(data, ue)
        _, coverage = ppc_intervals(filt, data, level=0.95)
        assert abs(coverage[-1] - 0.95) < 0.02

    def test_empty_series(self):
        data = ReturnsSeries(np.empty((0, 2)))
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
        for filt in (forward_filter(data, ue), forward_filter(data, match_ue_to_bb(ue))):
            lengths, coverage = ppc_intervals(filt, data)
            assert lengths.shape == (0, 2) and coverage.shape == (0,)

    def test_bad_predictive_df_names_t(self):
        # df_prior[2] is the prior df at t=3
        data, ue, _ = toy(T=5, q=2)
        filt = forward_filter(data, ue)
        df_prior = filt.df_prior.copy()
        df_prior[2] = 0.5
        with pytest.raises(InvalidParameter, match="at t=3$"):
            ppc_intervals(dataclasses.replace(filt, df_prior=df_prior), data)

    def test_huge_scale(self):
        # returns x 2^511 and D_0 x 2^1022 scale every length by 2^511;
        # the squares of G's rows would overflow
        data, ue, _ = toy(T=20, q=2, seed=16)
        c = 2.0**511
        big = ReturnsSeries(c * data.returns)
        l1, c1 = ppc_intervals(forward_filter(data, ue), data)
        lc, cc = ppc_intervals(forward_filter(big, dataclasses.replace(ue, d0=c * c * ue.d0)), big)
        np.testing.assert_allclose(lc / c, l1, rtol=1e-13)
        np.testing.assert_array_equal(cc, c1)

    def test_level_validation(self):
        data, ue, _ = toy(T=5, q=1)
        with pytest.raises(InvalidParameter):
            ppc_intervals(forward_filter(data, ue), data, level=1.5)
