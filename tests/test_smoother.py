import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from consistency import joint_consistency_report
from wishartsv.errors import InvalidParameter, NotPositiveDefinite
from wishartsv.filtering import ReturnsSeries, constrained_lambda, forward_filter, simulate
from wishartsv.matops import right_solve, uchol
from wishartsv.randsamp import make_rng, sample_bartlett_factor, sample_chi2, sample_wishart_factor, substream
from wishartsv.smoother import (
    _backward_pass,
    backward_sample,
    bb_backward_step,
    correlation_summary,
    sample_ensemble,
    ue_backward_step,
)
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb


def filters(T=20, q=2, seed=0, n=5.0, lam=0.8):
    rng = np.random.default_rng(seed)
    data = ReturnsSeries(rng.standard_normal((T, q)))
    ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=np.eye(q))
    bb = match_ue_to_bb(ue)
    return data, ue, bb, forward_filter(data, ue), forward_filter(data, bb)


def gram(factors):
    return np.swapaxes(factors, -1, -2) @ factors


def assert_factors(factors):
    """Upper-triangular with a finite positive diagonal."""
    assert np.all(np.tril(factors, -1) == 0)
    diag = np.diagonal(factors, axis1=-2, axis2=-1)
    assert np.all(np.isfinite(factors)) and np.all(diag > 0)


def max_abs_z(report):
    return max(
        np.abs(report[key]).max()
        for key in ("z_mean_t", "z_mean_next", "z_second_t", "z_second_next", "z_cross")
    )


class TestBackwardSamplers:
    def test_ue_path_shape_and_spd(self):
        data, ue, _, fu, _ = filters()
        path = backward_sample(fu, make_rng(1))
        assert path.shape == (21, 2, 2)
        assert_factors(path)
        assert np.all(np.linalg.eigvalsh(gram(path)) > 0)

    def test_bb_path_shape_and_spd(self):
        data, _, bb, _, fb = filters()
        path = backward_sample(fb, make_rng(2))
        assert path.shape == (21, 2, 2)
        assert_factors(path)
        assert np.all(np.linalg.eigvalsh(gram(path)) > 0)

    def test_reproducible(self):
        data, ue, bb, fu, fb = filters()
        a = backward_sample(fu, make_rng(7))
        b = backward_sample(fu, make_rng(7))
        np.testing.assert_array_equal(a, b)
        a = backward_sample(fb, make_rng(7))
        b = backward_sample(fb, make_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_ue_terminal_marginal(self):
        # Phi_T | D_T ~ Wishart(n + 1, (D_T)^{-1}); q = 1 reduces to a
        # scaled chi-square whose law we can KS-test
        data, ue, _, fu, _ = filters(T=5, q=1, seed=3)
        n_draws = 20_000
        rng = make_rng(4)
        draws = np.array(
            [backward_sample(fu, rng)[-1, 0, 0] ** 2 for _ in range(n_draws)]
        )
        scale = 1.0 / fu.g[-1, 0, 0] ** 2  # D_T^{-1} with k = 1
        stat = kstest(draws / scale, chi2_dist(ue.n + 1).cdf).statistic
        assert stat < 1.95 / np.sqrt(n_draws)

    def test_bb_diagonal_increment_law(self):
        # theta_i = (u*_ii)^2 - (u~*_ii)^2 recovered from one backward step
        # must be chi2 with (1 - beta) k_t degrees of freedom
        data, _, bb, _, fb = filters(T=3, q=2, seed=5)
        t = 2
        g_t = fb.g[t]
        k_t = fb.k_seq[t]
        n_draws = 20_000
        df = (1.0 - bb.beta) * k_t
        # any SPD conditioning value: Phi_{t+1} = k_{t+1} D_{t+1}^{-1}
        f_next = np.sqrt(fb.k_seq[t + 1]) * np.linalg.inv(fb.g[t + 1])
        u_tilde = uchol(bb.b * g_t.T @ gram(f_next) @ g_t)
        base = u_tilde.diagonal() ** 2
        theta = sample_chi2(df, make_rng(6), size=(n_draws, 2))
        f_t = bb_backward_step(np.broadcast_to(f_next, (n_draws, 2, 2)), g_t, bb.b, theta)
        u_star = uchol(g_t.T @ gram(f_t) @ g_t)
        thetas = np.diagonal(u_star, axis1=1, axis2=2) ** 2 - base
        for i in range(2):
            assert kstest(thetas[:, i], chi2_dist(df).cdf).statistic < 1.95 / np.sqrt(n_draws)

    def test_bb_offdiagonals_carried(self):
        # the backward step keeps the off-diagonal Bartlett entries of
        # b-scaled Phi_{t+1} exactly
        data, _, bb, _, fb = filters(T=4, q=3, seed=8)
        t = 1
        g_t = fb.g[t]
        f_next = np.sqrt(fb.k_seq[t + 1]) * np.linalg.inv(fb.g[t + 1])
        u_tilde = uchol(bb.b * g_t.T @ gram(f_next) @ g_t)
        theta = sample_chi2((1.0 - bb.beta) * fb.k_seq[t], make_rng(9), size=3)
        f_t = bb_backward_step(f_next, g_t, bb.b, theta)
        u_star = uchol(g_t.T @ gram(f_t) @ g_t)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(u_star[off], u_tilde[off], atol=1e-10)

    def test_degenerate_t0(self):
        data = ReturnsSeries(np.empty((0, 2)))
        ue = UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2))
        bb = match_ue_to_bb(ue)
        fb = forward_filter(data, bb)
        path = backward_sample(fb, make_rng(10))
        assert path.shape == (1, 2, 2)


def stepwise_path(filt, w_T, noise, step):
    """F_T = W_T G_T^{-1}, then one public backward step per t from T - 1 down to 0."""
    f = [right_solve(w_T, filt.g[-1])]
    for t in range(filt.g.shape[0] - 2, -1, -1):
        f.append(step(f[-1], filt.g[t], filt.discount, noise[t]))
    return np.array(f[::-1])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestSinglePathEquivalence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        q=st.integers(1, 5),
        T=st.integers(0, 8),
        discount=st.floats(0.05, 0.99),
        matched=st.booleans(),
        df_excess=st.floats(0.5, 10.0),
        beta_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_samplers_match_public_steps(self, q, T, discount, matched, df_excess, beta_frac, seed):
        # each sampler must be, bit for bit, a loop of its public step on
        # the noise it documents: the terminal Bartlett factor, then the
        # increments for t = T - 1 down to 0
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((q, q))
        d0 = a @ a.T + 0.1 * np.eye(q)
        data = ReturnsSeries(rng.standard_normal((T, q)))
        ue = UEHyper(q=q, k=1, n=q - 1 + df_excess, lam=discount, d0=d0)
        if matched:
            bb = match_ue_to_bb(ue)
        else:
            # beta > (q - 1) / q keeps beta k_t > q - 1 at the fixed point k / (1 - beta)
            lo = 0.3 if q == 1 else (q - 1) / q + 0.01
            beta = lo + (0.98 - lo) * beta_frac
            bb = BBHyper(q=q, k=1, beta=beta, b=discount, k0=(q - 1 + df_excess) / beta, d0=d0)
        fu, fb = forward_filter(data, ue), forward_filter(data, bb)

        noise = make_rng(seed)
        w_T = sample_bartlett_factor(q, ue.n + 1, noise)
        z = sample_wishart_factor(q, 1, noise, size=T)[::-1, 0]
        expect = stepwise_path(fu, w_T, z, ue_backward_step)
        assert_same_bits(backward_sample(fu, make_rng(seed)), expect)

        noise = make_rng(seed)
        w_T = sample_bartlett_factor(q, fb.k_seq[T], noise)
        theta = sample_chi2((1.0 - bb.beta) * fb.k_seq[:T][::-1, None], noise, size=(T, q))[::-1]
        expect = stepwise_path(fb, w_T, theta, bb_backward_step)
        assert_same_bits(backward_sample(fb, make_rng(seed)), expect)


class TestBackwardErrors:
    @pytest.mark.parametrize("model", ["ue", "bb"])
    @pytest.mark.parametrize(
        "t, entry, value, error",
        [
            (2, (0, 1), np.nan, InvalidParameter),  # an interior G_t
            (4, (1, 1), np.inf, InvalidParameter),  # G_T, solved against first
            (0, (0, 0), np.nan, InvalidParameter),
            (2, (1, 1), 0.0, NotPositiveDefinite),  # a zero pivot
            (4, (0, 0), 0.0, NotPositiveDefinite),
            (0, (1, 1), 0.0, NotPositiveDefinite),
        ],
    )
    def test_bad_filter_factor(self, model, t, entry, value, error):
        # G is checked once, before the pass, and the error names t
        data, ue, bb, fu, fb = filters(T=4, q=2)
        filt = fu if model == "ue" else fb
        g = filt.g.copy()
        g[(t,) + entry] = value
        with pytest.raises(error, match=f"G .* t={t}$"):
            backward_sample(dataclasses.replace(filt, g=g), make_rng(0))

    def test_zero_pivot_in_stacked_ue_pass(self):
        # a zero terminal diagonal entry meets a zero increment coordinate:
        # the rank-1 update's pivot is 0, and the pass names the t of the fault
        data, ue, bb, fu, fb = filters(T=4, q=2)
        w_T = np.eye(2)[None].copy()
        w_T[0, 0, 0] = 0.0
        z = np.ones((4, 1, 2))
        z[3, 0, 0] = 0.0
        with pytest.raises(NotPositiveDefinite, match="F .* t=4$"):
            _backward_pass(fu, w_T, z)


# Phi_0..Phi_4 drawn by the dense-matrix samplers that predate the factor
# form, on filters(T=4, q=3, seed=0) with make_rng(101) (UE) and
# make_rng(102) (BB); the factor-form samplers consume the same draws
GOLDEN_UE = np.array([
    [
        [5.9494628560627687, -4.464940035025057, -1.9946979691654254],
        [-4.464940035025057, 11.156211484039071, 4.1504511683368692],
        [-1.9946979691654254, 4.1504511683368692, 3.6218449953669616],
    ],
    [
        [4.9544443530891504, -4.6986218736803185, -1.637743637586649],
        [-4.6986218736803185, 13.631493387313634, 4.8838653090728172],
        [-1.637743637586649, 4.8838653090728172, 4.2323878833736117],
    ],
    [
        [5.0681864445872495, -6.1428282584662313, -1.9883042195698493],
        [-6.1428282584662313, 16.974774593437637, 6.1189398556102406],
        [-1.9883042195698493, 6.1189398556102406, 5.2874033361131438],
    ],
    [
        [6.113373055071067, -8.3683385763972176, -2.674536704178986],
        [-8.3683385763972176, 19.073743970359061, 7.0605529398860849],
        [-2.674536704178986, 7.0605529398860849, 6.4479805976351834],
    ],
    [
        [4.8540881263513089, -9.0058486233791832, -1.4948494923783218],
        [-9.0058486233791832, 23.083188048503072, 7.861243568353272],
        [-1.4948494923783218, 7.861243568353272, 6.8344565181979418],
    ],
])
GOLDEN_BB = np.array([
    [
        [4.5779858755316267, -1.666868189324322, 2.9125436829994134],
        [-1.666868189324322, 11.109861081669139, 3.3882203312239976],
        [2.9125436829994134, 3.3882203312239976, 4.68725686111845],
    ],
    [
        [5.5484521761844343, -2.0516579829388752, 3.5848926364754572],
        [-2.0516579829388752, 12.937220986430857, 4.0302807294202978],
        [3.5848926364754572, 4.0302807294202978, 5.7834988451543499],
    ],
    [
        [6.1826155652607611, -2.4263119618082407, 4.2548708721166957],
        [-2.4263119618082407, 3.3377071894642651, 0.72588680932911054],
        [4.2548708721166957, 0.72588680932911054, 6.5478897715451332],
    ],
    [
        [7.7170414175163184, -3.0309742314643713, 5.3151777557267446],
        [-3.0309742314643713, 3.219042135905692, 0.27984248221354835],
        [5.3151777557267446, 0.27984248221354835, 7.9116799303697034],
    ],
    [
        [9.5971425565865154, -3.7645064785807514, 6.6213590254790269],
        [-3.7645064785807514, 2.5466236113763143, -1.0426478135932116],
        [6.6213590254790269, -1.0426478135932116, 8.6478373807499569],
    ],
])


class TestGoldenPaths:
    @pytest.mark.parametrize("model", ["ue", "bb"])
    def test_same_seed_paths(self, model):
        data, ue, bb, fu, fb = filters(T=4, q=3, seed=0)
        if model == "ue":
            path, golden = backward_sample(fu, make_rng(101)), GOLDEN_UE
        else:
            path, golden = backward_sample(fb, make_rng(102)), GOLDEN_BB
        phis = gram(path)
        assert np.abs(phis - golden).max() <= 1e-10 * np.abs(golden).max()


# the datasets of criteria 13 and 12, drawn from the UE law: cond(D_t)
# grows far past 1e16, where dense refactoring or inversion breaks down
ILL_CONDITIONED = {
    "criterion13": dict(n=6.0, lam=0.85, T=1000, seed=42),
    "criterion12": dict(n=8.0, lam=constrained_lambda(8.0, 1.0, 3), T=2000, seed=1),
}


class TestIllConditioned:
    @pytest.mark.parametrize("case", sorted(ILL_CONDITIONED))
    def test_smoothing_simulated_data(self, case):
        c = ILL_CONDITIONED[case]
        ue = UEHyper(q=3, k=1, n=c["n"], lam=c["lam"], d0=np.eye(3))
        bb = match_ue_to_bb(ue)
        data, _ = simulate(ue, c["T"], seed=c["seed"])
        for filt in (forward_filter(data, ue), forward_filter(data, bb)):
            assert_factors(filt.g)
            ens = sample_ensemble(filt, 10, seed=3)
            assert_factors(ens)
            curves = correlation_summary(ens, [0.025, 0.5, 0.975])
            assert np.all(np.isfinite(curves)) and np.all(np.abs(curves) <= 1.0)


class TestJointConsistency:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_ue_self(self, q):
        ue = UEHyper(q=q, k=1, n=5.0, lam=0.8, d0=np.eye(q))
        rep = joint_consistency_report("ue", ue, np.eye(q), 6.0, 50_000, make_rng(11 + q))
        assert max_abs_z(rep) < 4.0

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bb_self(self, q):
        bb = match_ue_to_bb(UEHyper(q=q, k=1, n=5.0, lam=0.8, d0=np.eye(q)))
        rep = joint_consistency_report("bb", bb, np.eye(q), 6.0, 50_000, make_rng(21 + q))
        assert max_abs_z(rep) < 4.0

    def test_cross_detects_nonequivalence(self):
        # matched marginals coincide but the joints differ; the cross
        # moments must flag a UE-forward / BB-backward mismatch
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.5, d0=np.eye(2))
        rep = joint_consistency_report(
            "ue", ue, np.eye(2), 6.0, 100_000, make_rng(42), backward_model="bb"
        )
        assert np.abs(rep["z_cross"]).max() > 4.0

    def test_q1_models_equivalent(self):
        # for q = 1 the two processes coincide, so even the cross joint matches
        ue = UEHyper(q=1, k=1, n=5.0, lam=0.8, d0=np.eye(1))
        rep = joint_consistency_report(
            "ue", ue, np.eye(1), 6.0, 50_000, make_rng(13), backward_model="bb"
        )
        assert max_abs_z(rep) < 4.0


class TestEnsembles:
    def test_seed_info_and_reproducibility(self):
        data, ue, _, fu, _ = filters(T=6, q=2)
        ens = sample_ensemble(fu, 5, seed=3)
        assert ens.shape == (5, 7, 2, 2)
        # draw 2 is the single-path draw from substream (3, 2)
        np.testing.assert_allclose(ens[2], backward_sample(fu, substream(3, 2)), rtol=1e-12)
        again = sample_ensemble(fu, 5, seed=3)
        np.testing.assert_array_equal(ens[4], again[4])

    def test_correlation_summary_shape_and_range(self):
        data, ue, _, fu, _ = filters(T=8, q=3, seed=12)
        ens = sample_ensemble(fu, 40, seed=1)
        levels = [0.1, 0.5, 0.9]
        curves = correlation_summary(ens, levels)
        assert curves.shape == (3, 3, 9)
        assert np.all(curves >= -1) and np.all(curves <= 1)
        assert np.all(np.diff(curves, axis=0) >= 0)  # quantile ordering
        # dense reference: invert each Phi_t and read rho_ij
        sigma = np.linalg.inv(gram(ens))
        for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
            rho = sigma[..., i, j] / np.sqrt(sigma[..., i, i] * sigma[..., j, j])
            np.testing.assert_allclose(curves[:, k], np.quantile(rho, levels, axis=0), rtol=1e-10)

    @pytest.mark.parametrize("k", [530, -530])
    def test_correlation_summary_scale_invariant(self, k):
        # V = F^{-1} has rows near 2^-k, whose squares over- or underflow
        data, ue, _, fu, _ = filters(T=8, q=3, seed=12)
        ens = sample_ensemble(fu, 20, seed=1)
        levels = [0.1, 0.5, 0.9]
        np.testing.assert_array_equal(correlation_summary(ens * 2.0**k, levels), correlation_summary(ens, levels))

    def test_correlation_summary_q1(self):
        # one coordinate has no pairs: an empty table, not an error
        data, ue, _, fu, _ = filters(T=4, q=1)
        assert correlation_summary(sample_ensemble(fu, 3, seed=0), [0.5]).shape == (1, 0, 5)

    def test_correlation_summary_validation(self):
        data, ue, _, fu, _ = filters(T=4, q=2)
        ens = sample_ensemble(fu, 3, seed=0)
        for levels in ([0.0, 0.5], [], [0.5, np.nan]):
            with pytest.raises(InvalidParameter):
                correlation_summary(ens, levels)
        with pytest.raises(InvalidParameter):
            correlation_summary(sample_ensemble(fu, 1, seed=0), [0.5])
