import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from consistency import bb_backward_step_product, joint_consistency_report, sbc_pvalues, whitened_mean_z
from wishartsv.errors import InvalidParameter, NotPositiveDefinite
from wishartsv.filtering import (
    FactorPath,
    ReturnsSeries,
    _df_path,
    _factor_path,
    _initial_factor,
    constrained_lambda,
    forward_filter,
    simulate,
)
from wishartsv.matops import tri_solve_stack, uchol
from wishartsv.randsamp import make_rng, sample_bartlett_factor, sample_chi2, substream
from wishartsv.smoother import (
    _backward_pass,
    _bb_chain,
    _discounted_sums,
    _noise,
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
    f = [tri_solve_stack(filt.g[-1], w_T, trans=True)]
    for t in range(filt.g.shape[0] - 2, -1, -1):
        f.append(step(f[-1], filt.g[t], filt.discount, noise[t]))
    return np.array(f[::-1])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_close_per_matrix(a, b, rtol):
    """max |a - b| <= rtol max |b| in every matrix of the stacks."""
    assert a.shape == b.shape
    assert (np.abs(a - b).max(axis=(-2, -1)) <= rtol * np.abs(b).max(axis=(-2, -1))).all()


# hyperparameters and data for a UE filter and a BB filter, matched or not
FILTER_CASES = dict(
    q=st.integers(1, 5),
    T=st.integers(0, 8),
    discount=st.floats(0.05, 0.99),
    matched=st.booleans(),
    df_excess=st.floats(0.5, 10.0),
    beta_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def random_filters(q, T, discount, matched, df_excess, beta_frac, seed):
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
    return forward_filter(data, ue), forward_filter(data, bb)


def bb_noise(fb, seed):
    """The terminal Bartlett factor and theta, in time order, as ``backward_sample(fb, make_rng(seed))`` draws them."""
    noise = make_rng(seed)
    T, q = fb.g.shape[0] - 1, fb.g.shape[1]
    w_T = sample_bartlett_factor(q, fb.k_seq[T], noise)
    return w_T, sample_chi2((1.0 - fb.hyper.beta) * fb.k_seq[:T][::-1, None], noise, size=(T, q))[::-1]


class TestSinglePathEquivalence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**FILTER_CASES)
    def test_samplers_match_public_steps(self, q, T, discount, matched, df_excess, beta_frac, seed):
        # each sampler must be a loop of its public step on the noise it
        # documents: the terminal Bartlett factor, then the increments for
        # t = T - 1 down to 0, within 1e-12 per matrix.  One UE path rotates
        # its rows in with math.hypot, while the step refactors densely in
        # whitened coordinates; the BB pass sums its recursions by recursive
        # doubling, which rounds otherwise than a loop of its one-step case
        fu, fb = random_filters(q, T, discount, matched, df_excess, beta_frac, seed)

        noise = make_rng(seed)
        w_T = sample_bartlett_factor(q, fu.hyper.n + 1, noise)
        z = noise.standard_normal((T, q))[::-1]
        expect = stepwise_path(fu, w_T, z, ue_backward_step)
        assert_close_per_matrix(backward_sample(fu, make_rng(seed)), expect, 1e-12)

        expect = stepwise_path(fb, *bb_noise(fb, seed), bb_backward_step)
        assert_close_per_matrix(backward_sample(fb, make_rng(seed)), expect, 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**FILTER_CASES)
    def test_bb_closed_form_matches_product_step(self, q, T, discount, matched, df_excess, beta_frac, seed):
        # the closed form against the step as a product and a LAPACK solve,
        # U* G_t^{-1}, on the same noise
        fb = random_filters(q, T, discount, matched, df_excess, beta_frac, seed)[1]
        expect = stepwise_path(fb, *bb_noise(fb, seed), bb_backward_step_product)
        assert_close_per_matrix(backward_sample(fb, make_rng(seed)), expect, 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**FILTER_CASES)
    def test_ensembles_match_single_paths(self, q, T, discount, matched, df_excess, beta_frac, seed):
        # each draw of a stacked pass is its single path within 1e-12 per
        # matrix, at every T from 0 and every q: the UE stack runs whitened
        # and refactored, its single path as a Givens chain
        for filt in random_filters(q, T, discount, matched, df_excess, beta_frac, seed):
            ens = sample_ensemble(filt, 3, seed % 1000)
            for i in range(3):
                assert_close_per_matrix(ens[i], backward_sample(filt, substream(seed % 1000, i)), 1e-12)


class TestFactorPathInput:
    @pytest.mark.parametrize("model", ["ue", "bb", "bb-unmatched"])
    def test_samplers_read_only_the_factor_path(self, model):
        # a path built from the factor recursion alone, with no forecast
        # term, gives the filter output's draws bit for bit
        data, ue, bb, _, _ = filters(T=30, q=3, seed=4)
        unmatched = BBHyper(q=3, k=1, beta=0.8, b=0.85, k0=20.0, d0=np.diag([1.0, 2.0, 0.5]))
        hyper = {"ue": ue, "bb": bb, "bb-unmatched": unmatched}[model]
        filt = forward_filter(data, hyper)
        discount, k_seq, df_prior = _df_path(hyper, data.T)
        g = _factor_path(data.returns, _initial_factor(hyper.d0, 3), discount)
        path = FactorPath(hyper, g, k_seq, df_prior, discount)
        np.testing.assert_array_equal(backward_sample(path, make_rng(5)), backward_sample(filt, make_rng(5)))
        np.testing.assert_array_equal(sample_ensemble(path, 4, 6), sample_ensemble(filt, 4, 6))


class TestClosedForm:
    @pytest.mark.parametrize("length", [1, 2, 3, 100, 1001])
    @pytest.mark.parametrize("a", [0.01, 0.5, 0.999])
    def test_discounted_sums_match_a_loop(self, length, a):
        # one coefficient, then per-step ones broadcasting over the rows; at
        # a = 0.01 and length 1001 their running products underflow to 0
        rng = np.random.default_rng(length)
        x = rng.standard_normal((length, 2, 3))
        per_step = a * rng.uniform(0.5, 1.0, (length - 1, 1, 3))
        for coef, arg in ((np.full((length - 1, 1, 1), a), a), (per_step, per_step)):
            expect = x.copy()
            for t in range(length - 2, -1, -1):
                expect[t] = x[t] + coef[t] * expect[t + 1]
            assert np.linalg.norm(_discounted_sums(x, arg) - expect) <= 1e-14 * np.linalg.norm(expect)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_bb_chain_of_no_step_is_f_T(self, lead):
        # G_T alone: the chain returns F_T = W_T G_T^{-1}, the back-substitution's bits
        rng = np.random.default_rng(0)
        w_T = np.triu(rng.standard_normal(lead + (2, 2))) + 2.0 * np.eye(2)
        g_T = np.triu(rng.standard_normal((2, 2))) + 2.0 * np.eye(2)
        f = _bb_chain(g_T[None], w_T, np.empty((0,) + lead + (2,)), 0.8)
        assert_same_bits(f, tri_solve_stack(g_T, w_T, trans=True)[None])
        np.testing.assert_allclose(f[0], w_T @ np.linalg.inv(g_T), rtol=1e-14, atol=1e-15)


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

    def test_bb_closed_form_matches_product_step(self):
        # criterion 13's series: G_t spans many orders of magnitude, so the
        # closed form's G_t^{-1} meets the worst conditioning the data give
        c = ILL_CONDITIONED["criterion13"]
        ue = UEHyper(q=3, k=1, n=c["n"], lam=c["lam"], d0=np.eye(3))
        data, _ = simulate(ue, c["T"], seed=c["seed"])
        fb = forward_filter(data, match_ue_to_bb(ue))
        for seed in range(3):
            expect = stepwise_path(fb, *bb_noise(fb, seed), bb_backward_step_product)
            assert_close_per_matrix(backward_sample(fb, make_rng(seed)), expect, 1e-12)

    def test_bb_pass_over_a_wide_range(self):
        # a UE-law series whose G diagonal spans up to 1e203 over t, so
        # 1/g^2 spans 1e406: the squared diagonal recursion must not meet
        # G's scale, and scaling by f_T alone overflows
        ue = UEHyper(q=5, k=1, n=6.0, lam=0.9, d0=np.eye(5))
        data, _ = simulate(ue, 2000, seed=3)
        fb = forward_filter(data, match_ue_to_bb(ue))
        path = backward_sample(fb, make_rng(3))
        ens = sample_ensemble(fb, 4, seed=3)
        assert_factors(path)
        assert_factors(ens)
        w_T, theta = zip(*(_noise(fb, substream(3, i)) for i in range(4)))
        assert_close_per_matrix(path, stepwise_path(fb, *bb_noise(fb, 3), bb_backward_step_product), 1e-12)
        expect = stepwise_path(fb, np.stack(w_T), np.stack(theta, axis=1), bb_backward_step_product)
        assert_close_per_matrix(ens, np.swapaxes(expect, 0, 1), 1e-12)

    def test_bb_pass_beyond_the_double_range(self):
        # r_t = 10^{e_t} z_t with e_t from -200 to 200: G's diagonal runs from
        # 7.6e-152 to 9.3e199, so 1/g^2 over t spans more than any double can
        # hold; the whitened squared diagonal stays of order 1
        T = 400
        z = np.random.default_rng(0).standard_normal((T, 2))
        data = ReturnsSeries(10.0 ** np.linspace(-200.0, 200.0, T)[:, None] * z)
        fb = forward_filter(data, match_ue_to_bb(UEHyper(q=2, k=1, n=6.0, lam=0.9, d0=1e-300 * np.eye(2))))
        path = backward_sample(fb, make_rng(3))
        ens = sample_ensemble(fb, 4, seed=3)
        assert_factors(path)
        assert_factors(ens)
        for i in range(4):
            assert_same_bits(ens[i], backward_sample(fb, substream(3, i)))

    @pytest.mark.parametrize("case", ["wide-range", "criterion13"])
    def test_ue_ensemble_over_a_wide_range(self, case):
        # the stacked UE pass works in coordinates whitened by G_t: on a
        # series whose G diagonal spans 1e203 over t, and on criterion 13's
        # series, each draw of the ensemble is its single path
        q, n, lam, T, seed, n_draws = {
            "wide-range": (5, 6.0, 0.9, 2000, 3, 4),
            "criterion13": (3, 6.0, 0.85, 1000, 42, 10),
        }[case]
        ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=np.eye(q))
        data, _ = simulate(ue, T, seed=seed)
        fu = forward_filter(data, ue)
        ens = sample_ensemble(fu, n_draws, seed=3)
        assert_factors(ens)
        for i in range(n_draws):
            assert_close_per_matrix(ens[i], backward_sample(fu, substream(3, i)), 1e-12)

    def test_no_warning_escapes_the_stacked_ue_pass(self):
        # a pivot that is not positive is NaN in its own slice, reported by
        # the pass as an error naming t, with no RuntimeWarning on the way
        data, ue, bb, fu, fb = filters(T=4, q=2)
        w_T = np.stack([np.eye(2), np.diag([0.0, 1.0])])
        z = np.ones((4, 2, 2))
        z[3, 1, 0] = 0.0  # Psi_3 of draw 1 is diag(0, c): its first pivot is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="F .* t=4$"):
                _backward_pass(fu, w_T, z)


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


class TestWhitenedMeans:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("model", ["ue", "bb"])
    def test_ensemble_matches_closed_form_means(self, model, q):
        """Whole paths of both samplers against the closed-form whitened means (T = 50, 2000 draws).

        The family is all ten (model, q) cases: 51 times q (q + 1) / 2 UE entries or q BB
        diagonals, 2550 z-scores in all.  With 2000 draws each mean is close to normal, and
        Bonferroni at family-wise level 1e-4 puts the two-sided bound at 5.49 for any dependence
        among the z-scores.  Passing sqrt(lambda) as lambda, or G_{t+1} for G_t in BB's diagonal,
        moves the largest |z| past 50.  The 10 cases take about 1.2 s.
        """
        ue = UEHyper(q=q, k=1, n=q + 3.0, lam=0.8, d0=np.eye(q))
        data, _ = simulate(ue, 50, 100 + q)
        filt = forward_filter(data, ue if model == "ue" else match_ue_to_bb(ue))
        assert np.abs(whitened_mean_z(filt, 2000, 200 + q)).max() < 5.49


class TestSimulationBasedCalibration:
    """Whole paths (T = 10) of both samplers against truths from both state equations.

    ``consistency.sbc_pvalues`` at n = q + 3, D_0 = I: 400 replications of 19 ranked
    paths, 9 statistics each, seed 0.  The family is the 7 pairs that must pass, 63
    p-values; Bonferroni at family-wise level 1e-3 bounds each at 1e-3 / 63 for any
    dependence among them.  At q = 1 UE and BB have one law, so a swapped pair passes;
    at q = 2 a UE truth smoothed by BB fails far past any bound.  A mutant that passes
    G_{t+1} for G_t to ``_bb_chain`` scales each step's increment by D_{t+1} where D_t
    belongs.  At lambda = 0.8 it passed (min p 0.025 at q = 2; 9e-4 at 1200 replications);
    at lambda = 0.5, where D_{t+1} = lambda D_t + r r' differs more from D_t, it fails with
    min p 2e-94, so that case is here too.  Each pair takes about 1.2 s.
    """

    @pytest.mark.parametrize("q, lam, truth, smoother", [
        (1, 0.8, "ue", "ue"), (1, 0.8, "bb", "bb"), (2, 0.8, "ue", "ue"), (2, 0.8, "bb", "bb"),
        (2, 0.5, "bb", "bb"), (1, 0.8, "ue", "bb"), (1, 0.8, "bb", "ue"),
    ])
    def test_pair_is_calibrated(self, q, lam, truth, smoother):
        ue = UEHyper(q=q, k=1, n=q + 3.0, lam=lam, d0=np.eye(q))
        hyper = {"ue": ue, "bb": match_ue_to_bb(ue)}
        assert sbc_pvalues(hyper[truth], hyper[smoother], 10, 400, 0).min() > 1e-3 / 63

    def test_ue_truth_fails_the_bb_smoother(self):
        ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
        assert sbc_pvalues(ue, match_ue_to_bb(ue), 10, 400, 0).min() < 1e-10


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
