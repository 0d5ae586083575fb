import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from wishartsv.cli import simulate
from wishartsv.errors import InvalidParameter
from wishartsv.filtering import ReturnsSeries, bb_forward_filter, constrained_lambda, ue_forward_filter
from wishartsv.matops import uchol
from wishartsv.randsamp import make_rng
from wishartsv.smoother import (
    bb_backward_sample,
    bb_backward_step,
    correlation_summary,
    joint_consistency_report,
    sample_ensemble,
    ue_backward_sample,
)
from wishartsv.volproc import UEHyper, match_ue_to_bb


def filters(T=20, q=2, seed=0, n=5.0, lam=0.8):
    rng = np.random.default_rng(seed)
    data = ReturnsSeries(rng.standard_normal((T, q)))
    ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=np.eye(q))
    bb = match_ue_to_bb(ue)
    return data, ue, bb, ue_forward_filter(data, ue), bb_forward_filter(data, bb)


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
        path = ue_backward_sample(fu, ue, make_rng(1))
        assert path.factors.shape == (21, 2, 2)
        assert_factors(path.factors)
        assert np.all(np.linalg.eigvalsh(gram(path.factors)) > 0)

    def test_bb_path_shape_and_spd(self):
        data, _, bb, _, fb = filters()
        path = bb_backward_sample(fb, bb, make_rng(2))
        assert path.factors.shape == (21, 2, 2)
        assert_factors(path.factors)
        assert np.all(np.linalg.eigvalsh(gram(path.factors)) > 0)

    def test_model_mismatch(self):
        data, ue, bb, fu, fb = filters()
        with pytest.raises(InvalidParameter):
            ue_backward_sample(fb, ue, make_rng(0))
        with pytest.raises(InvalidParameter):
            bb_backward_sample(fu, bb, make_rng(0))

    def test_reproducible(self):
        data, ue, bb, fu, fb = filters()
        a = ue_backward_sample(fu, ue, make_rng(7)).factors
        b = ue_backward_sample(fu, ue, make_rng(7)).factors
        np.testing.assert_array_equal(a, b)
        a = bb_backward_sample(fb, bb, make_rng(7)).factors
        b = bb_backward_sample(fb, bb, make_rng(7)).factors
        np.testing.assert_array_equal(a, b)

    def test_ue_terminal_marginal(self):
        # Phi_T | D_T ~ Wishart(n + 1, (D_T)^{-1}); q = 1 reduces to a
        # scaled chi-square whose law we can KS-test
        data, ue, _, fu, _ = filters(T=5, q=1, seed=3)
        n_draws = 20_000
        rng = make_rng(4)
        draws = np.array(
            [ue_backward_sample(fu, ue, rng).factors[-1, 0, 0] ** 2 for _ in range(n_draws)]
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
        rng = make_rng(6)
        n_draws = 20_000
        thetas = np.empty((n_draws, 2))
        # any SPD conditioning value: Phi_{t+1} = k_{t+1} D_{t+1}^{-1}
        f_next = np.sqrt(fb.k_seq[t + 1]) * np.linalg.inv(fb.g[t + 1])
        u_tilde = uchol(bb.b * g_t.T @ gram(f_next) @ g_t)
        base = u_tilde.diagonal() ** 2
        for i in range(n_draws):
            f_t = bb_backward_step(f_next, g_t, bb.beta, bb.b, k_t, rng)
            u_star = uchol(g_t.T @ gram(f_t) @ g_t)
            thetas[i] = u_star.diagonal() ** 2 - base
        df = (1.0 - bb.beta) * k_t
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
        f_t = bb_backward_step(f_next, g_t, bb.beta, bb.b, fb.k_seq[t], make_rng(9))
        u_star = uchol(g_t.T @ gram(f_t) @ g_t)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(u_star[off], u_tilde[off], atol=1e-10)

    def test_degenerate_t0(self):
        data = ReturnsSeries(np.empty((0, 2)))
        ue = UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2))
        bb = match_ue_to_bb(ue)
        fb = bb_forward_filter(data, bb)
        path = bb_backward_sample(fb, bb, make_rng(10))
        assert path.factors.shape == (1, 2, 2)


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
            path, golden = ue_backward_sample(fu, ue, make_rng(101)), GOLDEN_UE
        else:
            path, golden = bb_backward_sample(fb, bb, make_rng(102)), GOLDEN_BB
        phis = gram(path.factors)
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
        data, _ = simulate("ue", ue, c["T"], seed=c["seed"])
        for filt, hyper in ((ue_forward_filter(data, ue), ue), (bb_forward_filter(data, bb), bb)):
            assert_factors(filt.g)
            ens = sample_ensemble(filt, hyper, 10, seed=3)
            for path in ens.paths:
                assert_factors(path.factors)
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
        ens = sample_ensemble(fu, ue, 5, seed=3)
        assert ens.n_draws == 5
        assert ens.paths[2].seed_info == (3, 2)
        again = sample_ensemble(fu, ue, 5, seed=3)
        np.testing.assert_array_equal(ens.paths[4].factors, again.paths[4].factors)

    def test_correlation_summary_shape_and_range(self):
        data, ue, _, fu, _ = filters(T=8, q=3, seed=12)
        ens = sample_ensemble(fu, ue, 40, seed=1)
        levels = [0.1, 0.5, 0.9]
        curves = correlation_summary(ens, levels)
        assert curves.shape == (3, 3, 9)
        assert np.all(curves >= -1) and np.all(curves <= 1)
        assert np.all(np.diff(curves, axis=0) >= 0)  # quantile ordering
        # dense reference: invert each Phi_t and read rho_ij
        sigma = np.linalg.inv(gram(np.array([p.factors for p in ens.paths])))
        for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
            rho = sigma[..., i, j] / np.sqrt(sigma[..., i, i] * sigma[..., j, j])
            np.testing.assert_allclose(curves[:, k], np.quantile(rho, levels, axis=0), rtol=1e-10)

    def test_correlation_summary_validation(self):
        data, ue, _, fu, _ = filters(T=4, q=2)
        ens = sample_ensemble(fu, ue, 3, seed=0)
        with pytest.raises(InvalidParameter):
            correlation_summary(ens, [0.0, 0.5])
        with pytest.raises(InvalidParameter):
            correlation_summary(sample_ensemble(fu, ue, 1, seed=0), [0.5])
