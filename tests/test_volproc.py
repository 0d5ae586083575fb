import numpy as np
import pytest

from wishartsv.errors import InvalidParameter, NotPositiveDefinite
from wishartsv.matops import uchol
from wishartsv.randsamp import make_rng, sample_chi2, sample_matrix_beta
from wishartsv.volproc import (
    BBHyper,
    UEHyper,
    bb_evolve,
    diagonal_conditional_moments,
    example1_moments,
    expectation_difference,
    expected_bb_step,
    expected_ue_step,
    match_bb_to_ue,
    match_ue_to_bb,
    ue_evolve,
)


def ue3(n=5.0, lam=0.8, q=3):
    return UEHyper(q=q, k=1, n=n, lam=lam, d0=np.eye(q))


def simulate_u_tilde_gram(u, n, k, n_draws, rng):
    """Direct simulation of U~'U~ under the BB diagonal-shrink step."""
    q = u.shape[0]
    shapes_a = (n - np.arange(q)) / 2.0  # (n - i + 1)/2, 1-based i
    eta = rng.beta(shapes_a, k / 2.0, size=(n_draws, q))
    batch = np.broadcast_to(u, (n_draws, q, q)).copy()
    idx = np.arange(q)
    batch[:, idx, idx] = np.sqrt(eta) * np.abs(u.diagonal())
    return np.swapaxes(batch, 1, 2) @ batch


class TestMatching:
    def test_paper_values(self):
        bb = match_ue_to_bb(UEHyper(q=3, k=1, n=5, lam=0.799, d0=np.eye(3)))
        assert bb.k0 == 6
        assert bb.beta == pytest.approx(5 / 6)
        assert bb.b == pytest.approx(0.799)
        np.testing.assert_array_equal(bb.d0, np.eye(3))

    def test_beta_arithmetic(self):
        bb = match_ue_to_bb(UEHyper(q=3, k=1, n=10, lam=0.7, d0=np.eye(3)))
        assert bb.beta == pytest.approx(10 / 11)

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        g = rng.standard_normal((q, q))
        ue = UEHyper(
            q=q,
            k=1,
            n=q + rng.uniform(0.5, 6.0),
            lam=rng.uniform(0.5, 0.95),
            d0=g.T @ g + q * np.eye(q),
        )
        back = match_bb_to_ue(match_ue_to_bb(ue))
        assert back.n == pytest.approx(ue.n, rel=1e-12)
        assert back.lam == ue.lam
        assert back.k == pytest.approx(ue.k, rel=1e-12)

    def test_validation(self):
        for n in (0.5, np.nan):
            with pytest.raises(InvalidParameter):
                UEHyper(q=2, k=1, n=n, lam=0.8, d0=np.eye(2))
        for k0 in (-1.0, np.nan):
            with pytest.raises(InvalidParameter):
                BBHyper(q=1, k=1, beta=0.5, b=0.8, k0=k0, d0=np.eye(1))
        with pytest.raises(InvalidParameter):
            UEHyper(q=2, k=1, n=5, lam=1.2, d0=np.eye(2))
        with pytest.raises(InvalidParameter):
            BBHyper(q=3, k=1, beta=0.5, b=0.8, k0=3.0, d0=np.eye(3))  # beta*k0 <= q-1
        # each observation is one return vector: the likelihood df is 1
        with pytest.raises(InvalidParameter):
            UEHyper(q=3, k=2, n=5, lam=0.8, d0=np.eye(3))
        with pytest.raises(InvalidParameter):
            BBHyper(q=3, k=0.5, beta=0.8, b=0.8, k0=5.0, d0=np.eye(3))
        with pytest.raises(NotPositiveDefinite):
            UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEvolve:
    def test_ue_scalar_mean(self):
        ue = UEHyper(q=1, k=1, n=5, lam=0.8, d0=np.eye(1))
        rng = make_rng(31)
        n_draws = 30_000
        draws = ue_evolve(np.full((n_draws, 1, 1), 2.0), ue, rng)[:, 0, 0]
        se = draws.std(ddof=1) / np.sqrt(n_draws)
        assert abs(draws.mean() - 5 * 2 / (0.8 * 6)) < 4 * se

    def test_ue_mc_vs_closed_form(self):
        ue = ue3()
        phi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        rng = make_rng(32)
        n_draws = 100_000
        # batched equivalent of ue_evolve: Phi' = M' Psi M / lam, M = uchol(Phi)
        m = uchol(phi)
        psi = sample_matrix_beta(3, ue.n, ue.k, rng, size=n_draws)
        draws = np.swapaxes(np.broadcast_to(m, (1, 3, 3)), 1, 2) @ psi @ m / ue.lam
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(mean - expected_ue_step(phi, ue)), 4 * se + 1e-12)

    def test_ue_invalid_phi(self):
        with pytest.raises(NotPositiveDefinite):
            ue_evolve(np.array([[1.0, 2.0], [2.0, 1.0]]), ue3(q=2), make_rng(0))

    def test_bb_scalar_mean(self):
        bb = match_ue_to_bb(UEHyper(q=1, k=1, n=5, lam=0.8, d0=np.eye(1)))
        rng = make_rng(33)
        n_draws = 30_000
        draws = bb_evolve(np.full((n_draws, 1, 1), 2.0), 6.0, bb, rng)[:, 0, 0]
        se = draws.std(ddof=1) / np.sqrt(n_draws)
        assert abs(draws.mean() - (5 / 6) * 2 / 0.8) < 4 * se

    def test_bb_mc_vs_closed_form(self):
        bb = match_ue_to_bb(ue3())
        phi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        rng = make_rng(34)
        n_draws = 30_000
        draws = bb_evolve(np.broadcast_to(phi, (n_draws, 3, 3)), 6.0, bb, rng)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(mean - expected_bb_step(phi, bb)), 4 * se + 1e-12)

    def test_bb_shape_guard(self):
        # beta * k_prev = q - 1 makes the last Beta shape zero
        bb = match_ue_to_bb(ue3())
        with pytest.raises(InvalidParameter):
            bb_evolve(np.eye(3), (3 - 1) / bb.beta, bb, make_rng(0))


class TestExpectedSteps:
    def test_ue_unit_factor(self):
        ue = UEHyper(q=2, k=1, n=5, lam=5 / 6, d0=np.eye(2))
        np.testing.assert_allclose(expected_ue_step(np.eye(2), ue), np.eye(2), rtol=1e-12)

    def test_ue_scalar(self):
        ue = UEHyper(q=1, k=1, n=5, lam=0.8, d0=np.eye(1))
        assert expected_ue_step(np.array([[2.0]]), ue)[0, 0] == pytest.approx(25 / 12)

    def test_ue_proportionality(self):
        ue = ue3()
        phi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        c = ue.n / (ue.lam * (ue.n + ue.k))
        np.testing.assert_allclose(expected_ue_step(phi, ue), c * phi, rtol=1e-12)

    def test_bb_first_diagonal_matches_ue_factor(self):
        # i = 1 uses n/(n+k), the same ratio as UE
        bb = match_ue_to_bb(ue3())
        out = expected_bb_step(np.eye(3), bb, p_prev=np.eye(3))
        assert out[0, 0] == pytest.approx(5 / 6 / 0.8, rel=1e-12)

    def test_bb_second_diagonal_differs(self):
        # (n - i + 1)/(n - i + 1 + k) with n=5, k=1, i=2 gives 4/5, not 5/6
        bb = match_ue_to_bb(ue3())
        out = expected_bb_step(np.eye(3), bb, p_prev=np.eye(3))
        assert out[1, 1] == pytest.approx(4 / 5 / 0.8, rel=1e-12)
        assert out[1, 1] != pytest.approx(5 / 6 / 0.8, rel=1e-6)

    def test_bb_mc_utu(self):
        rng = make_rng(35)
        u = np.triu(rng.standard_normal((3, 3)))
        u[np.diag_indices(3)] = np.abs(u.diagonal()) + 0.5
        n_draws = 1_000_000
        sims = simulate_u_tilde_gram(u, 5.0, 1.0, n_draws, rng)
        bb = match_ue_to_bb(ue3())
        phi = u.T @ u  # P = I context
        expected = expected_bb_step(phi, bb, p_prev=np.eye(3)) * bb.b  # strip 1/b
        mean = sims.mean(axis=0)
        se = sims.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(mean - expected), 4 * se + 1e-12)


class TestExpectationDifference:
    def test_scalar_zero(self):
        ue = UEHyper(q=1, k=1, n=5, lam=0.8, d0=np.eye(1))
        assert expectation_difference(np.array([[3.0]]), ue)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_example(self):
        ue = UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2))
        diff = expectation_difference(np.eye(2), ue, p_prev=np.eye(2))
        np.testing.assert_allclose(diff, np.diag([0.0, (5 / 6 - 4 / 5) / 0.8]), atol=1e-12)
        assert diff[1, 1] > 0  # generically nonzero for q >= 2

    def test_consistency_with_subtraction(self):
        ue = ue3()
        bb = match_ue_to_bb(ue)
        phi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        direct = expectation_difference(phi, ue)
        indirect = expected_ue_step(phi, ue) - expected_bb_step(phi, bb)
        np.testing.assert_allclose(direct, indirect, atol=1e-12)


class TestExample1:
    def test_diagonal_upsilon(self):
        lam = 0.5
        ups = np.diag([1.2, 0.8])
        tu, tb = example1_moments(ups, lam)
        np.testing.assert_allclose(tu.mean.diagonal(), lam * ups.diagonal() ** 2 + 1)
        np.testing.assert_allclose(tb.mean.diagonal(), lam * ups.diagonal() ** 2 + 1)
        np.testing.assert_allclose(np.diag(tu.var), [2.0, 2.0])
        np.testing.assert_allclose(np.diag(tb.var), [2.0, 2.0])

    def test_offdiagonal_ordering(self):
        # upsilon_12 > 0: BB mean larger; lam*ups12^2 < 1: BB variance smaller
        tu, tb = example1_moments(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)
        assert tb.mean[0, 1] > tu.mean[0, 1]
        assert tb.var[0, 1] < tu.var[0, 1]

    def test_bb_mc(self):
        lam = 0.5
        ups = np.array([[1.0, 0.7], [0.0, 1.0]])
        _, tb = example1_moments(ups, lam)
        n_draws = 1_000_000
        rng = make_rng(36)
        theta = sample_chi2(1.0, rng, size=(n_draws, 2))
        u = np.broadcast_to(np.sqrt(lam) * ups, (n_draws, 2, 2)).copy()
        idx = np.arange(2)
        u[:, idx, idx] = np.sqrt(lam * ups.diagonal() ** 2 + theta)
        phis = np.swapaxes(u, 1, 2) @ u
        se_mean = phis.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(phis.mean(axis=0) - tb.mean), 4 * se_mean)
        centered_sq = (phis - phis.mean(axis=0)) ** 2
        se_var = centered_sq.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(phis.var(axis=0) - tb.var), 4 * se_var)

    def test_var_nonnegative_grid(self):
        for lam in (0.1, 0.5, 0.9):
            for v in (0.1, 1.0, 3.0):
                ups = np.array([[v, v], [0.0, v]])
                _, tb = example1_moments(ups, lam)
                assert np.all(tb.var >= 0)

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParameter):
            example1_moments(np.eye(2), 1.5)


class TestDiagonalConditionalMoments:
    def test_printed_example(self):
        tu, tb = diagonal_conditional_moments([1.0, 1.0], [1.0, 1.0], 0.5)
        np.testing.assert_allclose(tu.mean, np.diag([1.5, 1.5]))
        np.testing.assert_allclose(tb.mean, np.diag([1.5, 1.5]))
        np.testing.assert_allclose(tu.var, [[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(tb.var, np.diag([2.0, 2.0]))

    def test_bb_offdiagonal_zero(self):
        _, tb = diagonal_conditional_moments([2.0, 0.5, 1.0], [0.3, 0.7, 1.1], 0.8)
        offdiag = tb.var - np.diag(np.diag(tb.var))
        assert np.all(offdiag == 0)

    def test_ue_offdiag_variance_mc(self):
        # Z = x x', x ~ N(0, diag(d)); offdiag of lam*Phi + Z is x1 x2, var d1 d2
        d = np.array([0.5, 2.0])
        rng = make_rng(37)
        n_draws = 1_000_000
        x = rng.standard_normal((n_draws, 2)) * np.sqrt(d)
        off = x[:, 0] * x[:, 1]
        tu, _ = diagonal_conditional_moments([1.0, 1.0], d, 0.5)
        se = (off - off.mean()).std(ddof=1) ** 2 / np.sqrt(n_draws)  # rough scale
        se = np.sqrt(np.var((off - off.mean()) ** 2) / n_draws)
        assert abs(off.var() - tu.var[0, 1]) < 4 * se

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            diagonal_conditional_moments([1.0, -1.0], [1.0, 1.0], 0.5)
