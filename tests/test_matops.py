import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wishartsv.errors import NotPositiveDefinite, SingularMatrix
from wishartsv.matops import (
    chol_update,
    inv_upper,
    logdet_spd,
    quad_form,
    right_solve,
    uchol,
)

ENTRIES = st.floats(-1e3, 1e3)


@st.composite
def stacks(draw):
    """(upper factors with positive diagonal (N, q, q), vectors (N, q), matrices (N, q, q))."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    r = np.triu(draw(hnp.arrays(float, (n, q, q), elements=ENTRIES)))
    idx = np.arange(q)
    r[:, idx, idx] = np.abs(r[:, idx, idx]) + 1e-3
    x = draw(hnp.arrays(float, (n, q), elements=ENTRIES))
    m = draw(hnp.arrays(float, (n, q, q), elements=ENTRIES))
    return r, x, m


def brute_det(a):
    """Cofactor-expansion determinant, independent of any factorization."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * brute_det(minor)
    return total


class TestUchol:
    def test_identity(self):
        np.testing.assert_allclose(uchol(np.eye(3)), np.eye(3))

    def test_2x2_exact(self):
        r = uchol(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(r, [[2.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(r.T @ r, [[4.0, 2.0], [2.0, 5.0]], rtol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            uchol(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_raises(self):
        with pytest.raises(NotPositiveDefinite):
            uchol(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("q", range(1, 11))
    def test_roundtrip_random_spd(self, q):
        rng = np.random.default_rng(100 + q)
        g = rng.standard_normal((q, q))
        a = g.T @ g + q * np.eye(q)
        r = uchol(a)
        assert np.all(np.tril(r, -1) == 0)
        assert np.all(r.diagonal() > 0)
        np.testing.assert_allclose(r.T @ r, a, rtol=1e-10)


class TestInvUpper:
    def test_identity(self):
        np.testing.assert_allclose(inv_upper(np.eye(2)), np.eye(2))

    def test_2x2(self):
        r = np.array([[2.0, 1.0], [0.0, 2.0]])
        inv = inv_upper(r)
        np.testing.assert_allclose(inv, [[0.5, -0.25], [0.0, 0.5]])
        np.testing.assert_allclose(r @ inv, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(inv_upper(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inv_upper(np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_involution(self, q):
        rng = np.random.default_rng(7 + q)
        r = np.triu(rng.standard_normal((q, q)))
        r[np.diag_indices(q)] = 1.0 + rng.random(q)
        np.testing.assert_allclose(inv_upper(inv_upper(r)), r, rtol=1e-10, atol=1e-12)


class TestRightSolve:
    def test_2x2(self):
        g = np.array([[2.0, 1.0], [0.0, 4.0]])
        m = np.array([[2.0, 3.0], [4.0, 6.0]])
        np.testing.assert_allclose(right_solve(m, g) @ g, m, rtol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stacks())
    def test_stack_matches_slices(self, case):
        # every row of every slice is a right-hand side of one solve with
        # G = r[0]; a single-row right-hand side (q = 1 here) may take a
        # different BLAS path, so only there the result may differ by an ulp
        r, _, m = case
        g = r[0]
        stacked = right_solve(m, g)
        for i in range(m.shape[0]):
            one = right_solve(m[i], g)
            if m.shape[-1] > 1:
                np.testing.assert_array_equal(stacked[i], one)
            else:
                np.testing.assert_allclose(stacked[i], one, rtol=4.5e-16, atol=0)


class TestQuadForm:
    def test_identity(self):
        assert quad_form(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(1.0)

    def test_zero_vector(self):
        a = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        assert quad_form(np.zeros(3), a) == 0.0

    def test_2x2_hand_oracle(self):
        # a^{-1} = (1/16) [[5, -2], [-2, 4]]; x = (1,1) gives (5-2-2+4)/16 = 5/16
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        assert quad_form(np.array([1.0, 1.0]), a) == pytest.approx(0.3125, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_nonnegative(self, q):
        rng = np.random.default_rng(13 + q)
        g = rng.standard_normal((q, q))
        a = g.T @ g + q * np.eye(q)
        for _ in range(20):
            x = rng.standard_normal(q)
            assert quad_form(x, a) > 0
        assert quad_form(np.zeros(q), a) == 0.0


class TestLogdetSpd:
    def test_identity(self):
        assert logdet_spd(np.eye(5)) == pytest.approx(0.0)

    def test_diagonal(self):
        assert logdet_spd(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-12)

    def test_2x2(self):
        assert logdet_spd(np.array([[4.0, 2.0], [2.0, 5.0]])) == pytest.approx(
            np.log(16.0), rel=1e-12
        )

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_against_cofactor_expansion(self, q):
        rng = np.random.default_rng(29 + q)
        g = rng.standard_normal((q, q))
        a = g.T @ g + q * np.eye(q)
        assert logdet_spd(a) == pytest.approx(np.log(brute_det(a)), rel=1e-10)


class TestCholUpdate:
    def test_2x2_hand_case(self):
        # I + (1,1)(1,1)' = [[2,1],[1,2]]
        r = chol_update(np.eye(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            r, [[np.sqrt(2.0), 1 / np.sqrt(2.0)], [0.0, np.sqrt(1.5)]], rtol=1e-14
        )

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_matches_dense_refactorization(self, q):
        # the row rotation must use the pre-update row values; this case
        # regressed once through numpy view aliasing
        rng = np.random.default_rng(41 + q)
        for _ in range(30):
            g = rng.standard_normal((q, q))
            a = g.T @ g + np.eye(q)
            x = rng.standard_normal(q)
            np.testing.assert_allclose(
                chol_update(uchol(a), x), uchol(a + np.outer(x, x)), atol=1e-12, rtol=1e-10
            )

    def test_inputs_untouched(self):
        r = uchol(np.array([[2.0, 0.5], [0.5, 3.0]]))
        x = np.array([0.7, -0.3])
        r0, x0 = r.copy(), x.copy()
        chol_update(r, x)
        np.testing.assert_array_equal(r, r0)
        np.testing.assert_array_equal(x, x0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stacks())
    def test_stack_matches_slices(self, case):
        # the stacked rotations are the scalar loop's, elementwise
        r, x, _ = case
        stacked = chol_update(r, x)
        for i in range(r.shape[0]):
            np.testing.assert_array_equal(stacked[i], chol_update(r[i], x[i]))

    def test_extreme_conditioning(self):
        # determinant identity |R'R + xx'| = |R'R| (1 + x'(R'R)^{-1}x)
        # holds on the factor even when the dense matrix is numerically
        # singular (cond ~ 1e40)
        r = np.diag([1e-10, 1.0, 1e10])
        r[0, 1], r[1, 2] = 0.3, -0.7
        x = np.array([1e-9, 0.5, 1e9])
        from scipy.linalg import solve_triangular

        w = solve_triangular(r, x, trans="T", lower=False)
        expect = 2 * np.sum(np.log(np.diag(r))) + np.log1p(w @ w)
        updated = chol_update(r, x)
        assert 2 * np.sum(np.log(updated.diagonal())) == pytest.approx(expect, rel=1e-12)
