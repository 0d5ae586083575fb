import ast
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular

from consistency import chol_update, givens_chain
import wishartsv
from wishartsv.errors import InvalidParameter, NotPositiveDefinite
from wishartsv.matops import _fault_at, _givens_chain, _givens_pivots, tri_solve_stack, uchol, uchol_components

ENTRIES = st.floats(-1e3, 1e3)


@st.composite
def stacks(draw):
    """(upper factors with positive diagonal (N, q, q), vectors (N, q))."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    r = np.triu(draw(hnp.arrays(float, (n, q, q), elements=ENTRIES)))
    idx = np.arange(q)
    r[:, idx, idx] = np.abs(r[:, idx, idx]) + 1e-3
    x = draw(hnp.arrays(float, (n, q), elements=ENTRIES))
    return r, x


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)]], ids=["diagonal", "off-diagonal"])
    def test_nonfinite_raises(self, entries, value):
        # NaN compares false, so the symmetry and pivot tests alone pass it
        a = np.eye(2)
        for entry in entries:
            a[entry] = value
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            uchol(a)

    @pytest.mark.parametrize("q", range(1, 11))
    def test_roundtrip_random_spd(self, q):
        rng = np.random.default_rng(100 + q)
        g = rng.standard_normal((q, q))
        a = g.T @ g + q * np.eye(q)
        r = uchol(a)
        assert np.all(np.tril(r, -1) == 0)
        assert np.all(r.diagonal() > 0)
        np.testing.assert_allclose(r.T @ r, a, rtol=1e-10)


class TestTriSolveStack:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(0, 8), st.booleans(), st.integers(0, 2**32 - 1))
    @example(q=1, T=0, trans=False, seed=0)
    @example(q=3, T=0, trans=True, seed=0)
    @example(q=1, T=4, trans=False, seed=1)
    @example(q=1, T=4, trans=True, seed=1)
    def test_matches_tri_solve(self, q, T, trans, seed):
        # back-substitution over the stack against scipy's LAPACK solve
        # per t; the two sum each row in a different order, so they agree
        # to 1e-13 of each solution's largest entry, not bit for bit
        rng = np.random.default_rng(seed)
        r = np.triu(rng.uniform(-1.0, 1.0, (T, q, q)))
        idx = np.arange(q)
        r[:, idx, idx] = rng.uniform(0.5, 2.0, (T, q))
        b = rng.standard_normal((T, q))
        x = tri_solve_stack(r, b, trans=trans)
        assert x.shape == (T, q)
        for t in range(T):
            expect = solve_triangular(r[t], b[t], trans=int(trans), lower=False)
            np.testing.assert_allclose(x[t], expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())
            # a slice of the stack gives the bits of the factor alone
            np.testing.assert_array_equal(tri_solve_stack(r[t], b[t], trans=trans), x[t])

    @pytest.mark.parametrize("trans", [False, True])
    def test_broadcast_inverse(self, trans):
        # an identity right-hand side against a (T, 1, q, q) stack gives
        # every G_t^{-1} (rows with trans, columns without)
        r = np.array([[[2.0, 1.0, 0.5], [0.0, 4.0, -1.0], [0.0, 0.0, 0.5]]] * 2)
        x = tri_solve_stack(r[:, None], np.eye(3), trans=trans)
        inv = np.linalg.inv(r)
        np.testing.assert_allclose(x, inv if trans else np.swapaxes(inv, -1, -2), rtol=1e-15, atol=0)
        assert np.all(np.tril(x if trans else np.swapaxes(x, -1, -2), -1) == 0)

    def test_right_solve(self):
        # m G^{-1} as the passes form it: with trans, every row of every
        # matrix of a stack m against one factor G; a slice of the stack
        # gives the bits of the matrix alone
        g = np.array([[2.0, 1.0], [0.0, 4.0]])
        m = np.array([[[2.0, 3.0], [4.0, 6.0]], [[-1.0, 0.5], [0.0, 7.0]]])
        x = tri_solve_stack(g, m, trans=True)
        np.testing.assert_allclose(x @ g, m, rtol=1e-15)
        for i in range(len(m)):
            np.testing.assert_array_equal(tri_solve_stack(g, m[i], trans=True), x[i])


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

    def test_keeps_memory_order(self):
        # uchol returns an F-ordered factor; matmuls downstream round by
        # memory order, so the update must not change it
        r = uchol(np.array([[2.0, 0.5], [0.5, 3.0]]))
        x = np.array([0.7, -0.3])
        assert chol_update(r, x).flags.f_contiguous
        assert chol_update(np.ascontiguousarray(r), x).flags.c_contiguous
        np.testing.assert_array_equal(chol_update(r, x), chol_update(np.ascontiguousarray(r), x))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stacks())
    def test_stack_matches_slices(self, case):
        # each matrix of a stack is rotated as it would be alone
        r, x = case
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


def chain_case(q, seed, T=60):
    """(R_0 with a positive diagonal and a non-zero strict lower triangle, rows x (T, q), scale)."""
    rng = np.random.default_rng(seed)
    r0 = rng.standard_normal((q, q))
    r0[np.diag_indices(q)] = rng.uniform(0.1, 3.0, q)
    x = rng.standard_normal((T, q)) * 10.0 ** rng.uniform(-3, 3, (T, 1))
    return r0, x, float(rng.uniform(0.5, 1.0))


def reference_chain(r0, x, scale, outer):
    """``givens_chain``'s factors from R_0 = r0; with ``outer`` from G_0 = r0 in G's layout (G G' = A).

    There the reference runs on R_0 = J G_0' J and rows J x, J the reversal,
    and each R_i maps back to G_i = J R_i' J.
    """
    q = r0.shape[0]
    if outer:
        r0, x = r0.T[::-1, ::-1], x[:, ::-1]
    got = np.frombuffer(givens_chain(array("d", r0.ravel().tolist()), x.tolist(), scale)).reshape(-1, q, q)
    return got.transpose(0, 2, 1)[:, ::-1, ::-1] if outer else got


class TestGivensChain:
    # the generated per-q loop, in each layout, against the plain loop in consistency.py,
    # bit for bit; its pivots-only rendering against the full one's diagonals and last factor

    @pytest.mark.parametrize("q", range(1, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_reference_loop(self, q, seed):
        r0, x, scale = chain_case(q, seed)
        rows = x.tolist()
        for outer in (False, True):
            got = _givens_chain([tuple(r0.ravel().tolist())], rows, scale, outer=outer)
            assert got.shape == (len(rows) + 1, q, q)
            assert got.tobytes() == reference_chain(r0, x, scale, outer).tobytes()
        pivots, last = _givens_pivots(tuple(r0.ravel().tolist()), rows, scale)
        assert pivots.tobytes() == np.diagonal(got, axis1=1, axis2=2).tobytes()
        assert last.tobytes() == got[-1].tobytes()
        assert rows == x.tolist()  # the rows are read, not written

    @pytest.mark.parametrize("q", range(1, 7))
    def test_generator_reading_the_latest_factor(self, q):
        # as in simulate: each x is built from the factor the chain appended last
        r0, w, scale = chain_case(q, 10 + q)
        cols = [[(i * q + j, i) for i in range(j + 1)] for j in range(q)]

        def draws(latest):
            for w_t in w.tolist():
                r = latest()
                yield [sum(r[k] * w_t[i] for k, i in col) for col in cols]

        flat, out = array("d", r0.ravel().tolist()), [tuple(r0.ravel().tolist())]
        expect = np.frombuffer(givens_chain(flat, draws(lambda: flat[-q * q :]), scale))
        assert _givens_chain(out, draws(lambda: out[-1]), scale).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("q, row", [(1, 0), (2, 0), (2, 1), (3, 1), (5, 4), (6, 2)])
    def test_zero_pivot_raises(self, q, row):
        # each layout names its own factor's row; J G' J holds G's pivot (row, row) at (q-1-row, q-1-row)
        r0, x = np.eye(q), np.zeros((3, q))
        r0[row, row] = 0.0
        message = f"zero pivot in rank-1 update at row {row}"
        for outer in (False, True):
            with pytest.raises(NotPositiveDefinite) as expect:
                reference_chain(r0, x, 0.9, outer)
            with pytest.raises(NotPositiveDefinite) as got:
                _givens_chain([tuple(r0.ravel().tolist())], x.tolist(), 0.9, outer=outer)
            assert str(got.value) == message
            assert str(expect.value) == f"zero pivot in rank-1 update at row {q - 1 - row if outer else row}"
        with pytest.raises(NotPositiveDefinite) as got_pivots:
            _givens_pivots(tuple(r0.ravel().tolist()), x.tolist(), 0.9)
        assert str(got_pivots.value) == message

    def test_no_step(self):
        r0, _, scale = chain_case(3, 0)
        np.testing.assert_array_equal(_givens_chain([tuple(r0.ravel().tolist())], [], scale), r0[None])
        pivots, last = _givens_pivots(tuple(r0.ravel().tolist()), [], scale)
        np.testing.assert_array_equal(pivots, r0.diagonal()[None])
        np.testing.assert_array_equal(last, r0)


def components(a):
    """A stack (..., q, q) component-major, (q, q, ...)."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def stacked(r):
    """A component-major stack (q, q, ...) as (..., q, q)."""
    return np.moveaxis(r, (0, 1), (-2, -1))


def spd_stack(rng, n, q):
    m = rng.standard_normal((n, q, q))
    return np.swapaxes(m, -1, -2) @ m + 0.1 * np.eye(q)


class TestUcholComponents:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, q):
        a = spd_stack(np.random.default_rng(q), 200, q)
        r = stacked(uchol_components(components(a)))
        ref = np.swapaxes(np.linalg.cholesky(a), -1, -2)
        assert (np.linalg.norm(r - ref, axis=(-2, -1)) <= 1e-13 * np.linalg.norm(ref, axis=(-2, -1))).all()
        assert (np.tril(r, -1) == 0).all()

    def test_slice_is_the_matrix_alone(self):
        a = spd_stack(np.random.default_rng(7), 6, 4)
        r = uchol_components(components(a))
        for i in range(len(a)):
            np.testing.assert_array_equal(r[..., i], uchol_components(a[i]))

    def test_reads_the_upper_triangle(self):
        a = spd_stack(np.random.default_rng(8), 5, 3)
        junk = np.tril(np.full((3, 3), np.nan), -1)
        np.testing.assert_array_equal(uchol_components(components(a + junk)), uchol_components(components(a)))

    @pytest.mark.parametrize("bad", [np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0]), np.ones((3, 3))])
    def test_not_positive_definite_is_nan_in_its_slice(self, bad):
        a = spd_stack(np.random.default_rng(9), 4, 3)
        a[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = stacked(uchol_components(components(a)))
        assert np.isnan(r[2]).any()
        keep = [0, 1, 3]
        np.testing.assert_array_equal(r[keep], stacked(uchol_components(components(a[keep]))))


class TestFaultAt:
    def test_no_fault_returns(self):
        assert _fault_at((np.zeros((4, 2, 2), dtype=bool), InvalidParameter, "x")) is None

    @pytest.mark.parametrize("last, t0, t", [(False, 1, 2), (True, 1, 4), (False, 0, 1), (True, 0, 3)])
    def test_names_the_first_or_last_t(self, last, t0, t):
        bad = np.zeros((5, 3), dtype=bool)
        bad[1, 2] = bad[3, 0] = True  # other axes are reduced
        with pytest.raises(InvalidParameter, match=f"^x is bad at t={t}$"):
            _fault_at((bad, InvalidParameter, "x is bad"), t0=t0, last=last)

    def test_earlier_fault_wins_at_one_t(self):
        nonfinite, nonpositive = np.zeros(4, dtype=bool), np.zeros(4, dtype=bool)
        nonfinite[2] = nonpositive[2] = nonpositive[1] = True
        faults = ((nonfinite, InvalidParameter, "a"), (nonpositive, NotPositiveDefinite, "b"))
        with pytest.raises(NotPositiveDefinite, match="^b at t=2$"):
            _fault_at(*faults)
        with pytest.raises(InvalidParameter, match="^a at t=3$"):
            _fault_at(*faults, last=True)


def package_uses(*names):
    """file:line of every attribute, name or from-import in the package spelt as one of ``names``."""
    found = []
    for path in sorted(Path(wishartsv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            spelt = [node.attr] if isinstance(node, ast.Attribute) else []
            spelt += [node.id] if isinstance(node, ast.Name) else []
            spelt += [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}" for name in spelt if name in names]
    return found


def test_no_explicit_inverse_in_the_package():
    # every solve is a back-substitution (tri_solve_stack): no module forms an inverse
    assert package_uses("inv", "pinv") == []


def test_no_exponent_bookkeeping_in_the_package():
    # quantities stay in range by the math or by hypot and scipy's log-sum-exp,
    # not by splitting floats into mantissa and exponent
    assert package_uses("frexp", "ldexp") == []


def test_one_table_writer_in_the_package():
    # every CLI table goes through cli._write_table; csv is only read
    assert package_uses("writer", "writerow", "writerows") == []
