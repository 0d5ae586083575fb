"""Reference computations the tests check the package against.

``joint_consistency_report`` runs the package's evolution and backward
steps on stacked draws and compares the two joints they must share
(criteria 7 and 8).  ``kummer_partner`` evaluates the other side of
Kummer's relation U(-1/2, 0, z) = z U(1/2, 2, z) by quadrature, apart
from the package's Bessel closed form (criterion 6).
``bb_backward_step_product`` is the BB backward step as a product and a
LAPACK solve, the form the package's closed form is checked against.
``rchol`` gives the filter's factor G of a dense D, G G' = D, and
``chol_update`` a rank-1 update of a stack of factors by Givens
rotations, the reference the filter's factor path is checked against.
``wishart_draws`` draws Wishart_q(df, P' P) matrices from the package's
Bartlett factors.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular

from wishartsv.matops import gram, tri_solve_stack, uchol
from wishartsv.randsamp import sample_chi2, sample_wishart_factor
from wishartsv.smoother import bb_backward_step, ue_backward_step
from wishartsv.volproc import bb_evolve, ue_evolve


def wishart_draws(df: float, p: np.ndarray, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Wishart_q(df, P' P) draw(s) (W P)' W P, W from ``sample_wishart_factor``; (size, q, q) with ``size``."""
    p = np.asarray(p, dtype=float)
    return gram(sample_wishart_factor(p.shape[0], df, rng, size=size) @ p)


def rchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular G with G G' = a: J uchol(J a J)' J, J the reversal."""
    return uchol(np.asarray(a, dtype=float)[::-1, ::-1]).T[::-1, ::-1]


def chol_update(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of R' R + x x' by Givens-style rank-1 update.

    Works directly on the factor, so it stays accurate for matrices far
    too ill-conditioned to refactor densely.  A stack r (..., q, q) with
    x (..., q) applies the same rotations to every matrix at once, so a
    slice of a stack and the matrix alone give the same bits; the result
    keeps r's memory order.  The package's Givens loop makes the same
    rotations with rho from ``math.hypot``; here rho comes from
    ``np.hypot``.  A zero pivot gives NaN entries, not an error.
    """
    r = np.array(r, dtype=float)
    x = np.array(x, dtype=float)
    q = r.shape[-1]
    for i in range(q):
        rho = np.hypot(r[..., i, i], x[..., i])
        c = (r[..., i, i] / rho)[..., None]
        s = (x[..., i] / rho)[..., None]
        r[..., i, i] = rho
        if i + 1 < q:
            row = r[..., i, i + 1 :].copy()
            r[..., i, i + 1 :] = c * row + s * x[..., i + 1 :]
            x[..., i + 1 :] = c * x[..., i + 1 :] - s * row
    return r


def kummer_partner(z: float) -> float:
    """z U(1/2, 2, z) for z > 0 from U's integral representation, with t = s^2.

    z U(1/2, 2, z) = (2 z / sqrt(pi)) int_0^inf exp(-z s^2) sqrt(1 + s^2) ds.
    """
    val, _ = quad(lambda s: math.exp(-z * s * s) * math.sqrt(1.0 + s * s), 0.0, np.inf,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * z * val / math.sqrt(math.pi)


def bb_backward_step_product(f_next: np.ndarray, g_t: np.ndarray, b: float, theta: np.ndarray) -> np.ndarray:
    """The BB backward step as first stated: U = sqrt(b) F_{t+1} G_t, its diagonal
    raised to sqrt(u_ii^2 + theta_i), then F_t = U G_t^{-1} by a LAPACK solve."""
    u = math.sqrt(b) * f_next @ g_t
    idx = np.arange(g_t.shape[0])
    u[..., idx, idx] = np.sqrt(u[..., idx, idx] ** 2 + theta)
    return solve_triangular(g_t, u.reshape(-1, u.shape[-1]).T, trans="T").T.reshape(u.shape)  # U G^{-1}, row by row


def joint_consistency_report(
    model: str,
    hyper,
    d_t: np.ndarray,
    k_t: float,
    n_draws: int,
    rng: np.random.Generator,
    backward_model: str | None = None,
) -> dict:
    """Two-sample moment comparison validating the backward conditionals.

    Path A samples (Phi_t, Phi_{t+1}) forward: Phi_t from the filtered
    posterior Wishart(k_t, D_t^{-1}), then one evolution step.
    Path B samples Phi_{t+1} from the one-step prior and applies the
    backward conditional.  Both joints target p(Phi_t, Phi_{t+1} | D_t),
    so all moments must agree; ``backward_model`` lets path B use the
    *other* process to expose the non-equivalence of the conditionals.

    Returns z-statistic grids for first moments of both slices, second
    moments of both slices, and the entrywise cross moments
    E[(Phi_t)_ij (Phi_{t+1})_ij].
    """
    backward_model = backward_model or model
    if model == "ue":
        disc, beta, df_prior = hyper.lam, hyper.n / (hyper.n + hyper.k), hyper.n
    else:
        disc, beta, df_prior = hyper.b, hyper.beta, hyper.beta * k_t
    q = d_t.shape[0]
    g_t = rchol(d_t)  # G_t G_t' = D_t, as the filter builds it
    p_t = solve_triangular(g_t, np.eye(q))  # P_t = G_t^{-1}, P_t' P_t = D_t^{-1}

    # forward join: Phi_t | D_t, then one evolution step
    at = wishart_draws(k_t, p_t, rng, size=n_draws)
    anext = ue_evolve(at, hyper, rng) if model == "ue" else bb_evolve(at, k_t, hyper, rng, p_prev=p_t)

    # backward join: Phi_{t+1} from the one-step prior (under matching the
    # UE and BB priors coincide), then one backward step
    f_next = tri_solve_stack(g_t, sample_wishart_factor(q, df_prior, rng, size=n_draws), trans=True) / np.sqrt(disc)
    if backward_model == "ue":
        f_t = ue_backward_step(f_next, g_t, disc, sample_wishart_factor(q, 1, rng, size=n_draws)[:, 0])
    else:
        f_t = bb_backward_step(f_next, g_t, disc, sample_chi2((1.0 - beta) * k_t, rng, size=(n_draws, q)))
    bnext, bt = gram(f_next), gram(f_t)

    def zstat(xa, xb):
        ma, mb = xa.mean(axis=0), xb.mean(axis=0)
        va, vb = xa.var(axis=0, ddof=1), xb.var(axis=0, ddof=1)
        denom = np.sqrt(va / xa.shape[0] + vb / xb.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(denom > 0, (ma - mb) / denom, 0.0)
        return z

    return {
        "z_mean_t": zstat(at, bt),
        "z_mean_next": zstat(anext, bnext),
        "z_second_t": zstat(at**2, bt**2),
        "z_second_next": zstat(anext**2, bnext**2),
        "z_cross": zstat(at * anext, bt * bnext),
        "n_draws": n_draws,
    }
