"""Reference computations the tests check the package against.

``joint_consistency_report`` runs the package's evolution and backward
steps on stacked draws and compares the two joints they must share
(criteria 7 and 8).  ``kummer_partner`` evaluates the other side of
Kummer's relation U(-1/2, 0, z) = z U(1/2, 2, z) by quadrature, apart
from the package's Bessel closed form (criterion 6).
"""

import math

import numpy as np
from scipy.integrate import quad

from wishartsv.matops import gram, inv_upper, rchol, right_solve
from wishartsv.randsamp import sample_chi2, sample_wishart_bartlett, sample_wishart_factor
from wishartsv.smoother import bb_backward_step, ue_backward_step
from wishartsv.volproc import bb_evolve, ue_evolve


def kummer_partner(z: float) -> float:
    """z U(1/2, 2, z) for z > 0 from U's integral representation, with t = s^2.

    z U(1/2, 2, z) = (2 z / sqrt(pi)) int_0^inf exp(-z s^2) sqrt(1 + s^2) ds.
    """
    val, _ = quad(lambda s: math.exp(-z * s * s) * math.sqrt(1.0 + s * s), 0.0, np.inf,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * z * val / math.sqrt(math.pi)


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
    p_t = inv_upper(g_t)  # P_t' P_t = D_t^{-1}

    # forward join: Phi_t | D_t, then one evolution step
    at = sample_wishart_bartlett(k_t, p_t, rng, size=n_draws)
    anext = ue_evolve(at, hyper, rng) if model == "ue" else bb_evolve(at, k_t, hyper, rng, p_prev=p_t)

    # backward join: Phi_{t+1} from the one-step prior (under matching the
    # UE and BB priors coincide), then one backward step
    f_next = right_solve(sample_wishart_factor(q, df_prior, rng, size=n_draws), g_t) / np.sqrt(disc)
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
