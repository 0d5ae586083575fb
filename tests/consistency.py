"""Validation harness for the backward conditionals (criteria 7 and 8).

``joint_consistency_report`` runs the package's evolution and backward
steps on stacked draws and compares the two joints they must share.
"""

import numpy as np

from wishartsv.matops import gram, inv_upper, rchol, right_solve
from wishartsv.randsamp import sample_chi2, sample_wishart_bartlett, sample_wishart_factor
from wishartsv.smoother import bb_backward_step, ue_backward_step
from wishartsv.volproc import bb_evolve, ue_evolve


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
    posterior Wishart(k_t, (k D_t)^{-1}), then one evolution step.
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
        k_obs, disc, beta, df_prior = hyper.k, hyper.lam, hyper.n / (hyper.n + hyper.k), hyper.n
    else:
        k_obs, disc, beta, df_prior = hyper.k, hyper.b, hyper.beta, hyper.beta * k_t
    q = d_t.shape[0]
    g_t = np.sqrt(k_obs) * rchol(d_t)  # G_t G_t' = k D_t, as the filter builds it
    p_t = inv_upper(g_t)  # P_t' P_t = (k D_t)^{-1}

    # forward join: Phi_t | D_t, then one evolution step
    at = sample_wishart_bartlett(k_t, p_t, rng, size=n_draws)
    anext = ue_evolve(at, hyper, rng) if model == "ue" else bb_evolve(at, k_t, hyper, rng, p_prev=p_t)

    # backward join: Phi_{t+1} from the one-step prior (under matching the
    # UE and BB priors coincide), then one backward step
    f_next = right_solve(sample_wishart_factor(q, df_prior, rng, size=n_draws), g_t) / np.sqrt(disc)
    if backward_model == "ue":
        f_t = ue_backward_step(f_next, g_t, disc, sample_wishart_factor(q, k_obs, rng, size=n_draws))
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
