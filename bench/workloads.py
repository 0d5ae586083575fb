"""The three workloads: inputs, the commands of one round, and their checks.

A round is a fixed list of CLI operations run back to back (closed loop,
one client).  Every operation's inputs come from the run seed, except the
ill-conditioned ``smooth`` input, whose seed is fixed so that the
operation fails the same way in every run until the program is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

GRID = {"q": 3, "T": 1000, "n_grid": list(range(3, 21)), "lambda_grid": [0.95, 0.98]}
SMOOTH = {"q": 5, "T": 500, "n": 10, "lambda": 0.95, "draws": 10, "level": 0.95,
          "quantiles": [0.025, 0.5, 0.975]}
# criterion 13's setting, drawn from the UE model's own law
ILL = {"q": 3, "T": 1000, "n": 6, "lambda": 0.85, "draws": 10, "input_seed": 42, "seed": 7}
MIXTURE = {"q": 2, "T": 100, "n": 8, "lambda": 0.95, "draws": 25, "burn_in": 5, "batches": 5}
KS_CHAIN = {"q": 2, "T": 4, "n": 5.0, "lambda": 0.9, "a0": 2.0, "b0": 3.0,
            "iterations": 1200, "burn_in": 100, "thin": 10}

STREAM = {"grid": 1, "smooth": 2, "mixture": 3}


@dataclass
class Op:
    name: str
    command: str
    cfg: dict
    work: int  # model work units the operation completes
    check: Callable[[Path], None]


@dataclass
class Workload:
    name: str
    unit: str
    ops: list
    final_check: Callable[[], None] | None = None


def _series(workdir: Path, tag: str, rng: np.random.Generator, q: int, T: int):
    x = inputs.fx_returns(rng, q, inputs.PRESAMPLE_T + T)
    pre, data = x[: inputs.PRESAMPLE_T], x[inputs.PRESAMPLE_T:]
    inputs.write_returns_csv(workdir / f"{tag}_presample.csv", pre)
    inputs.write_returns_csv(workdir / f"{tag}.csv", data)
    files = {"data_csv": str(workdir / f"{tag}.csv"), "presample_csv": str(workdir / f"{tag}_presample.csv")}
    return data, pre, files


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under ``workdir`` and list its round."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, STREAM[name]])
    return {"grid": _grid, "smooth": _smooth, "mixture": _mixture}[name](seed, workdir, rng)


def _grid(seed, workdir, rng) -> Workload:
    p = GRID
    data, pre, files = _series(workdir, "grid", rng, p["q"], p["T"])
    cache: dict = {}
    cfg = {"q": p["q"], **files, "n_grid": p["n_grid"], "lambda_grid": p["lambda_grid"],
           "seed": seed, "out": str(workdir / "grid_search")}
    op = Op("grid-search", "grid-search", cfg, len(p["n_grid"]) * len(p["lambda_grid"]) * p["T"],
            lambda out: checks.check_grid(out, data, pre, p["n_grid"], p["lambda_grid"], cache))
    return Workload("grid", "forecast-density terms", [op])


def _smooth(seed, workdir, rng) -> Workload:
    p, ill = SMOOTH, ILL
    data, pre, files = _series(workdir, "smooth", rng, p["q"], p["T"])
    ill_data = inputs.ue_prior_law_returns(np.random.default_rng(ill["input_seed"]), ill["q"], ill["n"],
                                           ill["lambda"], ill["T"])
    inputs.write_returns_csv(workdir / "ill.csv", ill_data)
    cache: dict = {}
    base = {"q": p["q"], **files, "n": p["n"], "lambda": p["lambda"], "draws": p["draws"],
            "level": p["level"], "quantiles": p["quantiles"], "seed": seed}
    n, lam, draws, quant = p["n"], p["lambda"], p["draws"], p["quantiles"]
    matrices = 2 * draws * (p["T"] + 1)  # both models
    ill_cfg = {"q": ill["q"], "data_csv": str(workdir / "ill.csv"), "n": ill["n"], "lambda": ill["lambda"],
               "draws": ill["draws"], "quantiles": quant, "seed": ill["seed"], "out": str(workdir / "smooth_ill")}
    ops = [
        Op("filter", "filter", {**base, "out": str(workdir / "filter")}, 0,
           lambda out: checks.check_filter(out, data, pre, n, lam, cache)),
        Op("ppc", "ppc", {**base, "out": str(workdir / "ppc")}, 0,
           lambda out: checks.check_ppc(out, data, pre, n, lam, p["level"], cache)),
        Op("smooth", "smooth", {**base, "out": str(workdir / "smooth")}, matrices,
           lambda out: checks.check_smooth(out, data, pre, n, lam, draws, quant, seed, cache)),
        Op("compare-plr", "compare-plr", {**base, "out": str(workdir / "compare_plr")}, matrices,
           lambda out: checks.check_plr(out, draws)),
        Op("smooth-ill", "smooth", ill_cfg, 2 * ill["draws"] * (ill["T"] + 1),
           lambda out: checks.check_correlations(out, ("ue", "bb"), ill["T"], ill["q"], quant)),
    ]
    return Workload("smooth", "precision matrices sampled", ops)


def _mixture(seed, workdir, rng) -> Workload:
    p = MIXTURE
    data, pre, files = _series(workdir, "mixture", rng, p["q"], p["T"])
    cfg = {"q": p["q"], **files, "n": p["n"], "lambda": p["lambda"], "draws": p["draws"],
           "burn_in": p["burn_in"], "batches": p["batches"], "seed": seed, "out": str(workdir / "compare_mixture")}
    op = Op("compare-mixture", "compare-mixture", cfg, p["draws"] * p["T"],
            lambda out: checks.check_mixture(out, p["draws"], p["burn_in"], p["batches"]))
    ks_data = rng.standard_normal((KS_CHAIN["T"], KS_CHAIN["q"]))
    return Workload("mixture", "indicator updates", [op], final_check=lambda: _degenerate_ks(ks_data, seed))


def _degenerate_ks(data: np.ndarray, seed: int) -> None:
    """A degenerate chain's alpha must follow its Beta(a0, b0) stationary law."""
    from scipy.stats import beta as beta_dist
    from scipy.stats import kstest
    from wishartsv.compare import MixtureConfig, mixture_gibbs
    from wishartsv.filtering import ReturnsSeries
    from wishartsv.volproc import UEHyper, match_ue_to_bb

    k = KS_CHAIN
    ue = UEHyper(q=k["q"], k=1, n=k["n"], lam=k["lambda"], d0=np.eye(k["q"]))
    cfg = MixtureConfig(a0=k["a0"], b0=k["b0"], iterations=k["iterations"], burn_in=k["burn_in"], seed=seed)
    trace = mixture_gibbs(ReturnsSeries(data), ue, match_ue_to_bb(ue), cfg, degenerate=True)
    thinned = trace.alpha[:: k["thin"]]
    stat = kstest(thinned, beta_dist(k["a0"], k["b0"]).cdf).statistic
    checks.require(stat < 3.0 / np.sqrt(thinned.size),
                   f"degenerate chain: KS statistic {stat:.3f} against Beta({k['a0']}, {k['b0']})")
