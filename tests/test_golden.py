"""Golden sha256 values of seeded sampler, simulation and filter output.

Recorded with the per-draw sequential samplers, where draw i of
``sample_ensemble(filt, N, seed)`` was exactly
``backward_sample(filt, substream(seed, i))``.  A refactor that keeps
the RNG draw order and the arithmetic keeps these bytes.  The UE
ensemble is held to the single-path sampler within a per-matrix
relative 1e-12 instead: a triangular solve with many right-hand sides
may round differently from a solve with one.

Re-recorded once when the passes stopped making per-step LAPACK calls
(the BB backward pass in closed form, back-substitution over stacks,
``math.hypot`` in the Givens loop) and the mixture sweep began drawing
its indicators and imputed rows as one block each.  Against the record
before it, every input but the mixture traces matched within 9.4e-16
relative per matrix; the mixture traces changed with the draw order.

The two BB single-path values were re-recorded once more when the BB
pass began summing its two linear recursions by recursive doubling
instead of a loop over t: they moved by at most 8.1e-16 relative per
matrix, the BB ensembles still equal their single paths bit for bit,
and every other value kept its bytes.
"""

import hashlib

import numpy as np
import pytest

from wishartsv.compare import MixtureConfig, mixture_gibbs
from wishartsv.filtering import ReturnsSeries, forward_filter, grid_search, simulate
from wishartsv.randsamp import substream
from wishartsv.smoother import backward_sample, sample_ensemble
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb

SEED, N_DRAWS = 11, 8

GOLDEN_SINGLE = {
    "ue": "d54bc4a2fb7fec0e830b4a904cbe644ed05e0fcdfd8a0bddd0e6fa5123ff7888",
    "bb": "8e65968cad8a001bfc3ddbbe6f0a7a1970b83d122252317f06ea73c934ba5978",
    "bb-unmatched": "0591ad939fee4a863a0065be6216499875d6309c4d86560ce49194a17562af8e",
}
GOLDEN_MIXTURE = {  # degenerate: (alpha trace, z trace)
    True: (
        "18315131663cfa120084cf9d8592f2d36081e92354a1810619848b3f6e1e2e58",
        "1c03ff1964c9241ea3ae2662172180c1624f0ed8368d6659b71760b374ee5bfc",
    ),
    False: (
        "444f5f57bf2e7e903f7a39afe8ea65824079a71dcb8e3b2ee190aec15e4a5858",
        "ec768b630e25468aae5621747729a910f3178c2f7222fe6e65d2df8bd71b0750",
    ),
}
GOLDEN_SIMULATE = {  # (model, q): (returns, precision path)
    ("ue", 1): (
        "eaafc54b7c7bd25768b68ce1ae2e648fffa8c67a926cccb98c2e31e23b94179f",
        "9dcbe319232f6e088ce9bad35963fc5a0449fe511ce6b9dd366808524970e7ae",
    ),
    ("bb", 1): (
        "a46dc84c4e0563801d10061470fe1f1cdc09b9ba0e38f24423c752cc616f2ddd",
        "69b3daf5631f917e05eba2289158bbb5d7b220d2751f99dd6cadf4ecd2b1b267",
    ),
    ("ue", 3): (
        "49320026dfee0a3b3a9ee1107bb9f2794d14178f2b808a61521ec29b6c6d75a1",
        "b53f50f019fd17a5839088a6f33ee2a41e87f9e6bf76ddc5f6eb7179635acbb9",
    ),
    ("bb", 3): (
        "813f82494d5e7ec74b716546c87b6f6d44f2d9632569b693baad92e7d37ff7ff",
        "feaa83925d394ea40bc1f40bbef2b19be94bcef1d9ee64da19b0e7894823623a",
    ),
    ("ue", 5): (
        "41c1092cee00a9d3dc5c9686dc8e30c953e7cfb309f724130cfe0590d126696d",
        "b940b2f137d8cce5fd621b29bdd218f461b0f57b798370ab744a94399ebd6a0c",
    ),
    ("bb", 5): (
        "055e31f2e929d9e060e6248825b99a464416b1675631919bd6a83c024e584479",
        "196c6c68121b8398e00e0f37452edeaea0cf7e40121f424c9d1959722b5b77cd",
    ),
}
GOLDEN_GRID = "d2085a798657ff145640ec18f6e986ee55d0fb94d51c4af1d85b8ba13230f247"
GOLDEN_LOG_FORECAST = {
    "ue": "297d62dff36e03fa65397c17dbc1108f88cccd2b475592176f099d2ba32c0f06",
    "bb-unmatched": "6c35d25b29c9bbeb5698775094f9d01c9f87c7f199999ea010fe388255b1d010",
}


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def setting(case):
    """The filter output at q = 3, T = 50."""
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
    if case == "ue":
        return forward_filter(data, ue)
    # the unmatched prior df makes k_t, and so the chi-square df, vary with t
    bb = match_ue_to_bb(ue) if case == "bb" else BBHyper(q=3, k=1, beta=0.8, b=0.85, k0=20.0, d0=np.eye(3))
    return forward_filter(data, bb)


def scale_matrix(q):
    """A dense SPD prior scale, so every entry of the factor enters."""
    a = np.random.default_rng(q).standard_normal((q, q))
    return a @ a.T + np.eye(q)


@pytest.mark.parametrize("case", sorted(GOLDEN_SINGLE))
def test_single_path_samplers(case):
    filt = setting(case)
    single = np.array([backward_sample(filt, substream(SEED, i)) for i in range(N_DRAWS)])
    assert sha(single) == GOLDEN_SINGLE[case]


@pytest.mark.parametrize("case", ["bb", "bb-unmatched"])
def test_bb_ensemble(case):
    assert sha(sample_ensemble(setting(case), N_DRAWS, SEED)) == GOLDEN_SINGLE[case]


def test_ue_ensemble_matches_single_paths():
    filt = setting("ue")
    ens = sample_ensemble(filt, N_DRAWS, SEED)
    for i in range(N_DRAWS):
        single = backward_sample(filt, substream(SEED, i))
        err = np.abs(ens[i] - single).max(axis=(1, 2)) / np.abs(single).max(axis=(1, 2))
        assert err.max() <= 1e-12


@pytest.mark.parametrize("degenerate", [True, False])
def test_mixture_traces(degenerate):
    # criterion 10's setting, shortened to 200 iterations
    data = ReturnsSeries(np.random.default_rng(10).standard_normal((10, 2)))
    ue = UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))
    cfg = MixtureConfig(a0=1.0, b0=1.0, iterations=200, burn_in=0, seed=1001)
    tr = mixture_gibbs(data, ue, match_ue_to_bb(ue), cfg, degenerate=degenerate)
    assert (sha(tr.alpha), sha(tr.z)) == GOLDEN_MIXTURE[degenerate]


@pytest.mark.parametrize("model, q", sorted(GOLDEN_SIMULATE))
def test_simulate(model, q):
    if model == "ue":
        hyper = UEHyper(q=q, k=1, n=q + 2.0, lam=0.85, d0=scale_matrix(q))
    else:
        # unmatched, so the prior df beta k_{t-1} varies with t
        hyper = BBHyper(q=q, k=1, beta=0.9, b=0.85, k0=q + 15.0, d0=scale_matrix(q))
    data, phis = simulate(hyper, 40, seed=q)
    assert (sha(data.returns), sha(phis)) == GOLDEN_SIMULATE[model, q]


def test_grid_surface():
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    surface = grid_search(data, scale_matrix(3), [2.5, 6.0, 10.0], [0.7, 0.85, 0.95])[2]
    assert sha(surface) == GOLDEN_GRID


@pytest.mark.parametrize("case", sorted(GOLDEN_LOG_FORECAST))
def test_log_forecast(case):
    assert sha(setting(case).log_forecast) == GOLDEN_LOG_FORECAST[case]
