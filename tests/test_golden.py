"""Golden sha256 values of seeded sampler, simulation and filter output.

Recorded with the per-draw sequential samplers, where draw i of
``sample_ensemble(filt, hyper, N, seed)`` was exactly
``sampler(filt, hyper, substream(seed, i))``.  A refactor that keeps
the RNG draw order and the arithmetic keeps these bytes.  The UE
ensemble is held to the single-path sampler within a per-matrix
relative 1e-12 instead: a triangular solve with many right-hand sides
may round differently from a solve with one.
"""

import hashlib

import numpy as np
import pytest

from wishartsv.compare import MixtureConfig, mixture_gibbs
from wishartsv.filtering import ReturnsSeries, bb_forward_filter, grid_search, simulate, ue_forward_filter
from wishartsv.randsamp import substream
from wishartsv.smoother import bb_backward_sample, sample_ensemble, ue_backward_sample
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb

SEED, N_DRAWS = 11, 8

GOLDEN_SINGLE = {
    "ue": "fc6244efe312029eb0095978185930437bab79a8a72947db86d1c81509c21153",
    "bb": "dff0f8b5a755c0fc4e335549b8277355c2ddd286920c23919776f926470cce17",
    "bb-unmatched": "9c24ed34fbe09c4b25726db16a62a63b4a37bbad35f45069b9e2cb33ea733775",
}
GOLDEN_MIXTURE = {  # degenerate: (alpha trace, z trace)
    True: (
        "7e6909c6bbb33b6f710174ebeb4838f7478ab6489ea71fbf4577c1f1e288554a",
        "be6263820afcf16b5a1c7685c5a13c574f8cac4bce171bbece9da25de2ea5e6b",
    ),
    False: (
        "f222e7f99f6612d822920f63bfe792ac6fe4dd738c803a3cae4adf6fe660fb7d",
        "6e7804fdb18bb7c76a39eabd4c703cdc8cc00a05df06ea1683e93c3a993470c7",
    ),
}
GOLDEN_SIMULATE = {  # (model, q): (returns, precision path)
    ("ue", 1): (
        "2edbb8ce7a99ecc7d95e7224b8cb54561e8ee1c121283747d3cdae5809914ece",
        "f893405b5d6f3afd1de554606dd6f856e3acceaef1c6efb9b50daf67f3c0f3a4",
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
        "95be43d075fa00155b696e9077ebe2af2d133906156aa0dddca2ea15d803447f",
        "0b052ab1b7625911ed9fc8deed01941396afd835e31c5c10313a07191a377b62",
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
    "ue": "783a69c918cc649b9e44fd68aa9e6d16e94b62470a2f38dd41eead03ec7c5775",
    "bb-unmatched": "6c35d25b29c9bbeb5698775094f9d01c9f87c7f199999ea010fe388255b1d010",
}


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def setting(case):
    """(filter, hyper, single-path sampler) at q = 3, T = 50."""
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    ue = UEHyper(q=3, k=1, n=6.0, lam=0.85, d0=np.eye(3))
    if case == "ue":
        return ue_forward_filter(data, ue), ue, ue_backward_sample
    # the unmatched prior df makes k_t, and so the chi-square df, vary with t
    bb = match_ue_to_bb(ue) if case == "bb" else BBHyper(q=3, k=1, beta=0.8, b=0.85, k0=20.0, d0=np.eye(3))
    return bb_forward_filter(data, bb), bb, bb_backward_sample


def scale_matrix(q):
    """A dense SPD prior scale, so every entry of the factor enters."""
    a = np.random.default_rng(q).standard_normal((q, q))
    return a @ a.T + np.eye(q)


def ensemble_factors(filt, hyper):
    return sample_ensemble(filt, hyper, N_DRAWS, SEED)


@pytest.mark.parametrize("case", sorted(GOLDEN_SINGLE))
def test_single_path_samplers(case):
    filt, hyper, sampler = setting(case)
    single = np.array([sampler(filt, hyper, substream(SEED, i)) for i in range(N_DRAWS)])
    assert sha(single) == GOLDEN_SINGLE[case]


@pytest.mark.parametrize("case", ["bb", "bb-unmatched"])
def test_bb_ensemble(case):
    assert sha(ensemble_factors(*setting(case)[:2])) == GOLDEN_SINGLE[case]


def test_ue_ensemble_matches_single_paths():
    filt, ue, _ = setting("ue")
    ens = ensemble_factors(filt, ue)
    for i in range(N_DRAWS):
        single = ue_backward_sample(filt, ue, substream(SEED, i))
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
    data, phis = simulate(model, hyper, 40, seed=q)
    assert (sha(data.returns), sha(phis)) == GOLDEN_SIMULATE[model, q]


def test_grid_surface():
    data = ReturnsSeries(np.random.default_rng(5).standard_normal((50, 3)))
    surface = grid_search(data, scale_matrix(3), [2.5, 6.0, 10.0], [0.7, 0.85, 0.95])[2]
    assert sha(surface) == GOLDEN_GRID


@pytest.mark.parametrize("case", sorted(GOLDEN_LOG_FORECAST))
def test_log_forecast(case):
    assert sha(setting(case)[0].log_forecast) == GOLDEN_LOG_FORECAST[case]
