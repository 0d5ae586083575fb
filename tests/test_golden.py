"""Golden sha256 values of seeded sampler output.

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
from wishartsv.filtering import ReturnsSeries, bb_forward_filter, ue_forward_filter
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
