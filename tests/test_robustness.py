"""Every pass either returns valid output or raises a package error, over 600 orders of magnitude.

Returns are scaled by 10^u and D_0 by 10^v, u and v in [-300, 300], and
one return column is sometimes zero (a pegged rate).  No other exception
and no RuntimeWarning (an error under the pytest configuration) may escape.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wishartsv.compare import MixtureConfig, mixture_gibbs, path_loglik
from wishartsv.errors import WishartSVError
from wishartsv.filtering import ReturnsSeries, forward_filter
from wishartsv.randsamp import make_rng
from wishartsv.smoother import backward_sample, correlation_summary, sample_ensemble
from wishartsv.volproc import UEHyper, match_ue_to_bb


def valid_factors(f):
    diag = np.diagonal(f, axis1=-2, axis2=-1)
    return np.isfinite(f).all() and (diag > 0).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(0, 30),
    st.floats(-300.0, 300.0),
    st.floats(-300.0, 300.0),
    st.booleans(),
    st.floats(0.6, 0.99),
    st.integers(0, 2**16),
)
@example(q=2, T=30, u=160.0, v=300.0, pegged=False, lam=0.9, seed=0)  # G_t past 1e154
def test_passes_return_valid_output_or_raise_package_errors(q, T, u, v, pegged, lam, seed):
    rng = np.random.default_rng(seed)
    returns = rng.standard_normal((T, q)) * 10.0**u
    if pegged:
        returns[:, 0] = 0.0
    a = rng.standard_normal((q, q))
    ue = UEHyper(q=q, k=1, n=q + 2.0, lam=lam, d0=(a @ a.T + np.eye(q)) * 10.0**v)
    bb = match_ue_to_bb(ue)
    data = ReturnsSeries(returns)

    def outcome(run, check):
        try:
            out = run()
        except WishartSVError:
            return None
        assert check(out)
        return out

    filtered = 0
    for hyper in (ue, bb):
        filt = outcome(lambda: forward_filter(data, hyper), lambda f: valid_factors(f.g) and np.isfinite(f.loglik))
        if filt is None:
            continue
        filtered += 1
        outcome(lambda: backward_sample(filt, make_rng(seed)), valid_factors)
        ens = outcome(lambda: sample_ensemble(filt, 3, seed), valid_factors)
        if ens is None:
            continue
        outcome(lambda: path_loglik(ens, data), lambda ll: np.isfinite(ll).all())
        outcome(lambda: correlation_summary(ens, [0.1, 0.5, 0.9]), lambda c: (np.abs(c) <= 1.0).all())
    if filtered == 2:
        cfg = MixtureConfig(iterations=3, burn_in=0, seed=seed)
        outcome(lambda: mixture_gibbs(data, ue, bb, cfg), lambda tr: ((tr.alpha > 0) & (tr.alpha < 1)).all())
