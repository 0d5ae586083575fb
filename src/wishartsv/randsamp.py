"""Seeded sampling of the scalar and matrix distributions the processes use.

The generator is pinned to numpy's PCG64 via ``default_rng``; given the
same seed and call sequence, draws are bit-identical across platforms.
Ensemble code derives per-draw substreams from ``(seed, draw_index)`` so
results do not depend on worker count.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameter
from .matops import gram, tri_solve_stack, uchol

RNG_ALGORITHM = "numpy.random.PCG64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent stream for draw ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def sample_chi2(df, rng: np.random.Generator, size=None):
    """Chi-square draw(s) with real-valued df > 0; df may be an array (the bits of gamma(df/2, scale 2))."""
    if np.less_equal(df, 0).any():  # the method, not np.any's wrapper: a BB path checks T df per draw
        raise InvalidParameter(f"chi-square df must be > 0, got {df}")
    return rng.chisquare(df, size=size)


def sample_beta(a, b, rng: np.random.Generator, size=None):
    if np.any(a <= 0) or np.any(b <= 0):
        raise InvalidParameter(f"beta shapes must be > 0, got ({a}, {b})")
    return rng.beta(a, b, size=size)


def sample_bartlett_factor(q: int, df: float, rng: np.random.Generator, size: int | None = None):
    """Upper-triangular Bartlett factor(s) U for Wishart_q(df, I).

    u_ij ~ N(0,1) above the diagonal and u_ii^2 ~ chi2_{df-i+1}
    (1-based i); requires df > q - 1.  With ``size`` set, returns a
    stacked (size, q, q) batch.
    """
    if df <= q - 1:
        raise InvalidParameter(f"full-rank Bartlett factor needs df > q-1, got df={df}, q={q}")
    u = rng.standard_normal((q, q) if size is None else (size, q, q))
    # the strict lower triangle is one masked copy and the diagonal a strided slice of the row-major
    # view, the mask and 0..q-1 made once per q: at q = 2..5 that costs no more than a loop over rows,
    # and less than np.triu or a fancy index
    lower, idx = _bartlett_layout(q)
    np.copyto(u, 0.0, where=lower)
    u.reshape(-1, q * q)[:, :: q + 1] = np.sqrt(rng.chisquare(df - idx, size=None if size is None else (size, q)))
    return u


@functools.cache
def _bartlett_layout(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(the q x q mask of the strict lower triangle, 0..q-1), both read-only."""
    lower, idx = np.tri(q, k=-1, dtype=bool), np.arange(q)
    lower.flags.writeable = idx.flags.writeable = False
    return lower, idx


def sample_wishart_factor(q: int, df: float, rng: np.random.Generator, size: int | None = None):
    """W with W' W ~ Wishart_q(df, I).

    Full-rank mode (df > q - 1) returns the q x q Bartlett factor.
    Integer df < q returns df rows of N(0, I), a rank-df draw.  With
    ``size`` set, a leading batch axis is added.
    """
    if df > q - 1:
        return sample_bartlett_factor(q, df, rng, size=size)
    if df == int(df) and df >= 1:
        return rng.standard_normal((int(df), q) if size is None else (size, int(df), q))
    raise InvalidParameter(
        f"df must be > q-1 or a positive integer < q, got df={df}, q={q}"
    )


def sample_matrix_beta(
    q: int, n1: float, n2: float, rng: np.random.Generator, size: int | None = None
):
    """MatrixBeta_q(n1/2, n2/2) draw(s) via two Wisharts with identity scale.

    B = (W1 T^{-1})' (W1 T^{-1}) = (T^{-1})' A1 T^{-1} with A_i = W_i' W_i and
    T = uchol(A1 + A2), each row of W1 T^{-1} by back-substitution.  The law does
    not depend on the common Wishart scale, so it is fixed to I.  Each df must
    be > q - 1 or a positive integer, as ``sample_wishart_factor`` checks.
    """
    w1 = sample_wishart_factor(q, n1, rng, size=size)
    w2 = sample_wishart_factor(q, n2, rng, size=size)
    t = uchol(gram(w1) + gram(w2))
    return gram(tri_solve_stack(t[..., None, :, :], w1, trans=True))


def sample_mvnormal_prec(factors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal draws with covariance (F' F)^{-1}, one per upper factor F of a stack.

    factors is (..., q, q) and the result (..., q): x = F^{-1} z with all
    z ~ N(0, I) drawn in one call and solved in one ``tri_solve_stack``.
    It checks nothing; a mixture sweep checks the draws.
    """
    return tri_solve_stack(factors, rng.standard_normal(factors.shape[:-1]))
