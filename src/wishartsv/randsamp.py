"""Seeded sampling of the scalar and matrix distributions the processes use.

The generator is pinned to numpy's PCG64 via ``default_rng``; given the
same seed and call sequence, draws are bit-identical across platforms.
Ensemble code derives per-draw substreams from ``(seed, draw_index)`` so
results do not depend on worker count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidParameter
from .matops import sym, uchol

RNG_ALGORITHM = "numpy.random.PCG64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent stream for draw ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def sample_chi2(df: float, rng: np.random.Generator, size=None):
    """Chi-square draw(s) with real-valued df > 0 (gamma shape df/2, scale 2)."""
    if df <= 0:
        raise InvalidParameter(f"chi-square df must be > 0, got {df}")
    return rng.gamma(shape=df / 2.0, scale=2.0, size=size)


def sample_beta(a: float, b: float, rng: np.random.Generator, size=None):
    if a <= 0 or b <= 0:
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
    shape = (q, q) if size is None else (size, q, q)
    u = np.triu(rng.standard_normal(shape), k=1)
    dfs = df - np.arange(q)
    diag = np.sqrt(rng.gamma(shape=dfs / 2.0, scale=2.0, size=None if size is None else (size, q)))
    idx = np.arange(q)
    u[..., idx, idx] = diag
    return u


def _gram(m: np.ndarray) -> np.ndarray:
    """m' m for a single matrix or a stacked batch, re-symmetrized."""
    return sym_batch(np.swapaxes(m, -1, -2) @ m)


def sym_batch(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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


def sample_wishart_bartlett(
    df: float, scale_chol: np.ndarray, rng: np.random.Generator, size: int | None = None
):
    """Wishart_q(df, A) draw(s) (W P)' W P with ``scale_chol = P``, P' P = A.

    W comes from ``sample_wishart_factor``.  With ``size`` set, returns
    (size, q, q).
    """
    p = np.asarray(scale_chol, dtype=float)
    return _gram(sample_wishart_factor(p.shape[0], df, rng, size=size) @ p)


def uchol_batch(a: np.ndarray) -> np.ndarray:
    """Stacked upper Cholesky factors R with R' R = a per slice."""
    return np.swapaxes(np.linalg.cholesky(sym_batch(a)), -1, -2)


def sample_matrix_beta(
    q: int, n1: float, n2: float, rng: np.random.Generator, size: int | None = None
):
    """MatrixBeta_q(n1/2, n2/2) draw(s) via two Wisharts with identity scale.

    B = (T^{-1})' A1 T^{-1} with T = uchol(A1 + A2); the law does not
    depend on the common Wishart scale, so it is fixed to I.
    """
    for name, df in (("n1", n1), ("n2", n2)):
        if not (df > q - 1 or (df == int(df) and df >= 1)):
            raise InvalidParameter(
                f"{name} must be > q-1 or a positive integer, got {df}"
            )
    eye = np.eye(q)
    a1 = sample_wishart_bartlett(n1, eye, rng, size=size)
    a2 = sample_wishart_bartlett(n2, eye, rng, size=size)
    if size is None:
        t = uchol(sym(a1 + a2))
        # (T^{-1})' A1 T^{-1} through two triangular solves
        x = solve_triangular(t, a1, trans="T", lower=False)
        b = solve_triangular(t, x.T, trans="T", lower=False).T
        return sym(b)
    t_inv = np.linalg.inv(uchol_batch(a1 + a2))
    return sym_batch(np.swapaxes(t_inv, -1, -2) @ a1 @ t_inv)


def sample_mvnormal_prec(factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal draw with covariance (F' F)^{-1}, ``factor`` = F upper.

    With z ~ N(0, I), x = F^{-1} z has covariance (F' F)^{-1}.
    """
    z = rng.standard_normal(factor.shape[0])
    return solve_triangular(factor, z, lower=False)
