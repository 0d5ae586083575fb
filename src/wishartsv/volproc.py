"""Uhlig-extended (UE) and beta-Bartlett (BB) volatility processes.

Both model the precision path {Phi_t} of zero-mean returns.  UE injects
a matrix-beta shock into the Bartlett factor of Phi_{t-1} and rescales
by a discount; BB multiplies only the squared Bartlett diagonal by beta
shocks.  Their hyperparameters are linked by a bijection under which the
forward-filtered posteriors coincide while the smoothed posteriors do
not; the closed-form one-step conditional moments below make that
difference computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite
from .matops import gram, sym, tri_solve_stack, uchol
from .randsamp import sample_beta, sample_matrix_beta
from .specfun import _SPREAD_SERIES_Z, _spread_series, sqrt_beta_moment, tricomi_u_neg_half


def _check_discount(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise InvalidParameter(f"{name} must be in (0, 1), got {value}")


def _prior_scale(d0, q: int) -> np.ndarray:
    """d0 as a float array; InvalidParameter unless it is q x q, NotPositiveDefinite unless SPD."""
    d0 = np.asarray(d0, dtype=float)
    if d0.shape != (q, q):
        raise InvalidParameter(f"d0 must be {q}x{q}, got {d0.shape}")
    uchol(d0)
    return d0


@dataclass(frozen=True)
class UEHyper:
    """UE hyperparameters: likelihood df k, evolution df n, discount lam, prior scale d0.

    Each observation y_t = r_t r_t' is one Wishart(1) draw, so k must be 1.
    """

    q: int
    k: float
    n: float
    lam: float
    d0: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise InvalidParameter(f"q must be >= 1, got {self.q}")
        _check_discount("lambda", self.lam)
        if not self.q - 1 < self.n < math.inf:
            raise InvalidParameter(f"n must be finite and > q-1, got n={self.n}, q={self.q}")
        if self.k != 1:
            raise InvalidParameter(f"k must be 1, got {self.k}")
        object.__setattr__(self, "d0", _prior_scale(self.d0, self.q))


@dataclass(frozen=True)
class BBHyper:
    """BB hyperparameters: likelihood df k, discounts beta and b, prior df k0 and scale d0.

    As for UE, k must be 1.
    """

    q: int
    k: float
    beta: float
    b: float
    k0: float
    d0: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise InvalidParameter(f"q must be >= 1, got {self.q}")
        _check_discount("beta", self.beta)
        _check_discount("b", self.b)
        if self.k != 1:
            raise InvalidParameter(f"k must be 1, got {self.k}")
        if not 0 < self.k0 < math.inf:
            raise InvalidParameter(f"k0 must be finite and > 0, got {self.k0}")
        # Every Beta shape (beta*k_{t-1} - i + 1)/2 in the evolution must stay
        # positive along the filtration; k_t >= min(k0, k/(1-beta)) makes
        # beta*k0 > q - 1 the binding condition at construction time.
        if not self.beta * self.k0 > self.q - 1:
            raise InvalidParameter(
                f"need beta*k0 > q-1, got beta*k0={self.beta * self.k0}, q={self.q}"
            )
        object.__setattr__(self, "d0", _prior_scale(self.d0, self.q))


def match_ue_to_bb(ue: UEHyper) -> BBHyper:
    """The hyperparameter bijection: k0 = n+k, beta = n/(n+k), b = lambda."""
    return BBHyper(q=ue.q, k=ue.k, beta=ue.n / (ue.n + ue.k), b=ue.lam, k0=ue.n + ue.k, d0=ue.d0)


def match_bb_to_ue(bb: BBHyper) -> UEHyper:
    """Inverse of match_ue_to_bb; requires k0 = k/(1 - beta) (the matched family)."""
    n = bb.beta * bb.k0
    k = bb.k0 - n
    if not np.isclose(k, bb.k, rtol=1e-12, atol=1e-12):
        raise InvalidParameter(
            f"hyperparameters are not in the matched family: (1-beta)*k0={k} != k={bb.k}"
        )
    return UEHyper(q=bb.q, k=bb.k, n=n, lam=bb.b, d0=bb.d0)


@dataclass(frozen=True)
class MomentTable:
    """Entrywise conditional means and variances of a precision matrix."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.var) < -1e-12):
            raise InvalidParameter("variance grid has a negative entry")


def _factor_pair(phi_prev: np.ndarray, p_prev: np.ndarray | None):
    """(U, P) with Phi_{prev} = (U P)'(U P), both upper-triangular.

    With the caller's filter-context P the Bartlett convention gives
    U = uchol(Phi) P^{-1}; standalone (p_prev None) uses P = uchol(Phi),
    U = I.  A stack of Phi (N, q, q) gives a stack of U (one shared P)
    or of P.  P must be finite (else InvalidParameter) and upper-triangular
    with a positive diagonal (else NotPositiveDefinite).
    """
    m = uchol(phi_prev)
    if p_prev is None:
        return np.broadcast_to(np.eye(m.shape[-1]), m.shape), m
    p_prev = np.asarray(p_prev, dtype=float)
    if not np.isfinite(p_prev).all():
        raise InvalidParameter("p_prev is not finite")
    if np.tril(p_prev, -1).any() or not (p_prev.diagonal() > 0).all():
        raise NotPositiveDefinite("p_prev must be upper-triangular with a positive diagonal")
    return tri_solve_stack(p_prev, m, trans=True), p_prev  # U = M P^{-1}, row by row


def ue_evolve(phi_prev: np.ndarray, ue: UEHyper, rng: np.random.Generator) -> np.ndarray:
    """One draw of Phi_t | Phi_{t-1}: (UP)' Psi (UP) / lambda, Psi ~ MatrixBeta(n/2, k/2).

    ``phi_prev`` is (q, q), or (N, q, q) for N independent draws.
    """
    m = uchol(phi_prev)  # the evolution depends on (U, P) only through U P
    psi = sample_matrix_beta(ue.q, ue.n, ue.k, rng, size=m.shape[0] if m.ndim == 3 else None)
    return sym(np.swapaxes(m, -1, -2) @ psi @ m) / ue.lam


def bb_evolve(
    phi_prev: np.ndarray,
    k_prev: float,
    bb: BBHyper,
    rng: np.random.Generator,
    p_prev: np.ndarray | None = None,
) -> np.ndarray:
    """One draw of Phi_t | Phi_{t-1} under BB.

    The diagonal of the Bartlett factor is shrunk by independent
    eta_i ~ Beta((beta*k_prev - i + 1)/2, (1-beta)*k_prev/2); off-diagonal
    entries are carried over unchanged.  ``p_prev`` is the filter-context
    factor P_{t-1} = uchol((k D_{t-1})^{-1}); when omitted the standalone
    convention P = uchol(Phi_{t-1}), U = I applies.  ``phi_prev`` is
    (q, q), or (N, q, q) for N independent draws.
    """
    u, p = _factor_pair(phi_prev, p_prev)
    idx = np.arange(bb.q)
    shapes_a = (bb.beta * k_prev - idx) / 2.0
    eta = sample_beta(shapes_a, (1.0 - bb.beta) * k_prev / 2.0, rng, size=u.shape[:-1])
    u_tilde = np.array(u)
    u_tilde[..., idx, idx] = np.sqrt(eta) * np.abs(u[..., idx, idx])
    return gram(u_tilde @ p) / bb.b


def expected_ue_step(phi_prev: np.ndarray, ue: UEHyper) -> np.ndarray:
    """E(Phi_t | Phi_{t-1}) = n / (lambda (n + k)) * Phi_{t-1}."""
    uchol(phi_prev)  # validate
    return ue.n / (ue.lam * (ue.n + ue.k)) * np.asarray(phi_prev, dtype=float)


def _expected_utu(u: np.ndarray, n: float, k: float) -> np.ndarray:
    """E[U~' U~] for the BB diagonal-shrink step, matched params (n, k).

    With V the strict upper part of u and d its diagonal, U~ = V + diag(sqrt(eta) d), so
    E[U~' U~] = V'V + V' diag(s) + diag(s) V + diag(E[eta] d^2), s_i = E[sqrt(eta_i)] d_i,
    E[eta_i] = (n - i + 1) / (n - i + 1 + k) (1-based i).
    """
    q = u.shape[0]
    v, d, i = np.triu(u, 1), np.diagonal(u), np.arange(q)
    s = np.array([sqrt_beta_moment(m, n, k) for m in range(1, q + 1)]) * d
    return v.T @ v + v.T * s + s[:, None] * v + np.diag((n - i) / (n - i + k) * d**2)


def expected_bb_step(
    phi_prev: np.ndarray, bb: BBHyper, p_prev: np.ndarray | None = None
) -> np.ndarray:
    """E(Phi_t | Phi_{t-1}) under BB with matched hyperparameters.

    Equals P' E[U~'U~] P / lambda, E[U~'U~] in the matrix closed form of
    ``_expected_utu``.
    """
    ue = match_bb_to_ue(bb)
    u, p = _factor_pair(phi_prev, p_prev)
    return sym(p.T @ _expected_utu(u, ue.n, ue.k) @ p) / bb.b


def expectation_difference(
    phi_prev: np.ndarray, matched: UEHyper, p_prev: np.ndarray | None = None
) -> np.ndarray:
    """E(Phi_t^UE - Phi_t^BB | Phi_{t-1}) from the bracketed closed form.

    Computed directly as (1/lambda) P'[ n/(n+k) U'U - E(U~'U~) ]P so it
    cross-checks the two expected-step code paths; identically zero for
    q = 1.
    """
    u, p = _factor_pair(phi_prev, p_prev)
    n, k = matched.n, matched.k
    bracket = n / (n + k) * (u.T @ u) - _expected_utu(u, n, k)
    return sym(p.T @ bracket @ p) / matched.lam


def example1_moments(upsilon: np.ndarray, lam: float) -> tuple[MomentTable, MomentTable]:
    """Backward-conditional entry moments in the k = 1, P_t = I setting.

    ``upsilon`` is uchol(Phi_{t+1}); v is its upper triangle, d = diag(v)
    and W the strict upper part.  UE, Phi_t = lam Phi_{t+1} + Z_t, has mean
    lam v'v + I and variance 1 + I.  BB adds a chi-square increment to the
    squared diagonal of sqrt(lam) v: its mean replaces lam d_i W_ij above
    the diagonal (and its mirror) with h_ij = sqrt(2 lam) W_ij U(-1/2, 0,
    lam d_i^2 / 2), and its variance is lam^2 (d_i W_ij)^2 + lam W_ij^2 -
    h_ij^2 = lam W_ij^2 V(z_i) off the diagonal, 2 on it, with z_i = lam
    d_i^2 / 2 and V(z) = 2z + 1 - 2 U(-1/2, 0, z)^2.  That difference
    cancels as z grows, so from z = 30 on V comes from its asymptotic
    series (``specfun._spread_series``).  Returns (ue_table, bb_table).
    """
    _check_discount("lambda", lam)
    v = np.triu(np.asarray(upsilon, dtype=float))
    d, w, eye = np.diagonal(v), np.triu(v, 1), np.eye(v.shape[0])
    z = lam * d**2 / 2.0
    tricomi = np.array([tricomi_u_neg_half(x) for x in z.tolist()])
    h = math.sqrt(2.0 * lam) * w * tricomi[:, None]
    var_bb = lam**2 * w**2 * d[:, None] ** 2 + lam * w**2 - h**2
    far = z >= _SPREAD_SERIES_Z
    var_bb[far] = lam * w[far] ** 2 * np.array([_spread_series(x) for x in z[far].tolist()])[:, None]
    mean_bb = lam * (w.T @ w + np.diag(d**2)) + eye + h + h.T
    return (MomentTable(lam * (v.T @ v) + eye, 1.0 + eye),
            MomentTable(mean_bb, var_bb + var_bb.T + 2.0 * eye))


def diagonal_conditional_moments(
    phi_next_diag: np.ndarray, d_diag: np.ndarray, lam: float
) -> tuple[MomentTable, MomentTable]:
    """Backward-conditional moments when Phi_{t+1} and D_t^{-1} are diagonal (k = 1).

    Both processes share the mean diag(lam * phi + d); the variances
    differ off-diagonal: UE has d_i d_j while BB is exactly zero there.
    """
    _check_discount("lambda", lam)
    phi = np.asarray(phi_next_diag, dtype=float)
    d = np.asarray(d_diag, dtype=float)
    if np.any(phi <= 0) or np.any(d <= 0):
        raise InvalidParameter("diagonal entries must be positive")
    mean = np.diag(lam * phi + d)
    v_ue = np.outer(d, d) + np.diag(d**2)
    v_bb = np.diag(2.0 * d**2)
    return MomentTable(mean, v_ue), MomentTable(mean, v_bb)
