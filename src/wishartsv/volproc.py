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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .matops import gram, right_solve, sym, uchol
from .randsamp import sample_beta, sample_matrix_beta
from .specfun import sqrt_beta_moment, tricomi_u_neg_half


def _check_discount(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise InvalidParameter(f"{name} must be in (0, 1), got {value}")


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
        if self.n <= self.q - 1:
            raise InvalidParameter(f"n must be > q-1, got n={self.n}, q={self.q}")
        if self.k != 1:
            raise InvalidParameter(f"k must be 1, got {self.k}")
        d0 = np.asarray(self.d0, dtype=float)
        if d0.shape != (self.q, self.q):
            raise InvalidParameter(f"d0 must be {self.q}x{self.q}, got {d0.shape}")
        uchol(d0)  # raises NotPositiveDefinite if invalid
        object.__setattr__(self, "d0", d0)


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
        if self.k0 <= 0:
            raise InvalidParameter(f"k0 must be > 0, got {self.k0}")
        # Every Beta shape (beta*k_{t-1} - i + 1)/2 in the evolution must stay
        # positive along the filtration; k_t >= min(k0, k/(1-beta)) makes
        # beta*k0 > q - 1 the binding condition at construction time.
        if self.beta * self.k0 <= self.q - 1:
            raise InvalidParameter(
                f"need beta*k0 > q-1, got beta*k0={self.beta * self.k0}, q={self.q}"
            )
        d0 = np.asarray(self.d0, dtype=float)
        if d0.shape != (self.q, self.q):
            raise InvalidParameter(f"d0 must be {self.q}x{self.q}, got {d0.shape}")
        uchol(d0)
        object.__setattr__(self, "d0", d0)


def match_ue_to_bb(ue: UEHyper) -> BBHyper:
    """The hyperparameter bijection: k0 = n+k, beta = n/(n+k), b = lambda."""
    return BBHyper(
        q=ue.q,
        k=ue.k,
        beta=ue.n / (ue.n + ue.k),
        b=ue.lam,
        k0=ue.n + ue.k,
        d0=ue.d0,
    )


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
    or of P.
    """
    m = uchol(phi_prev)
    if p_prev is None:
        return np.broadcast_to(np.eye(m.shape[-1]), m.shape), m
    return right_solve(m, p_prev), np.asarray(p_prev, dtype=float)


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
    """Entrywise E[U~' U~] for the BB diagonal-shrink step, matched params (n, k)."""
    q = u.shape[0]
    out = np.empty((q, q))
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lo, hi = min(i, j), max(i, j)
            acc = sum(u[l - 1, i - 1] * u[l - 1, j - 1] for l in range(1, lo))
            if i == j:
                acc += (n - i + 1.0) * u[i - 1, i - 1] ** 2 / (n - i + 1.0 + k)
            else:
                acc += sqrt_beta_moment(lo, n, k) * u[lo - 1, lo - 1] * u[lo - 1, hi - 1]
            out[i - 1, j - 1] = acc
    return out


def _matched_nk(bb: BBHyper) -> tuple[float, float]:
    ue = match_bb_to_ue(bb)
    return ue.n, ue.k


def expected_bb_step(
    phi_prev: np.ndarray, bb: BBHyper, p_prev: np.ndarray | None = None
) -> np.ndarray:
    """E(Phi_t | Phi_{t-1}) under BB with matched hyperparameters.

    Equals P' E[U~'U~] P / lambda with the entrywise closed form built
    from sqrt_beta_moment.
    """
    n, k = _matched_nk(bb)
    u, p = _factor_pair(phi_prev, p_prev)
    return sym(p.T @ _expected_utu(u, n, k) @ p) / bb.b


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

    ``upsilon`` is uchol(Phi_{t+1}).  Returns (ue_table, bb_table) with
    the UE conditional Phi_t = lam * Phi_{t+1} + Z_t and the BB
    conditional built from the chi-square diagonal increment; the BB
    off-diagonal mean involves h(i,j) = sqrt(2 lam) v_ij U(-1/2, 0, lam v_ii^2 / 2).
    """
    _check_discount("lambda", lam)
    v = np.asarray(upsilon, dtype=float)
    q = v.shape[0]
    e_ue = np.empty((q, q))
    v_ue = np.empty((q, q))
    e_bb = np.empty((q, q))
    v_bb = np.empty((q, q))
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lo, hi = min(i, j), max(i, j)
            delta = 1.0 if i == j else 0.0
            s_full = sum(v[l - 1, i - 1] * v[l - 1, j - 1] for l in range(1, lo + 1))
            s_head = s_full - v[lo - 1, i - 1] * v[lo - 1, j - 1]
            e_ue[i - 1, j - 1] = lam * s_full + delta
            v_ue[i - 1, j - 1] = 1.0 + delta
            if i == j:
                e_bb[i - 1, j - 1] = lam * s_head + lam * v[i - 1, i - 1] ** 2 + 1.0
                v_bb[i - 1, j - 1] = 2.0
            else:
                vii = v[lo - 1, lo - 1]
                vij = v[lo - 1, hi - 1]
                h = np.sqrt(2.0 * lam) * vij * tricomi_u_neg_half(lam * vii**2 / 2.0)
                e_bb[i - 1, j - 1] = lam * s_head + h
                v_bb[i - 1, j - 1] = lam**2 * vij**2 * vii**2 + lam * vij**2 - h**2
    return MomentTable(e_ue, v_ue), MomentTable(e_bb, v_bb)


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
