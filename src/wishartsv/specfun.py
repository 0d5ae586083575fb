"""Special functions behind the closed-form conditional moments.

The only Tricomi value the moments need is U(-1/2, 0, z), z >= 0, and it
has a closed form in modified Bessel functions: with x = z/2,
U(-1/2, 0, z) = x e^x [K_0(x) + K_1(x)] / sqrt(pi) (DLMF 13.6, with the
contiguous relations of 13.3).  The exponentially scaled Bessel
functions keep it finite for every z.

The BB backward variance of Example 1 needs V(z) = 2z + 1 - 2 U(-1/2,
0, z)^2, the variance of sqrt(2z + chi2_1) (its mean is sqrt(2) U).  For
large z that difference cancels, so ``_spread_series`` sums V from its
asymptotic series in 1/x instead: the square of the Hankel expansions of
e^x K_0(x) + e^x K_1(x) (DLMF 10.40.2), whose two leading terms cancel
2z + 1 exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy.special import gammaln, k0e, k1e

from .errors import InvalidParameter

SQRT_PI = math.sqrt(math.pi)


def sqrt_beta_moment(m: int, n: float, k: float) -> float:
    """E[sqrt(eta)] for eta ~ Beta((n - m + 1)/2, k/2).

    Equals the gamma ratio
    Gamma((n-m+2)/2) Gamma((n-m+k+1)/2) / [Gamma((n-m+1)/2) Gamma((n-m+k+2)/2)].
    """
    if n - m + 1 <= 0:
        raise InvalidParameter(f"need n - m + 1 > 0, got n={n}, m={m}")
    if k <= 0:
        raise InvalidParameter(f"need k > 0, got {k}")
    s = n - m
    return math.exp(
        gammaln((s + 2) / 2.0)
        + gammaln((s + k + 1) / 2.0)
        - gammaln((s + 1) / 2.0)
        - gammaln((s + k + 2) / 2.0)
    )


def tricomi_u_neg_half(z: float) -> float:
    """Tricomi's U(-1/2, 0, z) for z >= 0, from the Bessel closed form.

    Increases from its z -> 0 limit 1/sqrt(pi) like sqrt(z) for large z.
    """
    if not z >= 0:
        raise InvalidParameter(f"z must be >= 0 for U(-1/2, 0, z), got {z}")
    x = z / 2.0
    # x K_1(x) -> 1 as x -> 0, but 1/x overflows inside k1e at subnormal x;
    # there the limit is exact to double precision
    if x < 1e-300:
        return 1.0 / SQRT_PI
    return float(x * (k0e(x) + k1e(x))) / SQRT_PI


def _spread_coefficients(n: int) -> list[float]:
    """c_1..c_n of V(z) = sum_k c_k x^-k, x = z/2, each exact before its rounding.

    With e^x (K_0(x) + K_1(x)) = sqrt(pi / (2x)) sum_k s_k x^-k, s_k = a_k(0) + a_k(1)
    and a_k(nu) = a_{k-1}(nu) (4 nu^2 - (2k - 1)^2) / (8k), V = 4x + 1 - x (sum_k s_k x^-k)^2,
    so c_k = -sum_{j <= k+1} s_j s_{k+1-j}: c_1 = 1/8, c_2 = -3/32.
    """
    s, a0, a1 = [], Fraction(1), Fraction(1)
    for k in range(n + 2):
        s.append(a0 + a1)
        a0 *= Fraction(-(2 * k + 1) ** 2, 8 * (k + 1))
        a1 *= Fraction(4 - (2 * k + 1) ** 2, 8 * (k + 1))
    return [-float(sum(s[j] * s[m - j] for j in range(m + 1))) for m in range(2, n + 2)]


_SPREAD_C = _spread_coefficients(30)[::-1]  # highest order first, for Horner's rule

# Where the 30-term series takes over from 2z + 1 - 2 U^2.  Worst relative error against
# 60-digit mpmath over 41 points per unit window of z (the difference as example1_moments
# evaluates it, at lambda = 0.9):
#   the series: 1.7e-12 on [30, 31], 4.1e-14 on [34, 35], below 1e-15 from 39 on, but
#   1.3e-11 on [28, 29], for its terms stop shrinking near k = z;
#   the difference: 4.7e-12 on [30, 31], growing to 1.1e-11 on [39, 40] as it cancels more.
# From 30 on the series is the nearer in every window.
_SPREAD_SERIES_Z = 30.0


def _spread_series(z: float) -> float:
    """V(z) = 2z + 1 - 2 U(-1/2, 0, z)^2 for z >= ``_SPREAD_SERIES_Z``, from its asymptotic series.

    Falls like 1/(4z) with no cancellation; 0 at z = inf.  Below the crossover it is not V.
    """
    inv_x, acc = 2.0 / z, 0.0
    for c in _SPREAD_C:
        acc = (acc + c) * inv_x
    return acc
