"""Special functions behind the closed-form conditional moments.

The only Tricomi value the moments need is U(-1/2, 0, z), z >= 0, and it
has a closed form in modified Bessel functions: with x = z/2,
U(-1/2, 0, z) = x e^x [K_0(x) + K_1(x)] / sqrt(pi) (DLMF 13.6, with the
contiguous relations of 13.3).  The exponentially scaled Bessel
functions keep it finite for every z.
"""

from __future__ import annotations

import math

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
