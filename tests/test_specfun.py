import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2 as chi2_dist

from consistency import kummer_partner
from wishartsv.errors import InvalidParameter
from wishartsv.randsamp import make_rng, sample_beta, sample_chi2
from wishartsv.specfun import sqrt_beta_moment, tricomi_u_neg_half


def half_moment_quadrature(z: float) -> float:
    """E[sqrt(2z + theta)] / sqrt(2) for theta ~ chi2_1, by direct quadrature.

    Independent re-derivation of U(-1/2, 0, z).
    """
    val, _ = quad(
        lambda th: math.sqrt(2 * z + th) * chi2_dist(1).pdf(th),
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val / math.sqrt(2.0)


class TestSqrtBetaMoment:
    def test_arcsine(self):
        # eta ~ Beta(1/2, 1/2): E[sqrt(eta)] = 2/pi
        assert sqrt_beta_moment(1, 1.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_monte_carlo_oracle(self):
        draws = sample_beta((5 - 1 + 1) / 2.0, 0.5, make_rng(21), size=1_000_000)
        root = np.sqrt(draws)
        se = root.std(ddof=1) / np.sqrt(draws.size)
        assert abs(sqrt_beta_moment(1, 5.0, 1.0) - root.mean()) < 4 * se

    def test_limit_to_one(self):
        assert sqrt_beta_moment(1, 1e6, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_in_unit_interval(self):
        for n in (1.0, 2.5, 10.0):
            for k in (0.5, 1.0, 3.0):
                v = sqrt_beta_moment(1, n, k)
                assert 0.0 < v < 1.0

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            sqrt_beta_moment(3, 1.0, 1.0)


class TestTricomiU:
    def test_limit_at_zero(self):
        assert tricomi_u_neg_half(0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("z", [5e-324, 1e-310, 1e-300, 1e-12])
    def test_limit_at_tiny_z(self, z):
        # U(-1/2, 0, z) increases in z, so it never falls below its z -> 0 limit
        v = tricomi_u_neg_half(z)
        assert math.isfinite(v) and v >= 1 / math.sqrt(math.pi)
        assert v == pytest.approx(1 / math.sqrt(math.pi), rel=1e-10)

    def test_large_z_asymptote(self):
        # U(a, b, z) ~ z^{-a}, read through U(1/2, 2, z) = U(-1/2, 0, z) / z
        assert tricomi_u_neg_half(100.0) / 100.0 == pytest.approx(0.1, rel=0.02)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_kummer_self_consistency(self, z):
        lhs = tricomi_u_neg_half(z)
        assert lhs == pytest.approx(kummer_partner(z), rel=1e-8)
        # independent re-derivation via the chi-square half moment
        assert lhs == pytest.approx(half_moment_quadrature(z), rel=1e-8)

    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 4.0])
    def test_chi_square_bridge(self, c):
        # sqrt(2) U(-1/2, 0, c/2) = E[sqrt(c + theta)], theta ~ chi2_1
        draws = np.sqrt(c + sample_chi2(1.0, make_rng(int(10 * c) + 1), size=1_000_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(math.sqrt(2.0) * tricomi_u_neg_half(c / 2.0) - draws.mean()) < 4 * se

    def test_monotone_in_z(self):
        zs = np.linspace(0.0, 8.0, 30)
        vals = [tricomi_u_neg_half(z) for z in zs]
        assert np.all(np.diff(vals) > 0)

    def test_unsupported_region(self):
        with pytest.raises(InvalidParameter):
            tricomi_u_neg_half(-1.0)
