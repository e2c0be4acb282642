"""The closed-form mass matrix against a 40-digit B from the power series of
P_n^{(s, d/2-1)}, and against the Gauss-Jacobi B it replaced, built here with
scipy's roots_jacobi."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracball.basis import RadialBasisSpec, jacobi_all, mass_matrix
from fracball.params import sphere_area


def _mp_mass(d, s, K):
    """B to 40 digits.  With v = (1 - t)/2, P_n^{(s,beta)} = (s+1)_n / n!
    sum_p (-n)_p (n+s+beta+1)_p / ((s+1)_p p!) v^p, and the weight
    (1-t)^{2s} (1+t)^beta dt becomes 2^{2s+beta+1} v^{2s} (1-v)^beta dv,
    whose moments are Beta(2s+q+1, beta+1).  The power basis loses about
    15 digits to cancellation at K = 24, so the sums run at 60."""
    with mp.workdps(60):
        s, b = mp.mpf(s), mp.mpf(d) / 2 - 1
        E = mp.matrix(K, K)
        for n in range(K):
            lead = mp.rf(s + 1, n) / mp.factorial(n)
            for p in range(n + 1):
                E[n, p] = (lead * mp.rf(-n, p) * mp.rf(n + s + b + 1, p)
                           / (mp.rf(s + 1, p) * mp.factorial(p)))
        moments = [mp.beta(2 * s + q + 1, b + 1) for q in range(2 * K - 1)]
        M = mp.matrix(K, K)
        for p in range(K):
            for q in range(K):
                M[p, q] = moments[p + q]
        # |S^{d-1}| 2^{-(2s+d/2+1)} times the 2^{2s+beta+1} of the weight
        B = E * M * E.T * (mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2))
        return np.array(B.tolist(), dtype=float)


def _gauss_jacobi_mass(spec):
    """B as mass_matrix built it before its closed form: a (K + 2)-point
    Gauss-Jacobi rule in t = 2r^2 - 1."""
    d, s = spec.d, spec.s
    t, w = roots_jacobi(spec.K + 2, 2.0 * s, d / 2.0 - 1.0)
    P = jacobi_all(spec.K, s, d / 2.0 - 1.0, t)
    scale = sphere_area(d) * 2.0 ** (-(2.0 * s + d / 2.0 + 1.0))
    return scale * (P * w[None, :]) @ P.T


@pytest.mark.parametrize("d,s,K", [(1, 0.05, 24), (1, 0.95, 24), (2, 0.5, 12),
                                   (3, 0.95, 24), (6, 0.3, 16), (14, 0.7, 8),
                                   (20, 0.5, 24), (3, 0.5, 2)])
def test_mass_matrix_matches_a_40_digit_b(d, s, K):
    # measured at most 2.0e-15 of the largest entry (d = 14); the
    # Gauss-Jacobi B read up to 4.3e-14 (d = 1, s = 0.95)
    B, ref = mass_matrix(RadialBasisSpec(d, s, K)), _mp_mass(d, s, K)
    assert np.abs(B - ref).max() <= 5e-15 * np.abs(ref).max()


@pytest.mark.parametrize("K", [2, 12, 48, 192])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3, 6, 14, 20])
def test_mass_matrix_matches_the_gauss_jacobi_b(d, s, K):
    # measured at most 2.2e-12 of the largest entry (d = 1, s = 0.95,
    # K = 192), about the Gauss-Jacobi B's own error there
    spec = RadialBasisSpec(d, s, K)
    B, ref = mass_matrix(spec), _gauss_jacobi_mass(spec)
    assert np.array_equal(B, B.T)
    assert np.abs(B - ref).max() <= 5e-12 * np.abs(ref).max()
