import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import fracball
from fracball import kernels
from fracball.kernels import kappa_ell, kappa_moments, kappa_moments_1d


def _kappa_direct(r, rho, d, s, moment, h=None):
    """Sphere average by direct quadrature in the polar angle.

    With the gap h = |r - rho| given, the squared distance is formed as
    h^2 + 4 r rho sin^2(theta / 2), which keeps its digits as the radii
    merge, and the interval is split geometrically from the angle h / R
    where the integrand turns over.  Without it the reference loses digits
    near the diagonal (r^2 + rho^2 - 2 r rho cos(theta) cancels).
    """
    from fracball.params import sphere_area

    p = d + 2.0 * s
    weight = sphere_area(d - 1) if d > 2 else 2.0

    def integrand(theta):
        if h is None:
            dist2 = r * r + rho * rho - 2.0 * r * rho * np.cos(theta)
            one_minus_cos = 1.0 - np.cos(theta)
        else:
            one_minus_cos = 2.0 * np.sin(theta / 2.0) ** 2
            dist2 = h * h + 2.0 * r * rho * one_minus_cos
        w = np.sin(theta) ** (d - 2) if d > 2 else 1.0
        fac = 1.0 if moment == 0 else one_minus_cos
        return w * fac * dist2 ** (-p / 2.0)

    if h is None:
        val, _ = quad(integrand, 0.0, np.pi, limit=200)
    else:
        turn = h / max(r, rho)
        points = [turn * 4.0**k for k in range(40) if turn * 4.0**k < np.pi]
        val, _ = quad(integrand, 0.0, np.pi, points=points, limit=400,
                      epsabs=0.0, epsrel=2e-14)
    return weight * val


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("r,rho", [(0.5, 0.8), (0.3, 0.31), (0.9, 0.2)])
def test_kappa_moments_match_direct_angle_quadrature(d, r, rho):
    s = 0.6
    k0, kd = kappa_moments(r, rho, abs(r - rho), d, s)
    assert float(k0) == pytest.approx(_kappa_direct(r, rho, d, s, 0), rel=1e-10)
    assert float(kd) == pytest.approx(_kappa_direct(r, rho, d, s, 1), rel=1e-10)


def test_kappa_1d_elementary():
    # The 0-sphere average is the two-point sum over w = +/-1.
    r, rho, s = 0.4, 0.7, 0.3
    k0, kd = kappa_moments_1d(r, rho, abs(r - rho), s)
    near = abs(r - rho) ** (-1.0 - 2.0 * s)
    far = (r + rho) ** (-1.0 - 2.0 * s)
    assert float(k0) == pytest.approx(near + far, rel=1e-14)
    assert float(k0 - kd) == pytest.approx(near - far, rel=1e-14)


def test_kappa_symmetry_in_radii():
    k_ab = kappa_moments(0.45, 0.72, 0.27, 3, 0.5)
    k_ba = kappa_moments(0.72, 0.45, 0.27, 3, 0.5)
    assert float(k_ab[0]) == pytest.approx(float(k_ba[0]), rel=1e-12)
    assert float(k_ab[1]) == pytest.approx(float(k_ba[1]), rel=1e-12)


def test_kappa_near_diagonal_blowup_rate():
    # kappa_0 ~ C h^{-1-2s} as the radii merge; the log-slope over a decade
    # of h must match the exponent.
    s, r = 0.4, 0.5
    hs = np.array([1e-3, 1e-4])
    vals = [float(kappa_moments(r, r - h, h, 2, s)[0]) for h in hs]
    slope = np.log(vals[1] / vals[0]) / np.log(hs[1] / hs[0])
    assert slope == pytest.approx(-1.0 - 2.0 * s, abs=2e-2)


def test_kappa_ell_ordering():
    # 0 < kappa_1 < kappa_0: the first cosine moment is a strict average.
    for d in (1, 2, 3):
        k0 = float(kappa_ell(0.5, 0.6, 0.1, d, 0.5, 0))
        k1 = float(kappa_ell(0.5, 0.6, 0.1, d, 0.5, 1))
        assert 0.0 < k1 < k0


def test_kappa_moments_rejects_d1():
    with pytest.raises(ValueError):
        kappa_moments(0.5, 0.6, 0.1, 1, 0.5)


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
@pytest.mark.parametrize("d", range(2, 10))
def test_kappa_table_matches_adaptive_quadrature(d):
    # The table inherits the rule's error, so it may be off by twice that.
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for i, x in enumerate([*np.logspace(-10, 0, 11), 0.6, 0.85, 0.9, 0.99]):
            R = (0.6, 1.0, 2.5)[i % 3]
            for r, rho in ((R, R * (1.0 - x)), (R * (1.0 - x), R)):
                table = kappa_moments(r, rho, R * x, d, s)
                rule = kernels._kappa_rule(np.array([r]), np.array([rho]),
                                           np.array([R * x]), d, s)
                for moment in (0, 1):
                    ref = _kappa_direct(r, rho, d, s, moment, h=R * x)
                    bound = max(1e-12, 2.0 * abs(rule[moment][0] / ref - 1.0))
                    assert abs(float(table[moment]) / ref - 1.0) <= bound, (s, x, r, moment)


@pytest.mark.parametrize("d,s", [(2, 0.3), (3, 0.75), (9, 0.5)])
def test_kappa_table_matches_rule(d, s):
    rng = np.random.default_rng(7)
    x = np.concatenate([10.0 ** rng.uniform(-15, 0, 3000), [kernels._X_MIN, 0.5, 1.0]])
    R = 10.0 ** rng.uniform(-1, 1, x.size)
    table = kappa_moments(R, R * (1.0 - x), R * x, d, s)
    rule = kernels._kappa_rule(R, R * (1.0 - x), R * x, d, s)
    for got, want in zip(table, rule):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_kappa_below_finest_panel_uses_rule():
    r, h = 0.7, 0.7 * kernels._X_MIN / 4.0
    args = (np.array([r]), np.array([r - h]), np.array([h]), 3, 0.4)
    for got, want in zip(kappa_moments(*args), kernels._kappa_rule(*args)):
        np.testing.assert_array_equal(got, want)


def test_kappa_tables_built_lazily():
    # one table, for (3, 0.5): asking for that key again is a hit
    code = ("import fracball.cli, fracball.kernels as k; "
            "assert k._table.cache_info().currsize == 0; "
            "k.kappa_moments(0.5, 0.6, 0.1, 3, 0.5); "
            "assert k._table.cache_info()[:] == (0, 1, None, 1); "
            "k._table(3, 0.5); "
            "assert k._table.cache_info()[:] == (1, 1, None, 1)")
    src = str(Path(fracball.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("d", [14, 16])
def test_oracle_finite_where_the_rule_overflows(d):
    # at ladder position 3 the engine grades deep enough that some fallback
    # points have gaps below 2^{-1024/(d+2s)}, where the direct rule overflows
    from fracball.basis import RadialBasisSpec, stiffness_matrix
    from fracball.nonlocal_quadrature import stiffness_entry_oracle

    est = stiffness_entry_oracle(d, 0.75, 0, 0, budget=300_000)
    exact = stiffness_matrix(RadialBasisSpec(d, 0.75, 2))[0, 0]
    assert est.finite
    assert abs(est.value / exact - 1.0) <= 1e-9


def test_kappa_fallback_rescales_only_overflowing_points():
    d, s, R = 14, 0.75, 1.0
    h = np.array([2.0**-60, 2.0**-80])  # the rule is finite at the first only
    r, rho = np.full(2, R), R - h
    with np.errstate(over="ignore", invalid="ignore"):
        rule = np.stack(kernels._kappa_rule(r, rho, h, d, s))
    assert np.isfinite(rule[:, 0]).all() and not np.isfinite(rule[:, 1]).all()
    got = kernels._kappa_fallback(r, rho, h, d, s)
    np.testing.assert_array_equal(got[:, 0], rule[:, 0])
    # near the diagonal kappa_0 ~ h^{-1-2s} and kappa_diff ~ h^{1-2s}: the
    # rescaled point continues the finite one along those power laws
    scale = (h[1] / h[0]) ** np.array([-1.0 - 2.0 * s, 1.0 - 2.0 * s])
    np.testing.assert_allclose(got[:, 1], rule[:, 0] * scale, rtol=1e-6)

