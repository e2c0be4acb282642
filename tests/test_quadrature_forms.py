import numpy as np
import pytest

from fracball.basis import (RadialBasisSpec, RadialProfile, dyda_factor,
                            stiffness_matrix)
from fracball.errors import DimensionUnsupported, SingularityTooClose
from fracball.nonlocal_quadrature import (SeparableFunction, _mc_bilinear,
                                          angular_factor, bilinear_form,
                                          exterior_tail, kdiff_total,
                                          pointwise_flap,
                                          pointwise_flap_radial_reduced,
                                          radial_potential_integral,
                                          stiffness_entry_oracle)
from fracball.params import ProblemParams, sphere_area
from fracball.quadrature import (QuadratureRule, ValueWithError, graded_rule,
                                 segment_rule)


def _basis_fn(d, s, n, K=6, angular="constant"):
    e = np.zeros(K)
    e[n] = 1.0
    return SeparableFunction(RadialProfile(RadialBasisSpec(d, s, K), e),
                             angular=angular)


def test_value_with_error_float_conversion():
    est = ValueWithError(2.5, 0.1)
    assert est.value == 2.5 and isinstance(est.value, float)


@pytest.mark.parametrize("N,s", [(1, 0.3), (2, 0.5), (3, 0.75)])
def test_bilinear_form_symmetry(N, s):
    params = ProblemParams(N, s)
    u = _basis_fn(N, s, 0)
    v = _basis_fn(N, s, 2)
    uv = bilinear_form(u, v, params)
    vu = bilinear_form(v, u, params)
    assert abs(uv.value - vu.value) <= 1e-12 * (1.0 + abs(uv.value))


def test_bilinear_form_incompatible_parity_exact_zero():
    params = ProblemParams(2, 0.5)
    u = _basis_fn(2, 0.5, 0, angular="constant")
    v = _basis_fn(4, 0.5, 0, angular="coordinate")
    est = bilinear_form(u, v, params)
    assert est.value == 0.0 and est.error == 0.0


def _coordinate_fn(N, s):
    """x_1 phi_0(|x|) with phi_0 the first basis function of d = N + 2."""
    phi0 = _basis_fn(N + 2, s, 0).profile
    return SeparableFunction(lambda r: np.asarray(r) * np.asarray(phi0(r)),
                             angular="coordinate")


# u vanishes at the outside point of an exterior pair, so mc_remainder needs
# the plain moment kappa_0 there whatever u's angular class
_ELL1_EXTERIOR_BIAS = pytest.mark.xfail(
    strict=True, reason="ell = 1 Monte-Carlo exterior pairs use kappa_1, "
                        "not kappa_0 (see ROADMAP.md)")


@pytest.mark.parametrize("N,s,angular", [
    (1, 0.3, "constant"),
    (2, 0.6, "constant"),
    pytest.param(1, 0.3, "coordinate", marks=_ELL1_EXTERIOR_BIAS),
    pytest.param(2, 0.3, "coordinate", marks=_ELL1_EXTERIOR_BIAS),
], ids=["1-0.3", "2-0.6", "1-0.3-coordinate", "2-0.3-coordinate"])
def test_monte_carlo_unbiased_across_seeds(N, s, angular):
    # Sample mean over 32 independent streams lies within 4 standard errors
    # of the deterministic-rule value.
    params = ProblemParams(N, s)
    u = _basis_fn(N, s, 1) if angular == "constant" else _coordinate_fn(N, s)
    exact = bilinear_form(u, u, params).value
    vals, ses = [], []
    for seed in range(32):
        est = _mc_bilinear(u, u, params, QuadratureRule(20_000, seed))
        vals.append(est.value)
        ses.append(est.error)
    mean = np.mean(vals)
    se_mean = np.sqrt(np.mean(np.square(ses)) / len(vals))
    assert abs(mean - exact) <= 4.0 * se_mean


@pytest.mark.parametrize("s", [0.74, 0.8])
def test_monte_carlo_samplers_reject_large_s(s):
    # offsets have density ~ t^{-(2s - 1/2)}: not normalisable at s >= 3/4,
    # and at s = 0.74 some samples overflow to nan
    from fracball.morse import _mc_quadratic_pair

    params = ProblemParams(2, s)
    u = _basis_fn(2, s, 1)
    with pytest.raises(DimensionUnsupported):
        _mc_quadratic_pair(u, u, params, 200_000, 5)
    with pytest.raises(DimensionUnsupported):
        _mc_bilinear(u, u, params, QuadratureRule(200_000, 5))


def test_monte_carlo_deterministic_given_seed():
    params = ProblemParams(2, 0.6)
    u = _basis_fn(2, 0.6, 0)
    rule = QuadratureRule(5_000, 42)
    a = _mc_bilinear(u, u, params, rule)
    b = _mc_bilinear(u, u, params, rule)
    assert (a.value, a.error) == (b.value, b.error)


@pytest.mark.parametrize("N,s", [(1, 0.3), (2, 0.2), (2, 0.7), (3, 0.5)])
def test_coordinate_form_matches_closed_form(N, s):
    # x_1 phi_m(|x|) with phi_m the basis of effective dimension N + 2: the
    # ell = 1 form E_s is the (m, n) stiffness entry in that dimension, up to
    # the angular measures (kdiff_total, exterior_tail(ell=1) and the grading
    # toward r = 0 all enter)
    params = ProblemParams(N, s)
    A = stiffness_matrix(RadialBasisSpec(N + 2, s, 4))
    conv = angular_factor(N, 1) / sphere_area(N + 2)
    fns = [_basis_fn(N + 2, s, n, K=4) for n in range(3)]
    coord = [SeparableFunction(lambda r, p=f.profile: r * p(r), "coordinate")
             for f in fns]
    for m in range(3):
        for n in range(m, 3):
            est = bilinear_form(coord[m], coord[n], params)
            bound = 1e-8 * conv * np.sqrt(A[m, m] * A[n, n])
            assert abs(est.value - conv * A[m, n]) <= bound


def _kdiff_by_quad(N, s):
    """C(N, s) by scipy's adaptive quadrature of rho^{N-1} kappa_diff(1, rho).

    rho = 1 -+ t^k with k = 1/(2 - 2s) on (0, 2) turns the |1 - rho|^{1-2s}
    behaviour at the diagonal into a bounded integrand; the gap t^k is passed
    as such, so it keeps full precision."""
    from scipy.integrate import quad

    from fracball.kernels import kappa_moments

    def f(rho, h):
        return rho ** (N - 1) * float(kappa_moments(1.0, rho, h, N, s)[1])

    k = 1.0 / (2.0 - 2.0 * s)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    near = sum(quad(lambda t: k * t ** (k - 1.0) * f(1.0 + sgn * t ** k, t ** k),
                    0.0, 1.0, **opts)[0] for sgn in (-1.0, 1.0))
    return near + quad(lambda rho: f(rho, rho - 1.0), 2.0, np.inf, **opts)[0]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.7, 0.9])
def test_kdiff_total_closed_form_matches_quad(s):
    assert kdiff_total(1, s) == 1.0 / s
    for N in range(2, 10):
        assert kdiff_total(N, s) == pytest.approx(_kdiff_by_quad(N, s),
                                                  rel=1e-12, abs=0.0), N


def test_exterior_tail_positive_decreasing():
    r = np.linspace(0.05, 0.95, 10)
    tau = exterior_tail(r, 2, 0.5)
    assert np.all(tau > 0.0)
    # mass of exterior points seen from r grows toward the boundary
    assert np.all(np.diff(tau) > 0.0)


def _exterior_tail_per_radius(r, N, s, ell, n=10):
    """exterior_tail one radius at a time: the reference for its vectorized form."""
    from fracball.kernels import kappa_ell
    from fracball.nonlocal_quadrature import _RATIO, _lev_for
    from fracball.quadrature import jacobi_panel

    tj, wtj = jacobi_panel(0.0, 0.5, 2.0 * s - 1.0, 16, "left")
    rho_t = 1.0 / tj
    wt = wtj * tj ** (-(N + 2.0 * s))
    out = []
    for ri in r:
        g = 1.0 - ri
        zeta, wz = graded_rule(0.0, 1.0, "left", _lev_for(g, 1.0, base=6), _RATIO, n)
        rho = 1.0 + zeta
        k = kappa_ell(np.full_like(rho, ri), rho, g + zeta, N, s, ell)
        kt = kappa_ell(np.full_like(rho_t, ri), rho_t, rho_t - ri, N, s, ell)
        out.append(np.dot(wz * rho ** (N - 1), k) + np.dot(wt, kt))
    return np.array(out)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("ell", [0, 1])
def test_exterior_tail_matches_per_radius_loop(N, ell):
    # radii graded into the boundary give many grading depths (node sets)
    r = np.concatenate([np.linspace(0.0, 0.95, 60), 1.0 - np.logspace(-2, -12, 11)])
    for s in (0.3, 0.8):
        np.testing.assert_allclose(exterior_tail(r, N, s, ell=ell),
                                   _exterior_tail_per_radius(r, N, s, ell),
                                   rtol=1e-13, atol=0.0)


def test_stiffness_oracle_positive_diagonal():
    est = stiffness_entry_oracle(2, 0.5, 0, 0)
    assert est.value > 0.0 and est.error < 1e-6 * est.value


def test_radial_potential_integral_vs_quad():
    from scipy.integrate import quad

    d, s = 2, 0.5
    prof = _basis_fn(d, s, 1).profile
    est = radial_potential_integral(lambda r: 1.0 + r, prof, prof, d)
    exact, _ = quad(lambda r: (1.0 + r) * prof(np.atleast_1d(r))[0] ** 2 * r,
                    0.0, 1.0, limit=200)
    assert est.value == pytest.approx(exact, rel=1e-10)
    assert abs(est.value - exact) <= 10.0 * est.error + 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pointwise_flap_eigenrelation(n):
    # (-Delta)^s phi_n = mu_n P_n(2 r^2 - 1) inside the ball.
    d, s = 2, 0.6
    spec = RadialBasisSpec(d, s, 6)
    u = _basis_fn(d, s, n)
    mu = dyda_factor(spec)[n]
    from scipy.special import eval_jacobi

    for r in (0.0, 0.35, 0.7):
        x = np.zeros(d)
        x[0] = r
        est = pointwise_flap(u, x, ProblemParams(d, s))
        expected = mu * eval_jacobi(n, s, d / 2.0 - 1.0, 2.0 * r**2 - 1.0)
        assert abs(est.value - expected) <= 3.0 * est.error + 1e-6 * abs(mu)


def test_pointwise_flap_center_reduction_agrees():
    d, s = 3, 0.5
    u = _basis_fn(d, s, 2)
    full = pointwise_flap(u, np.zeros(d), ProblemParams(d, s))
    reduced = pointwise_flap_radial_reduced(u, ProblemParams(d, s))
    assert full.value == pytest.approx(reduced, rel=1e-6)


def test_pointwise_flap_boundary_margin():
    u = _basis_fn(2, 0.5, 0)
    with pytest.raises(SingularityTooClose):
        pointwise_flap(u, np.array([0.9999, 0.0]), ProblemParams(2, 0.5))


def test_segment_rule_integrates_polynomial_exactly():
    rule = segment_rule([0.0, 0.4, 1.0], 8, grade={1.0}, levels=10, ratio=0.3)
    est = float(np.dot(rule.weights, rule.nodes**5))
    assert est == pytest.approx(1.0 / 6.0, rel=1e-13)


@pytest.mark.parametrize("toward", ["left", "right"])
def test_graded_rule_exactness(toward):
    a, b, n = 0.2, 1.7, 10
    end = a if toward == "left" else b
    rule = graded_rule(a, b, toward, 9, 0.3, n)
    assert np.all(np.diff(rule.nodes) > 0.0)
    for k in range(8):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        est = np.dot(rule.weights, rule.nodes**k)
        assert est == pytest.approx(exact, rel=1e-13, abs=1e-13)
    # the Jacobi panel absorbs |t - end|^gamma: exact at levels 0 for any
    # power gamma + k, and accurate deep into the grading
    L = b - a
    for gamma in (-0.4, 0.0, 0.6):
        for levels, tol in ((0, 1e-13), (12, 1e-9)):
            rule = graded_rule(a, b, toward, levels, 0.3, n, gamma=gamma)
            for k in range(4):
                p = gamma + k
                est = np.dot(rule.weights, np.abs(rule.nodes - end) ** p)
                exact = L ** (p + 1) / (p + 1)
                assert est == pytest.approx(exact, rel=tol, abs=tol)
