import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracball import semilinear, truncation
from fracball.errors import NoConvergence, TruncationUnsafe
from fracball.params import ProblemParams
from fracball.semilinear import (NonlinearitySpec, check_subcriticality,
                                 energy, energy_gradient, pohozaev_residual,
                                 solve_radial_resolved,
                                 solve_radial_sign_changing)
from fracball.truncation import TAIL_TOL, coefficient_tail


def test_power_family_requires_superlinear_exponent():
    with pytest.raises(ValueError):
        NonlinearitySpec("power", 1.0, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_nonlinearity_derivative_consistency(t):
    for nl in (NonlinearitySpec("power", 2.0, 3.0),
               NonlinearitySpec("linear", 1.5),
               NonlinearitySpec("shifted-linear", 1.0, c0=0.3)):
        h = 1e-6 * (1.0 + abs(t))
        f_fd = (nl.F(t + h) - nl.F(t - h)) / (2.0 * h)
        fp_fd = (nl.f(t + h) - nl.f(t - h)) / (2.0 * h)
        assert nl.f(t) == pytest.approx(f_fd, rel=1e-6, abs=1e-5)
        assert nl.fprime(t) == pytest.approx(fp_fd, rel=1e-5, abs=1e-4)


def test_subcriticality_power_threshold():
    # 2N/(N-2s) = 3 exactly at N = 3, s = 1/2, so p = 3 is critical there.
    res = check_subcriticality(NonlinearitySpec("power", 1.0, 3.0),
                               ProblemParams(3, 0.5))
    assert res.threshold == pytest.approx(3.0)
    assert not res.satisfied
    res2 = check_subcriticality(NonlinearitySpec("power", 1.0, 3.0),
                                ProblemParams(2, 0.5))
    assert res2.threshold == pytest.approx(4.0)
    assert res2.satisfied


def test_subcriticality_low_dimension_unrestricted():
    res = check_subcriticality(NonlinearitySpec("power", 1.0, 7.0),
                               ProblemParams(1, 0.5))
    assert res.satisfied and res.threshold == np.inf


def test_linear_family_returns_scaled_eigenfunction():
    params = ProblemParams(2, 0.5)
    from fracball.spectrum import radial_family

    lam = float(radial_family(params, 0, 16).eigenvalues[1])
    sol = solve_radial_sign_changing(params, NonlinearitySpec("linear", lam),
                                     target_nodes=1, K=16)
    assert sol.linear_degenerate
    assert sol.nodal_count == 1
    assert sol.residual == 0.0


def test_converged_cubic_solution_properties(cubic_n2):
    params, nonlin, sol = cubic_n2
    assert sol.nodal_count == 1
    assert sol.residual < 1e-9
    assert not sol.linear_degenerate
    assert sol.psi0_at_1 == pytest.approx(sol.profile.boundary_ratio(), rel=1e-12)
    # the profile vanishes on and outside the unit sphere
    assert np.all(sol.profile(np.array([1.0, 1.2])) == 0.0)


def test_boundary_ratio_classification(cubic_n2):
    params, _, sol = cubic_n2
    # psi0(1) = lim u(r)/(1-r)^s, so its sign is the profile's at the boundary
    r = 1.0 - 1e-7
    limit = float(sol.profile(np.array([r]))[0]) / (1.0 - r) ** params.s
    assert limit == pytest.approx(sol.psi0_at_1, rel=1e-5)
    assert (sol.psi0_at_1 >= 0.0) == (limit >= 0.0)


def test_scaling_covariance_of_power_solutions():
    # u_lam = lam^{-1/(p-2)} u_1 maps solutions between coefficients lam.
    params = ProblemParams(2, 0.5)
    sol1 = solve_radial_sign_changing(params, NonlinearitySpec("power", 1.0, 3.0),
                                      target_nodes=1, K=12)
    sol4 = solve_radial_sign_changing(params, NonlinearitySpec("power", 4.0, 3.0),
                                      target_nodes=1, K=12)
    c1 = np.asarray(sol1.coefficients)
    c4 = np.asarray(sol4.coefficients)
    assert np.allclose(c4, c1 / 4.0, rtol=1e-8, atol=1e-8 * np.abs(c1).max())


def test_pohozaev_residual_decreases_with_truncation():
    params = ProblemParams(2, 0.5)
    nl = NonlinearitySpec("power", 1.0, 3.0)
    rels = []
    for K in (12, 18, 24):
        sol = solve_radial_sign_changing(params, nl, target_nodes=1, K=K)
        _, _, rel = pohozaev_residual(sol)
        rels.append(rel)
    assert rels[2] < rels[1] < rels[0]


def test_pohozaev_identity_near_machine_for_fine_truncation():
    params = ProblemParams(1, 0.9)
    nl = NonlinearitySpec("power", 1.0, 3.0)
    sol = solve_radial_sign_changing(params, nl, target_nodes=1, K=24)
    lhs, rhs, rel = pohozaev_residual(sol)
    assert lhs > 0.0 and rhs > 0.0
    assert rel < 1e-3


def test_gradient_vanishes_at_solution(cubic_n2):
    params, nonlin, sol = cubic_n2
    c = np.asarray(sol.coefficients)
    grad = energy_gradient(c, sol.spec, nonlin, params,
                           rule=(sol.quad_r, sol.quad_w))
    from fracball.basis import stiffness_matrix

    scale = np.linalg.norm(stiffness_matrix(sol.spec) @ c)
    assert np.linalg.norm(grad) <= 1e-9 * scale


def test_energy_negative_direction_exists(cubic_n2):
    # J decreases along the solution direction from small amplitudes, so the
    # solution cannot be a local minimizer of the scalar section.
    params, nonlin, sol = cubic_n2
    c = np.asarray(sol.coefficients)
    vals = [energy(t * c, sol.spec, nonlin, params,
                   rule=(sol.quad_r, sol.quad_w)) for t in (1.0, 1.2)]
    assert vals[1] < vals[0]


def test_nodal_count_stable_under_grid_refinement(cubic_n1):
    _, _, sol = cubic_n1
    # nodal_count scans 2048 cells; a scan four times finer finds no more
    sign = np.sign(sol.profile.poly_part(np.linspace(0.0, 1.0, 8193)))
    fine = int(np.count_nonzero(sign[:-1] * sign[1:] < 0))
    assert sol.profile.nodal_count() == fine == 1


def test_no_convergence_raised_on_iteration_cap():
    params = ProblemParams(2, 0.5)
    with pytest.raises(NoConvergence):
        solve_radial_sign_changing(params, NonlinearitySpec("power", 1.0, 3.0),
                                   target_nodes=1, K=12, max_iter=1)


def test_resolved_solve_matches_cold_solve_at_chosen_K():
    # The warm start pads the K = 24 coefficients with zeros; the refined
    # solution must be the one a cold solve finds at the same K.
    params = ProblemParams(1, 0.5)
    nl = NonlinearitySpec("power", 1.0, 3.0)
    sol = solve_radial_resolved(params, nl, target_nodes=1, K=24)
    assert sol.spec.K == 48
    assert coefficient_tail(sol.coefficients) <= TAIL_TOL
    cold = solve_radial_sign_changing(params, nl, target_nodes=1, K=48)
    c, c0 = np.asarray(sol.coefficients), np.asarray(cold.coefficients)
    sign = np.sign(c @ c0)  # the eigenvector seed fixes the sign of u
    assert np.max(np.abs(c - sign * c0)) <= 1e-8 * np.max(np.abs(c0))


def test_resolved_solve_raises_when_cap_too_small(monkeypatch):
    # N = 2, s = 1/2 needs K = 96; at K = 48 the tail is still ~2e-3.
    monkeypatch.setattr(truncation, "K_CAP", 48)
    with pytest.raises(TruncationUnsafe):
        solve_radial_resolved(ProblemParams(2, 0.5),
                              NonlinearitySpec("power", 1.0, 3.0),
                              target_nodes=1, K=24)


def test_jacobian_formed_only_to_take_a_step(monkeypatch):
    calls = []
    jacobian = semilinear._jacobian

    def counted(*args):
        calls.append(1)
        return jacobian(*args)

    monkeypatch.setattr(semilinear, "_jacobian", counted)
    sol = solve_radial_sign_changing(ProblemParams(2, 0.6),
                                     NonlinearitySpec("power", 1.0, 3.0),
                                     target_nodes=1, K=24)
    assert len(calls) == sol.newton_iterations > 0
    # the roots carried from the last phase are those of the returned profile
    assert sol.breaks == tuple(sol.profile.sign_change_radii())
    assert sol.nodal_count == len(sol.breaks) == 1
    # a stalled solve forms one Jacobian per step, none in its line searches
    calls.clear()
    with pytest.raises(NoConvergence):
        solve_radial_sign_changing(ProblemParams(3, 0.6),
                                   NonlinearitySpec("power", 1.0, 2.5),
                                   target_nodes=2, K=24)
    assert len(calls) == 60


@pytest.mark.parametrize("nonlin", [NonlinearitySpec("power", 1.0, 3.0),
                                    NonlinearitySpec("linear", 10.0)],
                         ids=["power", "linear"])
def test_seed_eigenpair_from_one_eigh(monkeypatch, nonlin):
    # the seed reads one eigenpair; the K-2 convergence re-solve is not run
    calls = []
    eigh = scipy.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    solve_radial_sign_changing(ProblemParams(2, 0.6), nonlin, target_nodes=1,
                               K=24)
    assert len(calls) == 1
