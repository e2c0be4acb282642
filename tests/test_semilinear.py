import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracball import basis, quadrature, semilinear, truncation
from fracball.basis import (basis_matrix, radial_weighted_integrals,
                            stiffness_matrix)
from fracball.errors import (NoConvergence, NotConverged, TrivialSolution,
                             TruncationUnsafe, WrongNodalCount)
from fracball.params import ProblemParams, sphere_area
from fracball.quadrature import kink_rule
from fracball.roots import scan_roots
from fracball.semilinear import (NonlinearitySpec, check_subcriticality,
                                 energy, energy_gradient, pohozaev_residual,
                                 solve_radial_resolved,
                                 solve_radial_sign_changing)
from fracball.truncation import TAIL_TOL, coefficient_tail


def test_power_family_requires_superlinear_exponent():
    with pytest.raises(ValueError):
        NonlinearitySpec(1.0, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_nonlinearity_derivative_consistency(t):
    for nl in (NonlinearitySpec(2.0, 3.0), NonlinearitySpec(1.5)):
        h = 1e-6 * (1.0 + abs(t))
        f_fd = (nl.F(t + h) - nl.F(t - h)) / (2.0 * h)
        fp_fd = (nl.f(t + h) - nl.f(t - h)) / (2.0 * h)
        assert nl.f(t) == pytest.approx(f_fd, rel=1e-6, abs=1e-5)
        assert nl.fprime(t) == pytest.approx(fp_fd, rel=1e-5, abs=1e-4)


def test_linear_is_the_power_family_at_p_2_bit_for_bit():
    # linear(lam) is power(lam, 2): f, f' and F equal the linear expressions
    rng = np.random.default_rng(7)
    for lam in rng.uniform(-20.0, 20.0, 40):
        t = rng.standard_normal(50) * 10.0 ** rng.uniform(-8.0, 8.0, 50)
        t[0] = 0.0
        nl = NonlinearitySpec(lam)
        assert np.array_equal(nl.f(t), lam * t)
        assert np.array_equal(nl.fprime(t), np.full_like(t, lam))
        assert np.array_equal(nl.F(t), 0.5 * lam * t**2)


def test_subcriticality_power_threshold():
    # 2N/(N-2s) = 3 exactly at N = 3, s = 1/2, so p = 3 is critical there.
    res = check_subcriticality(NonlinearitySpec(1.0, 3.0),
                               ProblemParams(3, 0.5))
    assert res.threshold == pytest.approx(3.0)
    assert not res.satisfied
    res2 = check_subcriticality(NonlinearitySpec(1.0, 3.0),
                                ProblemParams(2, 0.5))
    assert res2.threshold == pytest.approx(4.0)
    assert res2.satisfied


def test_subcriticality_low_dimension_unrestricted():
    res = check_subcriticality(NonlinearitySpec(1.0, 7.0),
                               ProblemParams(1, 0.5))
    assert res.satisfied and res.threshold == np.inf


def test_linear_family_returns_scaled_eigenfunction():
    params = ProblemParams(2, 0.5)
    from fracball.spectrum import radial_family

    lam = float(radial_family(params, 0, 16).eigenvalues[1])
    sol = solve_radial_sign_changing(params, NonlinearitySpec(lam),
                                     target_nodes=1, K=16)
    assert sol.linear_degenerate
    assert sol.nodal_count == 1
    # the B-normalised eigenvector: ||A0 c - lam B c|| is rounding at the
    # eigenvalue lambda_{N,1} and of order ||A0 c|| away from it
    scale = float(np.linalg.norm(stiffness_matrix(sol.spec) @ sol.coefficients))
    assert sol.residual < 1e-10 * scale
    far = solve_radial_sign_changing(params, NonlinearitySpec(50.0),
                                     target_nodes=1, K=16)
    assert np.array_equal(far.coefficients, sol.coefficients)
    assert far.residual > scale


def test_zero_initial_guess_raises_trivial_solution():
    # u = 0 solves the Galerkin system exactly, so Newton stops at once
    with pytest.raises(TrivialSolution):
        solve_radial_sign_changing(ProblemParams(2, 0.5),
                                   NonlinearitySpec(1.0, 3.0), K=16,
                                   init=np.zeros(16))


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_nonpositive_coefficient_raises_trivial_solution(lam):
    # E_s(u, u) = lam int |u|^p <= 0 leaves only u = 0
    with pytest.raises(TrivialSolution):
        solve_radial_sign_changing(ProblemParams(2, 0.5),
                                   NonlinearitySpec(lam, 3.0), K=16)


def test_one_node_guess_for_two_nodes_raises_wrong_nodal_count(cubic_n2):
    params, nonlin, sol = cubic_n2
    with pytest.raises(WrongNodalCount):
        solve_radial_sign_changing(params, nonlin, target_nodes=2, K=16,
                                   init=sol.coefficients)


def test_pohozaev_refuses_an_unconverged_solution(cubic_n2):
    sol = dataclasses.replace(cubic_n2[2], residual=1.0)
    with pytest.raises(NotConverged):
        pohozaev_residual(sol)


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
    sol1 = solve_radial_sign_changing(params, NonlinearitySpec(1.0, 3.0),
                                      target_nodes=1, K=12)
    sol4 = solve_radial_sign_changing(params, NonlinearitySpec(4.0, 3.0),
                                      target_nodes=1, K=12)
    c1 = np.asarray(sol1.coefficients)
    c4 = np.asarray(sol4.coefficients)
    assert np.allclose(c4, c1 / 4.0, rtol=1e-8, atol=1e-8 * np.abs(c1).max())


def test_pohozaev_residual_builds_its_rule_through_segment_rule(monkeypatch, cubic_n1):
    # the benchmark's tracer times quadrature.segment_rule, and a light
    # campaign reaches it through pohozaev_residual -> kink_rule
    calls = []
    real = quadrature.segment_rule

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "segment_rule", counted)
    pohozaev_residual(cubic_n1[2])
    assert len(calls) == 1


def test_pohozaev_residual_decreases_with_truncation():
    params = ProblemParams(2, 0.5)
    nl = NonlinearitySpec(1.0, 3.0)
    rels = []
    for K in (12, 18, 24):
        sol = solve_radial_sign_changing(params, nl, target_nodes=1, K=K)
        _, _, rel = pohozaev_residual(sol)
        rels.append(rel)
    assert rels[2] < rels[1] < rels[0]


def test_pohozaev_identity_near_machine_for_fine_truncation():
    params = ProblemParams(1, 0.9)
    nl = NonlinearitySpec(1.0, 3.0)
    sol = solve_radial_sign_changing(params, nl, target_nodes=1, K=24)
    lhs, rhs, rel = pohozaev_residual(sol)
    assert lhs > 0.0 and rhs > 0.0
    assert rel < 1e-3


def test_gradient_vanishes_at_solution(cubic_n2):
    sol = cubic_n2[2]
    c = np.asarray(sol.coefficients)
    grad = energy_gradient(sol, c)
    scale = np.linalg.norm(stiffness_matrix(sol.spec) @ c)
    assert np.linalg.norm(grad) <= 1e-9 * scale


@pytest.mark.parametrize("N,s,K", [(1, 0.9, 12), (2, 0.7, 48), (3, 0.6, 24)])
def test_radial_potential_matrix_is_the_newton_jacobian(N, s, K):
    # both integrate on basis.galerkin_rule; measured at most 1.3e-15 apart
    sol = solve_radial_sign_changing(ProblemParams(N, s),
                                     NonlinearitySpec(1.0, 3.0),
                                     target_nodes=1, K=K)
    r, w = sol.rule
    ang = sphere_area(N)
    jac = semilinear._jacobian(sol.nonlin, basis_matrix(sol.spec, r), w,
                               sol.coefficients, ang)
    M = ang * radial_weighted_integrals(sol.spec, sol.linearized_potential,
                                        sol.breaks)
    assert np.abs(M - jac).max() <= 1e-12 * np.abs(jac).max()


@pytest.mark.parametrize("N,s,K", [(1, 0.35, 48), (3, 0.6, 24), (2, 0.7, 192)])
def test_solution_matches_the_rule_with_the_full_order_on_every_panel(
        monkeypatch, N, s, K):
    # galerkin_rule's per-panel orders against max(12, K + 4) nodes on every
    # panel; measured at most 4.0e-12 apart in coefficients and 8.6e-12 in
    # breaks, relative
    args = (ProblemParams(N, s), NonlinearitySpec(1.0, 3.0))
    sol = solve_radial_sign_changing(*args, target_nodes=1, K=K)
    monkeypatch.setattr(semilinear, "galerkin_rule", lambda K, breaks:
                        kink_rule(breaks, max(12, K + 4), 18, 0.3))
    full = solve_radial_sign_changing(*args, target_nodes=1, K=K)
    assert sol.nodal_count == full.nodal_count == 1
    c, c0 = sol.coefficients, full.coefficients
    assert np.abs(c - c0).max() <= 1e-10 * np.abs(c0).max()
    assert abs(sol.breaks[0] - full.breaks[0]) <= 1e-10 * full.breaks[0]


def test_energy_negative_direction_exists(cubic_n2):
    # J decreases along the solution direction from small amplitudes, so the
    # solution cannot be a local minimizer of the scalar section.
    sol = cubic_n2[2]
    c = np.asarray(sol.coefficients)
    vals = [energy(sol, t * c) for t in (1.0, 1.2)]
    assert vals[1] < vals[0]


def test_nodal_count_stable_under_grid_refinement(cubic_n1):
    _, _, sol = cubic_n1
    # sign_change_radii scans 2048 cells; a scan four times finer finds no
    # more
    sign = np.sign(sol.profile.poly_part(np.linspace(0.0, 1.0, 8193)))
    fine = int(np.count_nonzero(sign[:-1] * sign[1:] < 0))
    assert len(sol.profile.sign_change_radii()) == fine == 1


@pytest.mark.parametrize("case", [
    (ProblemParams(2, 0.5), 3.0, 1, 12, 1, "after 1 iterations"),
    (ProblemParams(3, 0.6), 2.5, 2, 24, 60, "line search"),
], ids=["iteration-cap", "stall"])
def test_no_convergence_raised_on_iteration_cap(monkeypatch, case):
    params, p, nodes, K, max_iter, message = case
    monkeypatch.setattr(semilinear, "MAX_ITER", max_iter)
    with pytest.raises(NoConvergence, match=message) as info:
        solve_radial_sign_changing(params, NonlinearitySpec(1.0, p),
                                   target_nodes=nodes, K=K)
    # the benchmark tags known failures by this class name
    assert type(info.value) is NoConvergence


def test_resolved_solve_matches_cold_solve_at_chosen_K():
    # The warm start pads the K = 24 coefficients with zeros; the refined
    # solution must be the one a cold solve finds at the same K.
    params = ProblemParams(1, 0.5)
    nl = NonlinearitySpec(1.0, 3.0)
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
                              NonlinearitySpec(1.0, 3.0),
                              target_nodes=1, K=24)


def test_jacobian_formed_only_to_take_a_step(monkeypatch):
    calls = []
    jacobian = semilinear._jacobian

    def counted(*args):
        calls.append(1)
        return jacobian(*args)

    monkeypatch.setattr(semilinear, "_jacobian", counted)
    sol = solve_radial_sign_changing(ProblemParams(2, 0.6),
                                     NonlinearitySpec(1.0, 3.0),
                                     target_nodes=1, K=24)
    assert len(calls) == sol.newton_iterations > 0
    # the roots carried from the last phase are those of the returned profile
    assert sol.breaks == tuple(sol.profile.sign_change_radii())
    assert sol.nodal_count == len(sol.breaks) == 1
    # a stalled solve forms one Jacobian per step, none in its line searches
    calls.clear()
    with pytest.raises(NoConvergence, match="line search stalled") as info:
        solve_radial_sign_changing(ProblemParams(3, 0.6),
                                   NonlinearitySpec(1.0, 2.5),
                                   target_nodes=2, K=24)
    stalled_at = int(re.search(r"in iteration (\d+) ", str(info.value))[1])
    assert len(calls) == stalled_at == 10


@pytest.mark.parametrize("nonlin", [NonlinearitySpec(1.0, 3.0),
                                    NonlinearitySpec(10.0)],
                         ids=["power", "linear"])
def test_seed_eigenpair_from_one_eigh(monkeypatch, nonlin):
    # the seed's eigenvectors come from one NumPy eigh, of the scaled
    # potential-free pencil
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve_radial_sign_changing(ProblemParams(2, 0.6), nonlin, target_nodes=1,
                               K=24)
    assert len(calls) == 1


def _profile_scan(prof):
    """sign_change_radii as a scan of the profile's own poly_part."""
    grid = np.linspace(0.0, 1.0, 2049)
    return scan_roots(prof.poly_part(grid), prof.poly_at, grid)


class _FreshRootScan:
    def __init__(self, spec):
        pass

    def __call__(self, prof):
        return _profile_scan(prof)


def _fresh_tables_solve(monkeypatch, params, nonlin, nodes, K):
    """solve_radial_sign_changing with no table built once per solve: each
    root scan evaluates its profile on the grid afresh, and each load and
    Jacobian reads a basis matrix built for that call at its rule's nodes."""
    spec = basis.RadialBasisSpec(params.N, params.s, K)
    nodes_of = {}  # id of a rule's weights -> its nodes
    rule, load, jac = (semilinear._interior_rule, semilinear._load,
                       semilinear._jacobian)

    def recorded_rule(spec, breaks):
        r, w = rule(spec, breaks)
        nodes_of[id(w)] = r
        return r, w

    def fresh(fn):
        def call(nl, phi, w, c, ang):
            return fn(nl, basis_matrix(spec, nodes_of[id(w)]), w, c, ang)
        return call

    with monkeypatch.context() as m:
        m.setattr(semilinear, "RootScan", _FreshRootScan)
        m.setattr(semilinear, "_interior_rule", recorded_rule)
        m.setattr(semilinear, "_load", fresh(load))
        m.setattr(semilinear, "_jacobian", fresh(jac))
        return solve_radial_sign_changing(params, nonlin, nodes, K=K)


def _outcome(solve):
    """The solution's reported values, or the failure's class and message."""
    try:
        sol = solve()
    except NoConvergence as exc:
        return type(exc).__name__, str(exc)
    return (sol.coefficients.tobytes(), sol.breaks, sol.residual,
            sol.newton_iterations, sol.psi0_at_1,
            energy(sol, sol.coefficients), pohozaev_residual(sol))


@pytest.mark.parametrize("N,s", [(1, 0.35), (2, 0.7), (3, 0.6)])
@pytest.mark.parametrize("K", [24, 48])
@pytest.mark.parametrize("nodes", [1, 2])
def test_tables_built_once_per_solve_change_no_bit(monkeypatch, N, s, K,
                                                   nodes):
    # p = 3 walks the continuation path 2.5, 2.75, 3, so the amplitude
    # grid's table and the rule carried across p-steps are both exercised
    params, nl = ProblemParams(N, s), NonlinearitySpec(1.0, 3.0)
    scans = []
    breaks_of = {}  # id of a rule's weights -> the breaks it splits at
    jacobi_all, rule = basis.jacobi_all, semilinear._interior_rule

    def counted(K, a, b, x):
        scans.append(np.size(x) == 2049)
        return jacobi_all(K, a, b, x)

    def recorded_rule(spec, breaks):
        r, w = rule(spec, breaks)
        breaks_of[id(w)] = breaks
        return r, w

    def solve():
        sols.append(solve_radial_sign_changing(params, nl, nodes, K=K))
        return sols[0]

    sols = []
    with monkeypatch.context() as m:
        m.setattr(basis, "jacobi_all", counted)
        m.setattr(semilinear, "_interior_rule", recorded_rule)
        got = _outcome(solve)
    assert sum(scans) == 1
    for sol in sols:
        # the last phase ran on the rule at the returned roots, to 1e-11
        ran_on = breaks_of[id(sol.rule[1])]
        assert len(ran_on) == len(sol.breaks)
        assert all(abs(a - b) < 1e-11 for a, b in zip(ran_on, sol.breaks))
    assert got == _outcome(lambda: _fresh_tables_solve(monkeypatch, params,
                                                       nl, nodes, K))


def test_tables_built_once_keep_the_stall_message(monkeypatch):
    params, nl = ProblemParams(3, 0.6), NonlinearitySpec(1.0, 2.5)
    got = _outcome(lambda: solve_radial_sign_changing(params, nl, 2, K=24))
    assert got[0] == "NoConvergence"
    assert got == _outcome(lambda: _fresh_tables_solve(monkeypatch, params,
                                                       nl, 2, 24))


def test_root_scan_table_matches_a_fresh_profile_scan():
    rng = np.random.default_rng(28)
    for K in (2, 24, 48, 192):
        spec = basis.RadialBasisSpec(int(rng.integers(1, 6)),
                                     float(rng.uniform(0.1, 0.9)), K)
        scan = basis.RootScan(spec)
        for _ in range(5):
            prof = basis.RadialProfile(spec, rng.standard_normal(K)
                                       / np.arange(1, K + 1))
            roots = scan(prof)
            assert roots == prof.sign_change_radii() == _profile_scan(prof)
