import dataclasses

import numpy as np
import pytest

from fracball import morse, nonlocal_quadrature
from fracball.basis import RadialProfile
from fracball.errors import DimensionUnsupported, InadmissibleBoundaryData
from fracball.morse import (assemble_linearized, build_test_functions,
                            first_linearized_eigen, morse_index)
from fracball.morse import test_function_checks as run_test_function_checks
from fracball.nonlocal_quadrature import SeparableFunction, quadratic_form_L
from fracball.params import ProblemParams
from fracball.quadrature import ValueWithError
from fracball.semilinear import NonlinearitySpec, solve_radial_sign_changing
from fracball.spectrum import assemble_full_spectrum, radial_family
from fracball.truncation import escalate_ell


@pytest.fixture(scope="module")
def morse_n1(cubic_n1):
    return morse_index(cubic_n1[2])


@pytest.fixture(scope="module")
def morse_n2(cubic_n2):
    # at K = 16 the ell = 3 sector still reaches below zero
    sol = cubic_n2[2]
    return escalate_ell(lambda ell_max: morse_index(sol, ell_max=ell_max))


def _linear_solution(params, K, level, target_nodes):
    lam = float(radial_family(params, 0, K).eigenvalues[level])
    sol = solve_radial_sign_changing(params, NonlinearitySpec(lam),
                                     target_nodes=target_nodes, K=K)
    return lam, sol


def test_ground_state_linear_family_no_negative_directions():
    params = ProblemParams(1, 0.5)
    _, sol = _linear_solution(params, 16, 0, 0)
    rep = morse_index(sol, ell_max=1)
    assert rep.total_index == 0
    assert rep.marginal_total == 1  # the solution itself is the zero mode
    assert rep.theorem_check == "not-applicable"


@pytest.mark.parametrize("N,s", [(1, 0.5), (2, 0.75)])
def test_linear_crosscheck_second_eigenfunction(N, s):
    params = ProblemParams(N, s)
    lam, sol = _linear_solution(params, 24, 1, 1)
    rep = morse_index(sol, ell_max=3)
    spectrum = assemble_full_spectrum(params, 3, 4, 24)
    assert rep.total_index == spectrum.below(lam)
    assert rep.total_index >= N + 1
    assert rep.marginal_total >= 1
    assert rep.theorem_check == "passes"


def test_morse_counts_respect_multiplicity():
    params = ProblemParams(3, 0.5)
    lam, sol = _linear_solution(params, 20, 1, 1)
    rep = morse_index(sol, ell_max=3)
    per_ell = {sc.ell: sc for sc in rep.per_ell}
    assert per_ell[1].multiplicity == 3
    assert per_ell[2].multiplicity == 5
    # total = sum over sectors of (radial count) x (multiplicity)
    assert rep.total_index == sum(sc.negative * sc.multiplicity
                                  for sc in rep.per_ell)


def test_first_linearized_eigen_radial_negative(morse_n2):
    lam1, ell, profile, definite = first_linearized_eigen(morse_n2)
    assert lam1 < 0.0
    assert ell == 0
    assert definite


def test_linearized_assembly_passes_kernel_gate(cubic_n1):
    sol = cubic_n1[2]
    for ell in (0, 1):
        pair = assemble_linearized(sol, ell, oracle_budget=50_000)
        assert np.allclose(pair.A, pair.A.T, atol=1e-10 * np.abs(pair.A).max())


def test_vanishing_boundary_ratio_at_s_half_is_inadmissible(cubic_n2):
    # at s <= 1/2 the signed part of u' need not vanish near r = 1 when
    # psi0(1) = 0, so the test functions are refused
    sol = dataclasses.replace(cubic_n2[2], psi0_at_1=0.0)
    with pytest.raises(InadmissibleBoundaryData):
        build_test_functions(sol)


def test_build_test_functions_structure(cubic_n2):
    params, _, sol = cubic_n2
    fns = build_test_functions(sol)
    assert len(fns) == params.N
    du = sol.profile.derivative
    for j, fn in enumerate(fns, start=1):
        assert fn.j == j and fn.ell == 1
        assert 0.0 < fn.support_radius < 1.0
        r_out = np.linspace(fn.support_radius + 1e-9, 1.0, 64)
        assert np.allclose(fn.profile(r_out), 0.0)
        # one sign of u' only, matching the boundary-data convention
        r_in = np.linspace(1e-3, fn.support_radius, 256)
        vals = fn.profile(r_in)
        if sol.psi0_at_1 >= 0.0:
            assert np.all(vals >= 0.0)
            assert np.allclose(vals, np.maximum(du(r_in), 0.0))
        else:
            assert np.all(vals <= 0.0)
            assert np.allclose(vals, np.minimum(du(r_in), 0.0))


def test_test_functions_rotate_into_each_other_and_are_odd(cubic_n2, rng):
    # the identities that let one diagonal estimate serve every d_j and make
    # the cross terms zero: d_2(R x) = d_1(x) for the quarter turn R, and
    # d_1 is odd in x_1
    _, _, sol = cubic_n2
    d1, d2 = build_test_functions(sol)
    x = rng.standard_normal((300, 2))
    x *= (rng.random(300) / np.linalg.norm(x, axis=1))[:, None]
    rotated = np.column_stack([-x[:, 1], x[:, 0]])
    mirrored = np.column_stack([-x[:, 0], x[:, 1]])
    assert np.count_nonzero(d1(x)) > 100
    assert np.array_equal(d2(rotated), d1(x))
    assert np.array_equal(d1(mirrored), -d1(x))


def test_test_function_checks_one_dimensional(morse_n1):
    rep = run_test_function_checks(morse_n1)
    assert rep.method == "deterministic"
    est = rep.diag[1]
    assert est.value + 3.0 * est.error < 0.0
    assert rep.rayleigh_bound < 0.0
    defect = rep.weak_defect[(1, 1)]
    assert abs(defect.value) <= 3.0 * defect.error


def test_test_function_checks_evaluate_u_prime_once_per_form(monkeypatch, morse_n1):
    # the diagonal E_{s,L}(d_1, d_1) and the weak defect E_{s,L}(v^1, d_1)
    # are the two quadratic_form_L values, bit for bit.  d_1's profile is a
    # signed part of u', so each form evaluates u' once on each engine's
    # node sets: at its outer nodes, at every gap pair, and once on each far
    # piece's shared row, twice in all (three times when d_1's profile
    # evaluated u' on its own).  No coarse re-solve, so the defect carries
    # no truncation term.
    sol = morse_n1.solution
    d1 = build_test_functions(sol)[0]
    v1 = SeparableFunction(profile=sol.profile.derivative, angular="coordinate",
                           j=1, breaks=d1.breaks)
    diag = quadratic_form_L(sol, d1, d1)
    defect = quadratic_form_L(sol, v1, d1)
    engines = nonlocal_quadrature._engine_pair(1, sol.params.s, 1, d1.breaks,
                                               nonlocal_quadrature._FINE)

    points = {}  # engine -> u' points evaluated inside its forms
    forming = []
    derivative = RadialProfile.derivative
    form = nonlocal_quadrature.PairFormEngine.form

    def recorded(self, r):
        if forming:
            points[forming[-1]] = points.get(forming[-1], 0) + np.size(r)
        return derivative(self, r)

    def recorded_form(self, g, h=None):
        forming.append(self)
        try:
            return form(self, g, h)
        finally:
            forming.pop()

    monkeypatch.setattr(RadialProfile, "derivative", recorded)
    monkeypatch.setattr(nonlocal_quadrature.PairFormEngine, "form", recorded_form)
    monkeypatch.setattr(morse, "coarse_K", lambda K: None)
    rep = run_test_function_checks(morse_n1)
    assert rep.diag[1] == diag
    assert rep.weak_defect[(1, 1)] == defect
    assert set(points) == set(engines)
    for eng in engines:
        distinct = sum(width if shared is not None else rows.size * width
                       for rows, width, _, _, shared in eng._pieces)
        assert distinct < eng.n_pairs
        assert points[eng] == 2 * (eng.r_out.size + distinct)


def test_test_function_checks_monte_carlo_smoke(morse_n2):
    rep = run_test_function_checks(morse_n2, mc_samples=40_000, seed=7)
    assert rep.method == "monte-carlo"
    assert set(rep.diag) == {1, 2}
    assert (1, 2) in rep.cross
    assert all(np.isfinite(e.error) and e.error > 0.0 for e in rep.diag.values())
    # one estimate serves both d_j (rotation); the cross term is an exact zero
    assert rep.diag[2] == rep.diag[1]
    assert rep.cross[(1, 2)] == ValueWithError(0.0, 0.0)


def test_test_function_checks_dimension_limit():
    params = ProblemParams(3, 0.5)
    _, sol = _linear_solution(params, 16, 1, 1)
    with pytest.raises(DimensionUnsupported):
        run_test_function_checks(morse_index(sol))


@pytest.mark.parametrize("K", [2, 12])
def test_test_function_checks_reject_a_solution_without_nodes(K):
    # u' of a one-signed solution has one sign, so every d_j vanishes and
    # its Rayleigh quotient is 0/0
    sol = solve_radial_sign_changing(ProblemParams(1, 0.5),
                                     NonlinearitySpec(1.0, 3.0),
                                     target_nodes=0, K=K)
    rep = morse_index(sol, ell_max=1)
    assert rep.theorem_check == "not-applicable"
    with pytest.raises(InadmissibleBoundaryData, match="no sign change"):
        run_test_function_checks(rep)


def test_linearization_leaves_solution_profile_unchanged(monkeypatch, cubic_n1):
    # kink radii travel as sol.breaks; nothing is attached to the cached
    # profile.  The sectors ell = 0, 1 are assembled once, by morse_index;
    # the test-function checks read them from its report.
    sol = cubic_n1[2]
    assembled = []
    assemble = morse.assemble_linearized

    def counted(sol, ell, oracle_budget=None):
        assembled.append(ell)
        return assemble(sol, ell, oracle_budget=oracle_budget)

    monkeypatch.setattr(morse, "assemble_linearized", counted)
    rep = morse_index(sol, ell_max=1, oracle_budget=50_000)
    run_test_function_checks(rep)
    assert assembled == [0, 1]
    assert not hasattr(sol.profile, "breaks")
