import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracball import morse, nonlocal_quadrature
from fracball.basis import (RadialBasisSpec, RadialProfile, basis_matrix,
                            dyda_factor, jacobi_all, jacobi_moments,
                            jacobi_norm_radial, radial_weighted_integrals,
                            sector_spec)
from fracball.errors import (DimensionUnsupported, InadmissibleBoundaryData,
                             TruncationUnsafe)
from fracball.morse import (assemble_linearized, build_test_functions,
                            first_linearized_eigen, morse_index)
from fracball.morse import test_function_checks as run_test_function_checks
from fracball.nonlocal_quadrature import (SeparableFunction, angular_factor,
                                          bilinear_form,
                                          linearized_potential_form,
                                          quadratic_form_L)
from fracball.params import ProblemParams
from fracball.quadrature import ValueWithError, kink_rule
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


def _warm_ladder(params, nonlin, Ks):
    """One-node solutions at each K in turn, each warm-started from the
    zero-padded coefficients of the one before."""
    sol = None
    for K in Ks:
        init = None
        if sol is not None:
            init = np.zeros(K)
            init[:sol.spec.K] = sol.coefficients
        sol = solve_radial_sign_changing(params, nonlin, target_nodes=1, K=K,
                                         init=init)
        yield sol


def test_morse_count_does_not_grow_with_K():
    # with a fixed 14-node rule for the potential matrix the count read
    # 3, 5 and 6 here: spurious radial negatives from under-integrated high
    # modes
    counts = []
    for sol in _warm_ladder(ProblemParams(1, 0.35), NonlinearitySpec(1.0, 3.0),
                            (48, 96, 192)):
        rep = escalate_ell(lambda ell_max: morse_index(sol, ell_max=ell_max))
        counts.append((rep.total_index, rep.marginal_total))
    assert counts == [(3, 0)] * 3


@pytest.mark.parametrize("K", [48, 192])
@pytest.mark.parametrize("s", [0.2, 0.6, 0.9])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_potential_matrix_matches_a_rule_with_twice_the_nodes(N, s, K):
    # measured at most 2.0e-14 of the largest entry; a fixed 14-node rule
    # misses by 3.0e-2 at N = 2, s = 0.5, K = 192.  p = 3 is supercritical
    # at s = 0.2 for N = 2 and 3, and p = 2.1 puts the sharpest kink,
    # |u|^0.1, at the break.
    nonlin = NonlinearitySpec(1.0, 2.1 if s == 0.2 else 3.0)
    Ks = (48,) if K == 48 else (48, 96, 192)
    *_, sol = _warm_ladder(ProblemParams(N, s), nonlin, Ks)
    r, w = kink_rule(sol.breaks, 2 * (K + 4), 18, 0.3)
    pot = sol.linearized_potential(r)
    for ell in (0, 1):
        spec = sector_spec(sol.params, ell, K)
        phi = basis_matrix(spec, r)
        fine = (phi * (w * pot * r ** (spec.d - 1))[None, :]) @ phi.T
        M = radial_weighted_integrals(spec, sol.linearized_potential, sol.breaks)
        assert np.abs(M - fine).max() <= 1e-12 * np.abs(fine).max(), ell


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


def _whole_array_reference(fn, x):
    """fn(x) as profile(|x|) * angular factor on the whole array."""
    r = np.linalg.norm(x, axis=1)
    vals = np.asarray(fn.profile(r), dtype=float)
    if fn.ell == 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = vals * np.where(r > 0.0, x[:, fn.j - 1] / np.where(r > 0, r, 1.0), 0.0)
    return vals


def _at_radii(radii, rng):
    phi = 2.0 * np.pi * rng.random(radii.size)
    return np.column_stack([radii * np.cos(phi), radii * np.sin(phi)])


@pytest.mark.parametrize("npts", [64, 61, 40_000, 40_003])
@pytest.mark.parametrize("angular", ["constant", "coordinate"])
@pytest.mark.parametrize("part", ["d_j", "d_j without support", "opposite"])
def test_separable_function_equals_the_whole_array_bit_for_bit(
        cubic_n2, rng, part, angular, npts):
    # the profile is evaluated only below end = support_radius (or 1), on
    # the inside points alone when npts is a multiple of eight; every value
    # must still be the whole array's, zeros and their signs included.
    # The profiles are d_j's signed part of u', with and without its
    # support radius r_*, and the opposite part, which reaches r = 1.
    # Points at r = 0, inside, at least 1e-9 past r_* (where d_j's part is
    # exactly 0; Brent's root may sit a hair off u' = 0) and at r >= 1;
    # then sets with one to three inside points
    _, _, sol = cubic_n2
    r_star = build_test_functions(sol)[0].support_radius
    positive = (sol.psi0_at_1 >= 0.0) == (part != "opposite")
    fn = SeparableFunction(
        profile=nonlocal_quadrature.SignedPart(sol.profile.derivative, positive),
        angular=angular, support_radius=r_star if part == "d_j" else None)
    quarter = npts // 4
    radii = np.concatenate([
        np.zeros(3), rng.uniform(0.0, r_star, quarter),
        rng.uniform(r_star + 1e-9, 1.0, quarter), r_star + 1e-9 * (1.0 + rng.random(3)),
        rng.uniform(1.0, 1.5, npts - 2 * quarter - 6)])
    x = _at_radii(rng.permutation(radii), rng)
    assert fn(x).tobytes() == _whole_array_reference(fn, x).tobytes()
    for size in (13, 16):
        for inside in (1, 2, 3):
            end = fn.support_radius or 1.0
            radii = np.concatenate([rng.uniform(0.1, 0.5, inside),
                                    rng.uniform(end + 1e-9, 1.5, size - inside)])
            x = _at_radii(rng.permutation(radii), rng)
            assert fn(x).tobytes() == _whole_array_reference(fn, x).tobytes()


# _mc_quadratic_pair(d1, d1, params, M, 20240824) at morse-certify's N = 2
# point, at one BLAS thread, for M = 20 000 and for morse-certify's 1 M,
# whose quadrants take more than one 200 000-sample chunk; the value and
# error as float.hex
_MC_STREAM = """
from fracball.morse import _mc_quadratic_pair, build_test_functions
from fracball.params import ProblemParams
from fracball.semilinear import NonlinearitySpec, solve_radial_sign_changing
params = ProblemParams(2, 0.7)
sol = solve_radial_sign_changing(params, NonlinearitySpec(1.0, 3.0),
                                 target_nodes=1, K=12)
d1 = build_test_functions(sol)[0]
for M in (20_000, 1_000_000):
    est = _mc_quadratic_pair(d1, d1, params, M, 20240824)
    print(est.value.hex(), est.error.hex())
"""


def test_monte_carlo_stream_is_pinned():
    # the same draws in the same order and the same chunks give the same
    # estimate bit for bit; reordering a draw or resizing a chunk moves it
    env = {"PYTHONPATH": str(Path(nonlocal_quadrature.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _MC_STREAM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0x1.b8fc79a345508p+14", "0x1.81567c0ca0ce8p+10",
                                   "0x1.bf170c0395b35p+14", "0x1.ae07a8c691b38p+7"]


def test_test_function_checks_one_dimensional(morse_n1):
    rep = run_test_function_checks(morse_n1)
    assert rep.method == "series"
    est = rep.diag[1]
    assert est.value + 3.0 * est.error < 0.0
    assert rep.rayleigh_bound < 0.0
    defect = rep.weak_defect[(1, 1)]
    assert abs(defect.value) <= 3.0 * defect.error


def test_test_function_checks_at_n1_build_no_engine_and_call_no_form(
        monkeypatch, morse_n1):
    # the diagonal comes from the series and the weak defect from
    # (-Delta)^s u_K in closed form, the coarse re-solve's included: no
    # oracle engine is looked up, built or formed on
    def refused(*args, **kwargs):
        raise AssertionError("oracle engine used")

    monkeypatch.setattr(nonlocal_quadrature, "get_engine", refused)
    monkeypatch.setattr(nonlocal_quadrature.PairFormEngine, "__init__", refused)
    monkeypatch.setattr(nonlocal_quadrature.PairFormEngine, "form", refused)
    rep = run_test_function_checks(morse_n1)
    assert rep.method == "series"
    # the coarse re-solve ran: its truncation term is in the error
    assert rep.weak_defect[(1, 1)].error > 1e-6


def _cubic_solution(N, s, K):
    return solve_radial_sign_changing(ProblemParams(N, s),
                                      NonlinearitySpec(1.0, 3.0),
                                      target_nodes=1, K=K)


# one-node cubic solutions: four morse points, the K = 12 pair of the
# benchmark's morse runs, and the cubic_n1 / cubic_n2 fixtures' points
_KERNEL_FREE_CASES = [(1, 0.3, 24), (2, 0.5, 16), (3, 0.75, 24), (2, 0.7, 48),
                      (1, 0.9, 12), (2, 0.7, 12), (1, 0.75, 24)]


@pytest.mark.parametrize("N,s,K", _KERNEL_FREE_CASES)
def test_kernel_free_energies_match_the_oracle(N, s, K):
    # the Parseval series of E_s(d_1, d_1) and the closed-form weak energy
    # E_s(v^1, d_1) against bilinear_form, within three times the sum of
    # their error estimates
    sol = _cubic_solution(N, s, K)
    d1 = build_test_functions(sol)[0]
    v1 = SeparableFunction(profile=sol.profile.derivative, angular="coordinate",
                           j=1, breaks=d1.breaks)
    for fast, oracle in ((morse._diagonal_series(d1, sol.params),
                          bilinear_form(d1, d1, sol.params)),
                         (morse._weak_energy(sol, d1),
                          bilinear_form(v1, d1, sol.params))):
        assert fast.error < oracle.value * 1e-4
        assert abs(fast.value - oracle.value) <= 3.0 * (fast.error + oracle.error)


def test_series_matches_the_oracle_at_the_n2_morse_point():
    # E_{s,L}(d_1, d_1) at N = 2, s = 0.7, K = 12, p = 3: the value the
    # N = 2 Monte-Carlo diagonal estimates
    sol = _cubic_solution(2, 0.7, 12)
    d1 = build_test_functions(sol)[0]
    series = (morse._diagonal_series(d1, sol.params)
              - linearized_potential_form(sol, d1, d1))
    oracle = quadratic_form_L(sol, d1, d1)
    assert abs(series.value - oracle.value) <= 3.0 * (series.error + oracle.error)
    assert round(oracle.value, 1) == -803.2


@pytest.mark.parametrize("N,s,K", [(1, 0.75, 24), (2, 0.5, 16)])
def test_series_error_covers_a_four_times_longer_sum(monkeypatch, N, s, K):
    sol = _cubic_solution(N, s, K)
    d1 = build_test_functions(sol)[0]
    short = morse._diagonal_series(d1, sol.params)
    # the longer sum needs moments of four times the degree, so four times
    # the panels (unresolved moments trip the rate guard)
    monkeypatch.setattr(morse, "_SERIES_TERMS", 4 * morse._SERIES_TERMS)
    monkeypatch.setattr(morse, "_SERIES_PANELS", 4 * morse._SERIES_PANELS)
    long = morse._diagonal_series(d1, sol.params)
    assert long.error < short.error
    assert abs(short.value - long.value) <= short.error


@pytest.mark.parametrize("N,s,K", [(1, 0.9, 12), (2, 0.5, 16)])
def test_series_moments_match_a_rule_with_twice_the_panels(monkeypatch, N, s, K):
    sol = _cubic_solution(N, s, K)
    d1 = build_test_functions(sol)[0]
    spec = RadialBasisSpec(N + 2, s, morse._SERIES_TERMS)

    def moments():
        r, w = morse._series_rule(d1)
        return jacobi_moments(spec.K, spec.alpha, spec.beta, 2.0 * r**2 - 1.0,
                              w * d1.profile(r) * r**N)

    m = moments()
    monkeypatch.setattr(morse, "_SERIES_PANELS", 2 * morse._SERIES_PANELS)
    m2 = moments()
    assert np.abs(m - m2).max() <= 1e-12 * np.abs(m).max()


@pytest.mark.parametrize("N,s", [(1, 0.75), (2, 0.6), (3, 0.9)])
def test_series_is_exact_on_basis_functions_up_to_the_boundary(N, s):
    # w/r = sum_n c_n phi_n in dimension N + 2 makes the series finite,
    # E_s = angular_factor(N, 1) sum_n mu_n g_n c_n^2, and w ~ (1 - r)^s
    # reaches r = 1, so the rule runs to the boundary without a support
    # radius
    spec = RadialBasisSpec(N + 2, s, 6)
    c = np.array([0.3, -1.0, 0.5, 0.0, 0.2, -0.1])
    prof = RadialProfile(spec, c)
    fn = SeparableFunction(profile=lambda r: r * prof(r), angular="coordinate")
    est = morse._diagonal_series(fn, ProblemParams(N, s))
    exact = angular_factor(N, 1) * float(np.sum(c**2 * dyda_factor(spec)
                                                * jacobi_norm_radial(spec)))
    assert est.value == pytest.approx(exact, rel=1e-13)
    assert est.error <= 1e-12 * exact


def test_series_without_a_support_radius_integrates_zeros_beyond_it(cubic_n1):
    # d_1 vanishes beyond its support radius, so the rule that runs on to
    # r = 1 finds the same series
    d1 = build_test_functions(cubic_n1[2])[0]
    open_d1 = dataclasses.replace(d1, support_radius=None)
    est = morse._diagonal_series(open_d1, cubic_n1[0])
    want = morse._diagonal_series(d1, cubic_n1[0])
    assert est.value == pytest.approx(want.value, rel=1e-14)
    assert est.error == pytest.approx(want.error, rel=1e-8)


def test_series_rate_guard_raises_when_the_tail_decays_off_rate(monkeypatch,
                                                                 cubic_n1):
    # terms that decay like M^{-(3-2s)} times M^{1/2}: the dyadic increments
    # then fall by 2^{5/2-2s}, off 2^{3-2s} by far more than 10 %
    d1 = build_test_functions(cubic_n1[2])[0]
    params = cubic_n1[0]
    morse._diagonal_series(d1, params)
    dyda = morse.dyda_factor
    monkeypatch.setattr(morse, "dyda_factor",
                        lambda spec: dyda(spec) * np.sqrt(np.arange(1.0, spec.K + 1)))
    with pytest.raises(TruncationUnsafe, match="series increments"):
        morse._diagonal_series(d1, params)


def test_jacobi_moments_equal_the_full_matrix_sums(rng):
    x = rng.uniform(-1.0, 1.0, 300)
    w = rng.standard_normal(300)
    for K, a, b in ((1, 0.3, 0.5), (2, 0.3, 0.5), (40, 0.75, 1.5)):
        want = jacobi_all(K, a, b, x) @ w
        assert np.allclose(jacobi_moments(K, a, b, x, w), want,
                           rtol=1e-12, atol=1e-12 * np.abs(want).max())


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
