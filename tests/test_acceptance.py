"""End-to-end verification battery.

Each test asserts one criterion of the campaign that `fracball verify-all`
runs, at the stated tolerances.  The nonlinear solutions are shared through
module-scoped fixtures so each problem is solved once.
"""

import pytest

from fracball import acceptance as acc


@pytest.fixture(scope="module")
def nonlinear_large_s():
    return acc.solve_nonlinear_case("A1")


@pytest.fixture(scope="module")
def sign_reports(nonlinear_large_s):
    _, solutions = nonlinear_large_s
    return acc.test_function_signs(solutions)


def test_criterion_01_stiffness_entries_match_kernel_oracle():
    res = acc.oracle_gate()
    assert res.passed, res.detail


def test_criterion_02_second_eigenvalue_ordering_sweep():
    res = acc.conjecture_sweep()
    assert res.passed, res.detail


def test_criterion_03_first_eigenvalue_monotone_in_dimension():
    res = acc.monotonicity()
    assert res.passed, res.detail


def test_criterion_04_linear_family_morse_crosscheck():
    res = acc.linear_morse_crosscheck()
    assert res.passed, res.detail


def test_criterion_05_nonlinear_solutions_large_s(nonlinear_large_s):
    res, _ = nonlinear_large_s
    assert res.passed, res.detail


def test_criterion_05_nonlinear_solutions_small_s():
    # At s = 1/2 a fixed K = 24 under-resolves these solutions (Pohozaev
    # residual 0.25 at N = 2); the residual falls as K grows, so the case
    # raises K until the coefficient tail is resolved (48 or 96 here).
    res, _ = acc.solve_nonlinear_case("A2")
    assert res.passed, res.detail


def test_criterion_06_first_linearized_eigenvalue(nonlinear_large_s):
    _, solutions = nonlinear_large_s
    res = acc.first_eigen_negative(solutions)
    assert res.passed, res.detail


def test_criterion_07_test_function_sign_tests(sign_reports):
    res, _ = sign_reports
    assert res.passed, res.detail


def test_criterion_08_weak_identity_defect(sign_reports):
    _, reports = sign_reports
    res = acc.weak_identity(reports)
    assert res.passed, res.detail


def test_criterion_09_energy_gradient_vs_finite_differences(nonlinear_large_s):
    _, solutions = nonlinear_large_s
    res = acc.gradient_check(solutions)
    assert res.passed, res.detail


def test_criterion_09_fails_without_the_n2_solution():
    # criterion 09 reads criterion 05's N = 2 solution and solves nothing
    res = acc.gradient_check({})
    assert not res.passed
    assert res.detail == {"N": 2, "error": "no converged solution"}


def test_criterion_10_reports_byte_identical():
    res = acc.determinism()
    assert res.passed, res.detail
