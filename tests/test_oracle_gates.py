"""Each oracle gate fails loudly when its estimate is not a finite number.

A NaN compares False against every tolerance, so a gate written as
`abs(est - closed_form) > tol` would wave it through.
"""

import math

import pytest

from fracball import acceptance, morse, nonlocal_quadrature
from fracball.basis import RadialBasisSpec, assemble_radial_operator
from fracball.errors import OracleMismatch
from fracball.params import ProblemParams
from fracball.quadrature import ValueWithError
from fracball.semilinear import NonlinearitySpec, solve_radial_sign_changing
from fracball.spectrum import radial_family

NAN = ValueWithError(math.nan, math.nan)


def _nan_oracle(*args, **kwargs):
    return NAN


def test_stiffness_gate_rejects_nan(monkeypatch):
    monkeypatch.setattr(nonlocal_quadrature, "stiffness_entry_oracle", _nan_oracle)
    with pytest.raises(OracleMismatch):
        assemble_radial_operator(RadialBasisSpec(2, 0.5, 4), oracle_budget=50_000)


def test_memoised_sector_still_gated(monkeypatch):
    params = ProblemParams(2, 0.5)
    radial_family(params, 0, 4)
    monkeypatch.setattr(nonlocal_quadrature, "stiffness_entry_oracle", _nan_oracle)
    with pytest.raises(OracleMismatch):
        radial_family(params, 0, 4, oracle_budget=50_000)


def test_acceptance_oracle_gate_rejects_nan(monkeypatch):
    monkeypatch.setattr(acceptance, "stiffness_entry_oracle", _nan_oracle)
    res = acceptance.oracle_gate()
    assert not res.passed
    assert res.detail["worst"]["rel"] == math.inf


def test_linearized_block_gate_rejects_nan(monkeypatch, cubic_n1):
    # the block gate checks against the linearized form, not the stiffness
    # oracle, so that is what returns NaN here
    params, _, sol = cubic_n1
    monkeypatch.setattr(morse, "quadratic_form_L", _nan_oracle)
    with pytest.raises(OracleMismatch):
        morse.assemble_linearized(params, sol, 0, sol.spec.K)


def test_block_gate_runs_for_each_solution(monkeypatch):
    # linear(5) and linear(50) return the same eigenvector coefficients but
    # different linearized potentials, so each assembly is gated
    gated = []
    form = morse.quadratic_form_L

    def counted(sol, u, v):
        gated.append(sol.nonlin.lam)
        return form(sol, u, v)

    monkeypatch.setattr(morse, "quadratic_form_L", counted)
    params = ProblemParams(2, 0.5)
    for lam in (5.0, 50.0):
        sol = solve_radial_sign_changing(params, NonlinearitySpec("linear", lam),
                                         K=12)
        morse.assemble_linearized(params, sol, 0, sol.spec.K)
    assert gated == [5.0, 50.0]


def test_value_with_error_finite():
    assert ValueWithError(1.0, 0.0).finite
    assert not ValueWithError(1.0, math.inf).finite
    assert not NAN.finite
