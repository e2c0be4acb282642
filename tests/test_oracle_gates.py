"""Each oracle gate fails loudly when its estimate is not a finite number.

A NaN compares False against every tolerance, so a gate written as
`abs(est - closed_form) > tol` would wave it through.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fracball import acceptance, morse, nonlocal_quadrature
from fracball.basis import RadialBasisSpec, RadialProfile
from fracball.errors import OracleMismatch
from fracball.nonlocal_quadrature import stiffness_oracle_gate
from fracball.params import ProblemParams
from fracball.quadrature import ValueWithError
from fracball.semilinear import NonlinearitySpec, solve_radial_sign_changing
from fracball.spectrum import radial_family

NAN = ValueWithError(math.nan, math.nan)


def _nan_oracle(*args, **kwargs):
    return NAN


# every place a sector is built runs the stiffness gate
GATED = {
    "stiffness_oracle_gate": lambda sol: stiffness_oracle_gate(
        RadialBasisSpec(2, 0.5, 4), 50_000),
    "radial_family": lambda sol: radial_family(ProblemParams(2, 0.5), 0, 4,
                                               oracle_budget=50_000),
    "solve_radial_sign_changing": lambda sol: solve_radial_sign_changing(
        ProblemParams(2, 0.5), NonlinearitySpec(1.0, 3.0), K=12,
        oracle_budget=50_000),
    # the N = 2 solution's ell = 2 sector, d = 6, which has no block gate
    "assemble_linearized": lambda sol: morse.assemble_linearized(
        sol, 2, oracle_budget=50_000),
}


@pytest.mark.parametrize("entry", sorted(GATED))
def test_stiffness_gate_rejects_nan(monkeypatch, cubic_n2, entry):
    monkeypatch.setattr(nonlocal_quadrature, "stiffness_entry_oracle", _nan_oracle)
    with pytest.raises(OracleMismatch, match="stiffness entry"):
        GATED[entry](cubic_n2[2])


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
    sol = cubic_n1[2]
    monkeypatch.setattr(nonlocal_quadrature, "quadratic_form_L", _nan_oracle)
    with pytest.raises(OracleMismatch):
        morse.assemble_linearized(sol, 0)


def test_block_gate_runs_for_each_solution(monkeypatch):
    # linear(5) and linear(50) return the same eigenvector coefficients but
    # different linearized potentials, so each assembly is gated
    gated = []
    form = nonlocal_quadrature.quadratic_form_L

    def counted(sol, u, v):
        gated.append(sol.nonlin.lam)
        return form(sol, u, v)

    monkeypatch.setattr(nonlocal_quadrature, "quadratic_form_L", counted)
    params = ProblemParams(2, 0.5)
    for lam in (5.0, 50.0):
        sol = solve_radial_sign_changing(params, NonlinearitySpec(lam),
                                         K=12)
        morse.assemble_linearized(sol, 0)
    assert gated == [5.0, 50.0]


class _Trial(Exception):
    """Carries the block gate's trial function out of quadratic_form_L."""


@pytest.fixture(scope="module")
def gate_points():
    """Radii the block gate's trial is evaluated at: r = 0, r >= 1, a grid,
    and the outer and inner nodes of an engine like the gate's, per ell."""
    points = {}
    for ell in (0, 1):
        eng = nonlocal_quadrature.PairFormEngine(
            2, 0.5, ell, (0.6,), *nonlocal_quadrature._LADDER[1])
        points[ell] = np.concatenate(([0.0, 1.0, 1.5, 2.0],
                                      np.linspace(0.0, 1.0, 101),
                                      eng.r_out, eng.rho))
    return points


@pytest.mark.parametrize("K", [2, 12, 48, 192])
@pytest.mark.parametrize("ell", [0, 1])
def test_block_gate_phi0_is_the_unit_profile_bit_for_bit(monkeypatch,
                                                         gate_points, ell, K):
    # the gate's phi_0 is the closed form (1 - r^2)^s; it must equal the
    # profile of the unit coefficient vector e_0, whose sum is 1.0 exactly
    def trial(sol, v, w):
        raise _Trial(v)

    monkeypatch.setattr(nonlocal_quadrature, "quadratic_form_L", trial)
    spec = RadialBasisSpec(2 + 2 * ell, 0.5, K)
    pair = SimpleNamespace(spec=spec, A=np.zeros((1, 1)))
    with pytest.raises(_Trial) as info:
        nonlocal_quadrature.linearized_block_gate(
            SimpleNamespace(params=ProblemParams(2, 0.5)), ell, pair)
    r = gate_points[ell]
    phi0 = RadialProfile(spec, np.eye(K)[0])(r)
    got = info.value.args[0].profile(r)
    assert np.array_equal(got, phi0 if ell == 0 else r * phi0)


def test_value_with_error_finite():
    assert ValueWithError(1.0, 0.0).finite
    assert not ValueWithError(1.0, math.inf).finite
    assert not NAN.finite
