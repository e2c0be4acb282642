import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracball.basis import (RadialBasisSpec, RadialProfile,
                            assemble_radial_operator, basis_matrix,
                            dyda_factor, jacobi_at_one, mass_matrix,
                            solve_radial_eigs, stiffness_matrix)


def test_stiffness_is_positive_diagonal():
    spec = RadialBasisSpec(2, 0.6, 8)
    A = stiffness_matrix(spec)
    assert np.allclose(A, np.diag(np.diag(A)))
    assert np.all(np.diag(A) > 0.0)


def test_mass_symmetric_positive_definite():
    spec = RadialBasisSpec(3, 0.4, 10)
    B = mass_matrix(spec)
    assert np.allclose(B, B.T, atol=1e-14 * np.abs(B).max())
    assert np.linalg.eigvalsh(B).min() > 0.0


def test_basis_vanishes_outside_ball():
    spec = RadialBasisSpec(2, 0.5, 6)
    vals = basis_matrix(spec, np.array([0.5, 1.0, 1.5]))
    assert np.all(vals[:, 1:] == 0.0)
    assert np.any(vals[:, 0] != 0.0)


def test_first_eigenvalue_one_dimensional_half_laplacian():
    # K = 24 regression value, and agreement with the K -> inf limit
    # 1.1577738836977 for the half-Laplacian on the unit interval.
    res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(1, 0.5, 24)))
    lam1 = float(res.eigenvalues[0])
    assert lam1 == pytest.approx(1.157773883731485, rel=1e-10)
    assert lam1 == pytest.approx(1.1577738836977, abs=5e-8)
    assert float(res.eigenvalues[1]) == pytest.approx(4.3168010666, abs=5e-8)


def test_eigenvectors_mass_orthonormal():
    pair = assemble_radial_operator(RadialBasisSpec(2, 0.7, 12))
    res = solve_radial_eigs(pair)
    G = res.eigenvectors.T @ pair.B @ res.eigenvectors
    assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)


def test_convergence_estimates_shrink_with_K():
    lams = {}
    for K in (12, 18, 24):
        res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(2, 0.5, K)))
        lams[K] = float(res.eigenvalues[0])
    assert abs(lams[24] - lams[18]) < abs(lams[18] - lams[12])


def test_constant_potential_shifts_eigenvalues_exactly():
    spec = RadialBasisSpec(2, 0.5, 10)
    base = solve_radial_eigs(assemble_radial_operator(spec))
    shift = 1.75
    shifted = solve_radial_eigs(
        assemble_radial_operator(spec, potential=lambda r: shift * np.ones_like(r)))
    assert np.allclose(shifted.eigenvalues, base.eigenvalues - shift, atol=1e-9)


def test_assembly_oracle_gate_passes():
    assemble_radial_operator(RadialBasisSpec(2, 0.5, 6), oracle_budget=50_000)


def test_boundary_ratio_matches_pointwise_limit():
    spec = RadialBasisSpec(2, 0.6, 8)
    c = np.array([1.0, -0.5, 0.25, 0.0, 0.1, 0.0, 0.0, 0.0])
    prof = RadialProfile(spec, c)
    exact = 2.0**spec.s * float(c @ jacobi_at_one(spec.K, spec.s))
    assert prof.boundary_ratio() == pytest.approx(exact, rel=1e-14)
    r = 1.0 - 1e-7
    # u(r)/(1-r)^s -> psi0(1) * ... with (1-r^2)^s = (1-r)^s (1+r)^s
    limit = float(prof(np.array([r]))[0]) / (1.0 - r) ** spec.s
    assert limit == pytest.approx(prof.boundary_ratio(), rel=1e-5)


def test_second_radial_eigenfunction_has_one_node():
    res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(3, 0.5, 20)))
    prof = RadialProfile(res.spec, res.eigenvectors[:, 1])
    roots = prof.sign_change_radii()
    assert prof.nodal_count() == 1 and len(roots) == 1
    assert 0.0 < roots[0] < 1.0
    assert abs(float(prof(np.array([roots[0]]))[0])) < 1e-10


def test_derivative_profile_matches_finite_differences():
    res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(2, 0.75, 16)))
    prof = RadialProfile(res.spec, res.eigenvectors[:, 1])
    du = prof.derivative
    h = 1e-6
    for r in (0.2, 0.5, 0.8):
        fd = (float(prof(np.array([r + h]))[0]) - float(prof(np.array([r - h]))[0])) / (2 * h)
        assert float(du(np.array([r]))[0]) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.floats(0.1, 0.9), st.integers(0, 5))
def test_dyda_factor_positive_increasing(d, s, n):
    spec = RadialBasisSpec(d, s, 8)
    mu = dyda_factor(spec)
    assert np.all(mu > 0.0)
    assert np.all(np.diff(mu) > 0.0)
