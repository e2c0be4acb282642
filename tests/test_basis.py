import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracball.basis import (RadialBasisSpec, RadialOperatorPair,
                            RadialProfile, _centre_positive,
                            assemble_radial_operator, basis_matrix,
                            dyda_factor, galerkin_rule, jacobi_all,
                            jacobi_at_one, jacobi_deriv_all, mass_matrix,
                            radial_weighted_integrals, solve_radial_eigs,
                            stiffness_matrix)
from fracball.errors import MassNotPD, PotentialUnbounded
from fracball.nonlocal_quadrature import stiffness_oracle_gate
from fracball.params import sphere_area
from fracball.quadrature import kink_panels, kink_rule


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


def _generalized_eigvals_mp(A, B, dps=30):
    """Eigenvalues of the float pencil (A, B) in dps-digit arithmetic:
    Cholesky B = L L^T, then the symmetric L^{-1} A L^{-T}."""
    import mpmath

    with mpmath.workdps(dps):
        Li = mpmath.inverse(mpmath.cholesky(mpmath.matrix(B.tolist())))
        M = Li * mpmath.matrix(A.tolist()) * Li.T
        M = (M + M.T) / 2
        return np.array(sorted(float(v) for v in mpmath.eigsy(M, eigvals_only=True)))


def test_potential_free_sector_matches_a_30_digit_solve():
    # the scaled form's eigenvalues against the same float (A, B) solved in
    # 30 digits; a Cholesky of B (condition about 1e3 here) leaves 9e-13
    pair = assemble_radial_operator(RadialBasisSpec(6, 0.9, 48))
    ref = _generalized_eigvals_mp(pair.A, pair.B)
    got = solve_radial_eigs(pair).eigenvalues
    assert np.abs(got[:9] / ref[:9] - 1.0).max() <= 1e-14


def test_potential_free_eigenvectors_solve_the_pencil():
    pair = assemble_radial_operator(RadialBasisSpec(5, 0.8, 32))
    assert pair.diagonal is not None
    res = solve_radial_eigs(pair)
    X, lam = res.eigenvectors, res.eigenvalues
    assert np.all(np.diff(lam) > 0.0)
    G = X.T @ pair.B @ X
    assert np.abs(G - np.eye(pair.spec.K)).max() <= 1e-12
    R = pair.A @ X - (pair.B @ X) * lam
    scale = np.abs(pair.A @ X).max(axis=0)
    assert np.all(np.abs(R).max(axis=0) <= 1e-12 * scale)
    # the same eigenvectors, signs included, as the Cholesky solve of the
    # same pencil with no diagonal recorded
    vec = solve_radial_eigs(RadialOperatorPair(pair.spec, pair.A, pair.B)).eigenvectors
    assert np.abs(X - vec).max() <= 1e-8 * np.abs(vec).max()


def test_potential_free_sector_computes_no_eigenvectors(monkeypatch):
    # the estimates come from eigenvalues alone; NumPy's eigh runs only when
    # the eigenvectors are read
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(a) or eigh(*a, **k))
    res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(3, 0.5, 24)))
    assert calls == [] and np.all(np.isfinite(res.convergence[:22]))
    res.eigenvectors
    assert len(calls) == 1


def test_centre_sign_falls_back_to_the_largest_coefficient():
    # d = 3: P_0(-1) = 1 and P_1(-1) = -1.5, so (1.5, 1, 0, 0) has u(0) = 0
    # exactly and its sign goes by its largest coefficient; (1, 1, 0, 0) has
    # u(0) = -0.5 and is negated
    spec = RadialBasisSpec(3, 0.5, 4)
    X = np.array([[-1.5, 1.0], [-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(_centre_positive(spec, X), [[1.5, -1.0], [1.0, -1.0],
                                                      [0.0, 0.0], [0.0, 0.0]])


def test_potential_pair_keeps_the_generalized_solve():
    # a pair with a potential is solved as the pencil itself: its eigenvalues
    # against those of B^{-1} A from a nonsymmetric solve (measured 4e-16 of
    # the largest; B's condition number is 155), its eigenvectors
    # B-orthonormal with a residual at rounding
    spec = RadialBasisSpec(3, 0.6, 20)
    pair = assemble_radial_operator(spec, potential=lambda r: 3.0 - r**2)
    assert pair.diagonal is None
    res = solve_radial_eigs(pair)
    lam, X = res.eigenvalues, res.eigenvectors
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(pair.B, pair.A)).real)
    assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(X.T @ pair.B @ X - np.eye(spec.K)).max() <= 1e-12
    R = pair.A @ X - (pair.B @ X) * lam
    assert np.all(np.abs(R).max(axis=0) <= 1e-12 * np.abs(pair.A @ X).max(axis=0))


def test_potential_free_indefinite_mass_raises_mass_not_pd():
    spec = RadialBasisSpec(2, 0.5, 16)
    a = assemble_radial_operator(spec).diagonal
    pair = RadialOperatorPair(spec, np.diag(a), -mass_matrix(spec), diagonal=a)
    with pytest.raises(MassNotPD):
        solve_radial_eigs(pair)


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


@pytest.mark.parametrize("K,breaks", [(48, ()), (48, (0.5,)), (192, ())])
def test_galerkin_rule_caps_each_panel_at_the_fixed_order(K, breaks):
    # kink_rule's panels, each with its own Gauss order: none above the
    # K + 4 the fixed law gave every panel, and the widest panel at it
    lo, hi = kink_panels(breaks, 18, 0.3)
    r, w = galerkin_rule(K, breaks)
    per_panel = np.diff(np.searchsorted(r, np.append(lo, hi[-1])))
    assert per_panel.sum() == r.size
    assert per_panel.max() == per_panel[np.argmax(hi - lo)] == max(12, K + 4)


@pytest.mark.parametrize("K,share", [(48, 3), (192, 6)])
@pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
def test_galerkin_rule_needs_a_fraction_of_the_fixed_law(K, share, b):
    fixed = kink_rule((b,), max(12, K + 4), 18, 0.3)
    assert share * galerkin_rule(K, (b,)).nodes.size <= fixed.nodes.size


@pytest.mark.parametrize("d,s", [(1, 0.2), (3, 0.9), (5, 0.5)])
def test_galerkin_rule_integrates_the_mass_matrix(d, s):
    # the closed-form mass matrix; measured at most 1.3e-12 of its
    # largest entry (d = 1, s = 0.2), as on the fixed law's rule
    spec = RadialBasisSpec(d, s, 192)
    r, w = galerkin_rule(spec.K, (0.5,))
    phi = basis_matrix(spec, r)
    B = sphere_area(d) * (phi * (w * r ** (d - 1))[None, :]) @ phi.T
    exact = mass_matrix(spec)
    assert np.abs(B - exact).max() <= 1e-11 * np.abs(exact).max()


def test_assembly_oracle_gate_passes():
    stiffness_oracle_gate(RadialBasisSpec(2, 0.5, 6), 50_000)


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


def test_non_finite_potential_raises_potential_unbounded():
    spec = RadialBasisSpec(2, 0.5, 16)
    with pytest.raises(PotentialUnbounded):
        radial_weighted_integrals(spec, lambda r: np.full_like(r, np.inf))


def test_indefinite_mass_raises_mass_not_pd():
    spec = RadialBasisSpec(2, 0.5, 16)
    pair = RadialOperatorPair(spec, stiffness_matrix(spec), -mass_matrix(spec))
    with pytest.raises(MassNotPD):
        solve_radial_eigs(pair)


def test_second_radial_eigenfunction_has_one_node():
    res = solve_radial_eigs(assemble_radial_operator(RadialBasisSpec(3, 0.5, 20)))
    prof = RadialProfile(res.spec, res.eigenvectors[:, 1])
    roots = prof.sign_change_radii()
    assert len(roots) == 1
    assert 0.0 < roots[0] < 1.0
    assert abs(float(prof(np.array([roots[0]]))[0])) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_poly_at_equals_the_array_evaluation(d):
    # the root finder's scalar recurrence reproduces poly_part bit for bit.
    # x ** 2 in place of x * x changes t at about 1 radius in 2000, so most
    # radii go to the cheap small K; the reference costs K NumPy steps
    rng = np.random.default_rng(d)
    for s in (0.1, 0.25, 0.5, 0.6, 0.75, 0.9):
        for K in (2, 3, 12, 48, 192):
            prof = RadialProfile(RadialBasisSpec(d, s, K), rng.standard_normal(K))
            for x in rng.random(100 if K <= 12 else 10).tolist():
                assert prof.poly_at(x) == float(prof.poly_part(x)[0]), (s, K, x)


def _jacobi_all_allocating(K, a, b, x):
    """The recurrence as written before it ran in place: one new array per
    operation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.empty((K, x.size))
    P[0] = 1.0
    if K > 1:
        P[1] = 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    for n in range(2, K):
        h = 2.0 * n + a + b
        c1 = 2.0 * n * (n + a + b) * (h - 2.0)
        c2 = (h - 1.0) * (h * (h - 2.0) * x + a * a - b * b)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * h
        P[n] = (c2 * P[n - 1] - c3 * P[n - 2]) / c1
    return P


def _jacobi_deriv_all_allocating(K, a, b, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    D = np.zeros((K, x.size))
    if K > 1:
        shifted = _jacobi_all_allocating(K - 1, a + 1.0, b + 1.0, x)
        n = np.arange(1, K, dtype=float)
        D[1:] = 0.5 * (n + a + b + 1.0)[:, None] * shifted
    return D


@pytest.mark.parametrize("K", [2, 3, 12, 24, 48])
def test_in_place_jacobi_recurrence_is_bit_identical(K):
    # beta = d/2 - 1 runs over -1/2, 0, 1/2, .. 3, and t = 2 r^2 - 1 over
    # [-1, 1] with both ends
    rng = np.random.default_rng(K)
    t = np.concatenate([[-1.0, 1.0], 2.0 * rng.random(997) ** 2 - 1.0])
    for d in range(1, 9):
        for s in (0.05, 0.3, 0.5, 0.75, 0.95):
            a, b = s, d / 2.0 - 1.0
            assert np.array_equal(jacobi_all(K, a, b, t),
                                  _jacobi_all_allocating(K, a, b, t)), (d, s)
            assert np.array_equal(jacobi_deriv_all(K, a, b, t),
                                  _jacobi_deriv_all_allocating(K, a, b, t)), (d, s)


@pytest.mark.parametrize("a,b", [(0.3, -0.5), (0.9, 2.0)])
@pytest.mark.parametrize("size", [1, 3, 26, 2049])
@pytest.mark.parametrize("K", [2, 3, 12, 48, 96])
def test_hoisted_jacobi_recurrence_is_bit_identical(K, size, a, b):
    # jacobi_all fills every row's x-only factor before the recurrence runs;
    # each element still sees the row loop's operations in its order
    x = np.random.default_rng(K + size).uniform(-1.0, 1.0, size)
    assert np.array_equal(jacobi_all(K, a, b, x), _jacobi_all_allocating(K, a, b, x))


# RadialProfile's blocked evaluations against the one-shot formulas.  Run with
# one BLAS thread: with more, OpenBLAS splits a gemv's rows between threads at
# a point that depends on the row count, so even two one-shot evaluations of
# overlapping point sets can differ in the last bit.
_PROFILE_BLOCKS_CHECK = """
import numpy as np
from fracball.basis import (RadialBasisSpec, RadialProfile, _PROFILE_BLOCK,
                            jacobi_all, jacobi_deriv_all)

rng = np.random.default_rng(11)
B = _PROFILE_BLOCK
for K in (12, 96):
    for d in (1, 3):
        spec = RadialBasisSpec(d, 0.7, K)
        c = rng.standard_normal(K)
        prof = RadialProfile(spec, c)
        for n in (B, B + 1, B + 3, B + 4, 3 * B + 5):
            r = np.sort(rng.random(n))
            r[-1] = 1.0
            t = 2.0 * r**2 - 1.0
            q = c @ jacobi_all(K, spec.alpha, spec.beta, t)
            dq = (c @ jacobi_deriv_all(K, spec.alpha, spec.beta, t)) * 4.0 * r
            omr2 = 1.0 - r**2
            with np.errstate(divide="ignore"):
                du = np.where(r < 1.0, np.abs(omr2) ** (spec.s - 1.0), 0.0)
            du = du * (omr2 * dq - 2.0 * spec.s * r * q)
            u = np.where(r < 1.0, np.abs(1.0 - r**2) ** spec.s, 0.0) * q
            for name, got, want in (("poly_part", prof.poly_part(r), q),
                                    ("__call__", prof(r), u),
                                    ("derivative", prof.derivative(r), du)):
                assert np.array_equal(got, want), (K, d, n, name)
print("ok")
"""


def test_profile_blocks_equal_the_one_shot_formula():
    # one block, one block plus one point (the remainder joins the block
    # before it), the first split, and several blocks, at K = 12 and 96
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _PROFILE_BLOCKS_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


def test_basis_does_not_load_the_oracle():
    # the closed forms stand alone: the oracle imports basis, not the reverse
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, fracball.basis; "
            "print('fracball.nonlocal_quadrature' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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
