"""Radial sign-changing solutions of (-Delta)^s u = f(u) on the unit ball.

Newton iteration on the Galerkin residual in the weighted Jacobi basis, with
the initial guess seeded by the appropriately scaled radial eigenfunction of
the linear problem (amplitude continuation).  The load and the Jacobian
integrate on basis.galerkin_rule, whose panels are graded toward r = 1 and
toward the profile's roots; a panel of width h gets
min(max(12, K + 4), ceil(1.6 K sqrt(h)) + 12) Gauss nodes, because
phi_m phi_n oscillates about K sqrt(h) times across a graded panel of width
h near r = 1, and 12 nodes resolve the kink of |u|^{p-2} on every panel of
the grading toward a root.  The linearization of morse integrates its
potential on the same rule.  A solve builds each of its fixed tables once:
the root scan's (K, 2049) Jacobi table (basis.RootScan), read by every
phase's scan; the seed rule's basis matrix, shared by the amplitude match
and the first phase; a later rule and its basis matrix only when the roots
move; and the continuation's amplitude grid.  The solution keeps its last
rule but not its basis matrix, which would hold K x (rule size) floats for
as long as the solution lives.  Alongside the solver live the
scalar diagnostics: the subcriticality inequality, the Pohozaev identity for
the boundary ratio, the energy functional, and psi0(1) itself.
"""

import warnings
from dataclasses import dataclass, field
from math import gamma, inf, isfinite

import numpy as np

from .basis import (RadialBasisSpec, RadialProfile, RootScan,
                    assemble_radial_operator, basis_matrix, galerkin_rule,
                    solve_radial_eigs, stiffness_matrix)
from .errors import (NoConvergence, NotConverged, TrivialSolution,
                     WrongNodalCount)
from .nonlocal_quadrature import stiffness_oracle_gate
from .params import ProblemParams, sphere_area
from .quadrature import kink_rule
from .truncation import K_START, next_K

# Newton stops below this residual norm, and gives up after MAX_ITER steps
NEWTON_TOL = 1e-10
MAX_ITER = 60


@dataclass(frozen=True)
class NonlinearitySpec:
    """f(t) = lam |t|^{p-2} t, lam finite, 2 <= p < inf (C^1); p = 2 is f = lam t."""

    lam: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if not (isfinite(self.lam) and 2.0 <= self.p < inf):
            raise ValueError("power family requires finite lam and p >= 2 (f is "
                             f"C^1), got lam={self.lam!r}, p={self.p!r}")

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return self.lam * np.abs(t) ** (self.p - 2.0) * t

    def fprime(self, t):
        t = np.asarray(t, dtype=float)
        return self.lam * (self.p - 1.0) * np.abs(t) ** (self.p - 2.0)

    def F(self, t):
        t = np.asarray(t, dtype=float)
        return self.lam * np.abs(t) ** self.p / self.p


@dataclass
class SubcriticalityResult:
    satisfied: bool
    threshold: float  # exponent threshold 2N/(N-2s) (inf if N <= 2s)

    def __bool__(self):
        return self.satisfied


def check_subcriticality(nonlin, params):
    """Does F(t) > ((N-2s)/(2N)) t f(t) hold for all t != 0?

    For the power family it does exactly when lam > 0 and p < 2N/(N-2s).
    """
    N, s = params.N, params.s
    thresh = float("inf") if N <= 2.0 * s else 2.0 * N / (N - 2.0 * s)
    return SubcriticalityResult(nonlin.lam > 0.0 and nonlin.p < thresh, thresh)


@dataclass
class RadialSolution:
    """A converged radial Galerkin solution and its scalar diagnostics."""

    params: ProblemParams
    nonlin: NonlinearitySpec
    spec: RadialBasisSpec
    coefficients: np.ndarray
    breaks: tuple  # interior roots of the profile (kinks of |u|^{p-2} terms)
    psi0_at_1: float
    residual: float
    newton_iterations: int
    linear_degenerate: bool
    profile: RadialProfile = field(repr=False)
    rule: tuple = field(repr=False)  # (r, w) of _interior_rule at the breaks

    @property
    def nodal_count(self):
        """Number of sign changes of the profile on (0, 1)."""
        return len(self.breaks)

    def linearized_potential(self, r):
        """f'(u(r)), the potential of the linearization L = (-Delta)^s - f'(u)."""
        return self.nonlin.fprime(np.asarray(self.profile(r), dtype=float))


def _interior_rule(spec, breaks):
    """basis.galerkin_rule at the profile's sign-change radii, with the
    r^{d-1} factor folded into the weights.  Shared by the load vector, the
    Newton Jacobian, and the energy so the discrete gradient is exactly
    consistent.
    """
    r, w = galerkin_rule(spec.K, breaks)
    return r, w * r ** (spec.d - 1)


def _load(nonlin, phi, w, c, ang):
    """Galerkin load int f(u) phi_m on the rule (phi = basis at its nodes)."""
    return ang * (phi @ (w * nonlin.f(c @ phi)))


def _jacobian(nonlin, phi, w, c, ang):
    """Derivative of _load in the coefficients: int f'(u) phi_m phi_n."""
    return ang * (phi * (w * nonlin.fprime(c @ phi))[None, :]) @ phi.T


def solve_radial_sign_changing(params, nonlin, target_nodes=1, K=K_START,
                               init=None, oracle_budget=None):
    """Newton-Galerkin solve of E_s(u, v) = int f(u) v for all basis v,
    to a residual norm below NEWTON_TOL in at most MAX_ITER steps per phase.

    init is an explicit coefficient vector, or None for the amplitude-matched
    radial eigenfunction with target_nodes sign changes, positive at r = 0
    (solve_radial_eigs' sign).  At p = 2 (the
    linear f = lam t) the B-normalised radial eigenvector with target_nodes
    sign changes is returned, flagged linear-degenerate, with residual
    ||A0 c - lam B c||: zero up to rounding only when lam is its eigenvalue.
    With oracle_budget set, the stiffness of the (d = N, s, K) sector is
    first checked by stiffness_oracle_gate.  For lam <= 0 and p > 2,
    E_s(u, u) = lam int |u|^p <= 0 leaves u = 0 as the only solution, so
    TrivialSolution is raised before any Newton work.
    """
    if nonlin.lam <= 0.0 and nonlin.p > 2.0:
        raise TrivialSolution(f"lam = {nonlin.lam:g} <= 0 leaves only u = 0")
    sub = check_subcriticality(nonlin, params)
    if not sub.satisfied:
        warnings.warn(
            "nonlinearity is not subcritical; nontrivial weak solutions may "
            "not exist and the iteration may diverge or collapse to zero",
            stacklevel=2,
        )
    spec = RadialBasisSpec(params.N, params.s, K)
    stiffness_oracle_gate(spec, oracle_budget)
    pair = assemble_radial_operator(spec)
    A0, B = pair.A, pair.B

    degenerate = nonlin.p == 2.0
    if degenerate or init is None:
        seed = solve_radial_eigs(pair)
        lam_lin = float(seed.eigenvalues[target_nodes])
        v_lin = seed.eigenvectors[:, target_nodes]
    # every root scan of this solve reads one Jacobi table
    roots = RootScan(spec)
    if degenerate:
        c = v_lin.copy()
        prof = RadialProfile(spec, c)
        breaks = tuple(roots(prof))
        res_lin = float(np.linalg.norm(A0 @ v_lin - nonlin.lam * (B @ v_lin)))
        return RadialSolution(params, nonlin, spec, c, breaks,
                              prof.boundary_ratio(), residual=res_lin,
                              newton_iterations=0, linear_degenerate=True,
                              profile=prof, rule=_interior_rule(spec, breaks))

    ang = sphere_area(params.N)
    p_path = [nonlin.p]
    if init is not None:
        c = np.asarray(init, dtype=float).copy()
        if c.shape != (K,):
            raise ValueError("explicit initial guess must have length K")
        # the first rule splits at the guess's own sign changes
        breaks = tuple(roots(RadialProfile(spec, c)))
    else:
        breaks = tuple(roots(RadialProfile(spec, v_lin)))
        # continuation in the exponent: far from p = 2 the amplitude-matched
        # eigenfunction can fall outside Newton's basin, so walk p up from
        # near 2, warm-starting each step
        if nonlin.p > 2.6:
            p_path = list(np.arange(2.5, nonlin.p, 0.25)) + [nonlin.p]
    # the seed rule, at the seed's breaks: the amplitude match and the first
    # Newton phase share it and its basis matrix
    rule_breaks = breaks
    r, w = _interior_rule(spec, breaks)
    phi = basis_matrix(spec, r)
    if init is None:
        # amplitude matching: the scaled eigenfunction alpha*v solves the
        # power problem at the first exponent p0 to leading order when
        # alpha^{p0-2} = lam_lin <v,v>_B / (lam * int |v|^p0)
        p0 = p_path[0]
        u_lin = v_lin @ phi
        ip = ang * float(np.dot(w, np.abs(u_lin) ** p0))
        nb = float(v_lin @ B @ v_lin)
        c = (lam_lin * nb / (nonlin.lam * ip)) ** (1.0 / (p0 - 2.0)) * v_lin

    def newton_phase(nl, c, tol, w, phi):
        """Damped Newton at a fixed quadrature rule; returns (c, res, iters).

        The Jacobian is formed only to take a step: the stopping test and
        the line search need the residual alone.  Raises NoConvergence at
        the iteration cap, or at once when no backtracking trial lowers the
        residual norm.
        """
        it = 0
        R = A0 @ c - _load(nl, phi, w, c, ang)
        res_norm = float(np.linalg.norm(R))
        while not res_norm < tol:  # a NaN residual goes on to stall
            if it == MAX_ITER:
                raise NoConvergence(
                    f"Newton residual {res_norm:.2e} after {MAX_ITER} "
                    f"iterations (tol {tol:g}, p={nl.p:g})"
                )
            it += 1
            step = np.linalg.solve(A0 - _jacobian(nl, phi, w, c, ang), R)
            # backtracking damping on the residual norm; a direction that no
            # damping makes a descent is a stall, not a step.  The accepted
            # trial's residual is the next iteration's.
            lam_step = 1.0
            for _ in range(30):
                c_try = c - lam_step * step
                R_try = A0 @ c_try - _load(nl, phi, w, c_try, ang)
                norm_try = float(np.linalg.norm(R_try))
                if norm_try < res_norm:
                    break
                lam_step *= 0.5
            else:
                raise NoConvergence(
                    f"Newton line search stalled at residual {res_norm:.2e} "
                    f"in iteration {it} (tol {tol:g}, p={nl.p:g})"
                )
            c, R, res_norm = c_try, R_try, norm_try
        return c, res_norm, it

    # the quadrature splits at the profile's sign-change radii, which are not
    # known until convergence: converge on the seed's breaks, then refresh the
    # rule from the converged roots and re-converge (rule fixed within each
    # phase, so the Jacobian is exact for the discrete system actually solved).
    # A rule and its basis matrix are built only when the breaks move.
    total_it = 0
    p_prev = None
    if len(p_path) > 1:
        amp_phi = basis_matrix(spec, np.linspace(0, 0.999, 512))
    for p_step in p_path:
        nl_step = nonlin if p_step == nonlin.p else NonlinearitySpec(
            nonlin.lam, p_step)
        if p_prev is not None and p_step != p_prev:
            # amplitude A solves A^{p-2} ~ lam_lin/lam; carry that scaling
            # to the new exponent: A -> A^{(p_prev-2)/(p_step-2)}
            amp = float(np.max(np.abs(c @ amp_phi)))
            if amp > 0:
                c = c * amp ** ((p_prev - 2.0) / (p_step - 2.0) - 1.0)
        p_prev = p_step
        # intermediate continuation steps carry much larger amplitudes, so
        # their stopping test must scale with the equation
        tol_step = NEWTON_TOL if nl_step is nonlin else max(
            NEWTON_TOL, 1e-9 * (1.0 + float(np.linalg.norm(A0 @ c))))
        for phase in range(4):
            if breaks != rule_breaks:
                rule_breaks = breaks
                r, w = _interior_rule(spec, breaks)
                phi = basis_matrix(spec, r)
            c, res_norm, it = newton_phase(nl_step, c, tol_step, w, phi)
            total_it += it
            if phase and not it:
                # no step: c is the profile whose roots the rule split at
                new_breaks = breaks
            else:
                new_breaks = tuple(roots(RadialProfile(spec, c)))
            if len(new_breaks) == len(breaks) and (
                not breaks
                or max(abs(a - b) for a, b in zip(new_breaks, breaks)) < 1e-11
            ):
                break
            breaks = new_breaks

    if float(np.linalg.norm(c)) < 1e-10:
        raise TrivialSolution("Newton iteration collapsed onto u = 0")
    # new_breaks are the roots of the returned c; breaks may still be the
    # previous phase's, which can differ below 1e-11
    nodes = len(new_breaks)
    if nodes != target_nodes:
        raise WrongNodalCount(
            f"converged to a profile with {nodes} sign changes, wanted {target_nodes}"
        )
    prof = RadialProfile(spec, c)
    return RadialSolution(params, nonlin, spec, c, new_breaks,
                          prof.boundary_ratio(), residual=res_norm,
                          newton_iterations=total_it, linear_degenerate=False,
                          profile=prof, rule=(r, w))


def solve_radial_resolved(params, nonlin, target_nodes=1, K=K_START,
                          oracle_budget=None):
    """solve_radial_sign_changing with the truncation chosen by convergence.

    Solves at K, then re-solves at truncation.next_K while the coefficient
    tail is unresolved.  Each re-solve is warm-started from the zero-padded
    coefficients, which is exact because the basis is nested: phi_n depends
    only on (d, s, n).  The basis size used is sol.spec.K.  Raises
    TruncationUnsafe if the tail is still unresolved at the cap.
    """
    sol = solve_radial_sign_changing(params, nonlin, target_nodes, K=K,
                                     oracle_budget=oracle_budget)
    while (K_next := next_K(sol.coefficients)) is not None:
        init = np.zeros(K_next)
        init[:sol.spec.K] = sol.coefficients
        sol = solve_radial_sign_changing(params, nonlin, target_nodes,
                                         K=K_next, init=init,
                                         oracle_budget=oracle_budget)
    return sol


def pohozaev_residual(sol):
    """Both sides of the boundary-ratio identity
    psi0(1)^2 = (1/(|S^{N-1}| Gamma(1+s)^2)) int_B [(2s-N) u f(u) + 2N F(u)].

    The volume integral is evaluated on its own kink-aware graded rule, not
    on basis.galerkin_rule: this identity is the certificate that does not
    depend on the solver, so it shares none of the solver's quadrature.
    Returns (lhs, rhs, relative residual).
    """
    if sol.residual > NEWTON_TOL and not sol.linear_degenerate:
        raise NotConverged(
            f"solution residual {sol.residual:.2e} exceeds tolerance "
            f"{NEWTON_TOL:g}"
        )
    params, nonlin = sol.params, sol.nonlin
    N, s = params.N, params.s
    lhs = sol.psi0_at_1**2
    r, w = kink_rule(sol.breaks, max(14, sol.spec.K + 4), 22, 0.3)
    u = sol.profile(r)
    integrand = (2.0 * s - N) * u * nonlin.f(u) + 2.0 * N * nonlin.F(u)
    vol = sphere_area(N) * float(np.dot(w * r ** (N - 1), integrand))
    rhs = vol / (sphere_area(N) * gamma(1.0 + s) ** 2)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, rel


def energy(sol, c):
    """J(u) = (1/2) E_s(u,u) - int_B F(u) at the coefficients c, for the
    problem of the solution sol and on its rule sol.rule, so that the
    discrete gradient of J is exactly the Galerkin residual."""
    c = np.asarray(c, dtype=float)
    r, w = sol.rule
    A0 = stiffness_matrix(sol.spec)
    u = c @ basis_matrix(sol.spec, r)
    ang = sphere_area(sol.params.N)
    return 0.5 * float(c @ A0 @ c) - ang * float(np.dot(w, sol.nonlin.F(u)))


def energy_gradient(sol, c):
    """Analytic gradient of energy(sol, c) in the coefficients c:
    A0 c - load(f, c) on sol.rule."""
    c = np.asarray(c, dtype=float)
    r, w = sol.rule
    A0 = stiffness_matrix(sol.spec)
    phi = basis_matrix(sol.spec, r)
    return A0 @ c - _load(sol.nonlin, phi, w, c, sphere_area(sol.params.N))
