"""Radial sign-changing solutions of (-Delta)^s u = f(u) on the unit ball.

Newton iteration on the Galerkin residual in the weighted Jacobi basis, with
the initial guess seeded by the appropriately scaled radial eigenfunction of
the linear problem (amplitude continuation).  Alongside the solver live the
scalar diagnostics: the subcriticality inequality, the Pohozaev identity for
the boundary ratio, the energy functional, and psi0(1) itself.
"""

import warnings
from dataclasses import dataclass, field
from math import gamma

import numpy as np

from .basis import (RadialBasisSpec, RadialProfile, assemble_radial_operator,
                    basis_matrix, generalized_eigh, stiffness_matrix)
from .errors import (NoConvergence, NotConverged, TrivialSolution,
                     WrongNodalCount)
from .params import ProblemParams, sphere_area
from .quadrature import kink_rule
from .truncation import K_START, next_K


@dataclass(frozen=True)
class NonlinearitySpec:
    """f(t) for the right-hand side: linear, odd power, or shifted linear.

    power: f(t) = lam |t|^{p-2} t with p >= 2 (C^1); linear: f(t) = lam t;
    shifted-linear: f(t) = lam t + c0.
    """

    family: str
    lam: float = 1.0
    p: float = 2.0
    c0: float = 0.0

    def __post_init__(self):
        if self.family not in ("linear", "power", "shifted-linear"):
            raise ValueError(f"unknown nonlinearity family {self.family!r}")
        if self.family == "power" and self.p < 2.0:
            raise ValueError("power family requires p >= 2 so that f is C^1")

    def f(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "linear":
            return self.lam * t
        if self.family == "shifted-linear":
            return self.lam * t + self.c0
        return self.lam * np.abs(t) ** (self.p - 2.0) * t

    def fprime(self, t):
        t = np.asarray(t, dtype=float)
        if self.family in ("linear", "shifted-linear"):
            return np.full_like(t, self.lam)
        return self.lam * (self.p - 1.0) * np.abs(t) ** (self.p - 2.0)

    def F(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "linear":
            return 0.5 * self.lam * t**2
        if self.family == "shifted-linear":
            return 0.5 * self.lam * t**2 + self.c0 * t
        return self.lam * np.abs(t) ** self.p / self.p


@dataclass
class SubcriticalityResult:
    satisfied: bool
    threshold: float  # power-family exponent threshold 2N/(N-2s) (inf if N <= 2s)
    witness: float | None = None  # a t where the inequality fails, if any

    def __bool__(self):
        return self.satisfied


def check_subcriticality(nonlin, params):
    """Does F(t) > ((N-2s)/(2N)) t f(t) hold for all t != 0?

    Closed form for the linear and power families; otherwise tested on a
    sign-aware log grid with the failing witness reported.
    """
    N, s = params.N, params.s
    thresh = float("inf") if N <= 2.0 * s else 2.0 * N / (N - 2.0 * s)
    if nonlin.family == "linear":
        return SubcriticalityResult(nonlin.lam > 0.0, thresh,
                                    None if nonlin.lam > 0 else 1.0)
    if nonlin.family == "power":
        ok = nonlin.lam > 0.0 and nonlin.p < thresh
        return SubcriticalityResult(ok, thresh, None if ok else 1.0)
    grid = np.concatenate([-np.logspace(-6, 3, 200)[::-1], np.logspace(-6, 3, 200)])
    margin = nonlin.F(grid) - ((N - 2.0 * s) / (2.0 * N)) * grid * nonlin.f(grid)
    bad = np.nonzero(margin <= 0.0)[0]
    if bad.size:
        return SubcriticalityResult(False, thresh, float(grid[bad[0]]))
    return SubcriticalityResult(True, thresh, None)


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
    newton_tol: float
    linear_degenerate: bool = False
    quad_r: np.ndarray = field(default=None, repr=False)
    quad_w: np.ndarray = field(default=None, repr=False)
    _profile: RadialProfile = field(default=None, repr=False)

    @property
    def profile(self):
        if self._profile is None:
            self._profile = RadialProfile(self.spec, self.coefficients)
        return self._profile

    @property
    def nodal_count(self):
        """Number of sign changes of the profile on (0, 1)."""
        return len(self.breaks)

    def linearized_potential(self, r):
        """f'(u(r)), the potential of the linearization L = (-Delta)^s - f'(u)."""
        return self.nonlin.fprime(np.asarray(self.profile(r), dtype=float))


def _interior_rule(spec, breaks):
    """Composite Gauss rule for int_0^1 G(r) r^{d-1} dr, graded toward the
    boundary and split at the profile's sign-change radii (where |u|^{p-2}
    factors lose smoothness).  Shared by the load vector, the Newton
    Jacobian, and the energy so the discrete gradient is exactly consistent.
    The r^{d-1} factor is folded into the weights.
    """
    # panel order tracks the basis degree (~2K) so high modes stay resolved
    r, w = kink_rule(breaks, max(12, spec.K + 4), 18, 0.3)
    return r, w * r ** (spec.d - 1)


def _load(nonlin, phi, w, c, ang):
    """Galerkin load int f(u) phi_m on the rule (phi = basis at its nodes)."""
    return ang * (phi @ (w * nonlin.f(c @ phi)))


def _jacobian(nonlin, phi, w, c, ang):
    """Derivative of _load in the coefficients: int f'(u) phi_m phi_n."""
    return ang * (phi * (w * nonlin.fprime(c @ phi))[None, :]) @ phi.T


def solve_radial_sign_changing(params, nonlin, target_nodes=1, K=K_START,
                               init="from-eigenfunction", newton_tol=1e-10,
                               max_iter=60, oracle_budget=None):
    """Newton-Galerkin solve of E_s(u, v) = int f(u) v for all basis v.

    init is either 'from-eigenfunction' (amplitude-matched radial
    eigenfunction with target_nodes sign changes) or an explicit coefficient
    vector.  For the linear family (and power p = 2, which is linear on each
    sign pattern ray) the scaled eigenfunction itself is returned, flagged
    linear-degenerate.
    """
    sub = check_subcriticality(nonlin, params)
    if not sub.satisfied:
        warnings.warn(
            "nonlinearity is not subcritical; nontrivial weak solutions may "
            "not exist and the iteration may diverge or collapse to zero",
            stacklevel=2,
        )
    spec = RadialBasisSpec(params.N, params.s, K)
    pair = assemble_radial_operator(spec, oracle_budget=oracle_budget)
    A0, B = pair.A, pair.B

    degenerate = nonlin.family in ("linear",) or (
        nonlin.family == "power" and nonlin.p == 2.0
    )
    explicit = not (isinstance(init, str) and init == "from-eigenfunction")
    if degenerate or not explicit:
        lam, vec = generalized_eigh(pair)
        lam_lin = float(lam[target_nodes])
        v_lin = vec[:, target_nodes]
    if degenerate:
        prof = RadialProfile(spec, v_lin)
        return RadialSolution(params, nonlin, spec, v_lin.copy(),
                              tuple(prof.sign_change_radii()),
                              prof.boundary_ratio(), residual=0.0,
                              newton_iterations=0, newton_tol=newton_tol,
                              linear_degenerate=True)

    ang = sphere_area(params.N)
    if explicit:
        c = np.asarray(init, dtype=float).copy()
        if c.shape != (K,):
            raise ValueError("explicit initial guess must have length K")
        # the first rule splits at the guess's own sign changes
        seed_breaks = RadialProfile(spec, c).sign_change_radii()
        p_path = [nonlin.p]
    else:
        seed_breaks = RadialProfile(spec, v_lin).sign_change_radii()
        # amplitude matching: the scaled eigenfunction alpha*v solves the
        # power problem to leading order when
        # alpha^{p-2} = lam_lin <v,v>_B / (lam * int |v|^p)
        r, w = _interior_rule(spec, seed_breaks)
        phi_seed = basis_matrix(spec, r)
        u_lin = v_lin @ phi_seed

        def amplitude_seed(nl):
            p = nl.p
            ip = ang * float(np.dot(w, np.abs(u_lin) ** p))
            nb = float(v_lin @ B @ v_lin)
            alpha = (lam_lin * nb / (nl.lam * ip)) ** (1.0 / (p - 2.0))
            return alpha * v_lin

        # continuation in the exponent: far from p = 2 the amplitude-matched
        # eigenfunction can fall outside Newton's basin, so walk p up from
        # near 2, warm-starting each step
        c = amplitude_seed(nonlin)
        p_path = [nonlin.p]
        if nonlin.p > 2.6:
            p_path = list(np.arange(2.5, nonlin.p, 0.25)) + [nonlin.p]
            c = amplitude_seed(NonlinearitySpec("power", nonlin.lam, p_path[0]))

    def newton_phase(nl, c, tol, w, phi):
        """Damped Newton at a fixed quadrature rule; returns (c, res, iters).

        The Jacobian is formed only to take a step: the stopping test and
        the line search need the residual alone.
        """
        it = 0
        res_norm = np.inf
        for _ in range(max_iter):
            R = A0 @ c - _load(nl, phi, w, c, ang)
            res_norm = float(np.linalg.norm(R))
            if res_norm < tol:
                return c, res_norm, it
            it += 1
            step = np.linalg.solve(A0 - _jacobian(nl, phi, w, c, ang), R)
            # backtracking damping on the residual norm
            lam_step = 1.0
            for _ in range(30):
                c_try = c - lam_step * step
                load_t = _load(nl, phi, w, c_try, ang)
                if float(np.linalg.norm(A0 @ c_try - load_t)) < res_norm:
                    break
                lam_step *= 0.5
            c = c - lam_step * step
        raise NoConvergence(
            f"Newton residual {res_norm:.2e} after {max_iter} iterations "
            f"(tol {tol:g}, p={nl.p:g})"
        )

    # the quadrature splits at the profile's sign-change radii, which are not
    # known until convergence: converge on the seed's breaks, then refresh the
    # rule from the converged roots and re-converge (rule fixed within each
    # phase, so the Jacobian is exact for the discrete system actually solved)
    breaks = tuple(seed_breaks)
    total_it = 0
    res_norm = np.inf
    r = w = phi = None
    p_prev = None
    for p_step in p_path:
        nl_step = nonlin if p_step == nonlin.p else NonlinearitySpec(
            "power", nonlin.lam, p_step)
        if p_prev is not None and p_step != p_prev:
            # amplitude A solves A^{p-2} ~ lam_lin/lam; carry that scaling
            # to the new exponent: A -> A^{(p_prev-2)/(p_step-2)}
            amp = float(np.max(np.abs(c @ basis_matrix(spec, np.linspace(0, 0.999, 512)))))
            if amp > 0:
                c = c * amp ** ((p_prev - 2.0) / (p_step - 2.0) - 1.0)
        p_prev = p_step
        # intermediate continuation steps carry much larger amplitudes, so
        # their stopping test must scale with the equation
        tol_step = newton_tol if nl_step is nonlin else max(
            newton_tol, 1e-9 * (1.0 + float(np.linalg.norm(A0 @ c))))
        for _phase in range(4):
            r, w = _interior_rule(spec, breaks)
            phi = basis_matrix(spec, r)
            c, res_norm, it = newton_phase(nl_step, c, tol_step, w, phi)
            total_it += it
            new_breaks = tuple(RadialProfile(spec, c).sign_change_radii())
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
                          newton_iterations=total_it, newton_tol=newton_tol,
                          quad_r=r, quad_w=w, _profile=prof)


def solve_radial_resolved(params, nonlin, target_nodes=1, K=K_START,
                          newton_tol=1e-10, oracle_budget=None):
    """solve_radial_sign_changing with the truncation chosen by convergence.

    Solves at K, then re-solves at truncation.next_K while the coefficient
    tail is unresolved.  Each re-solve is warm-started from the zero-padded
    coefficients, which is exact because the basis is nested: phi_n depends
    only on (d, s, n).  The basis size used is sol.spec.K.  Raises
    TruncationUnsafe if the tail is still unresolved at the cap.
    """
    sol = solve_radial_sign_changing(params, nonlin, target_nodes, K=K,
                                     newton_tol=newton_tol,
                                     oracle_budget=oracle_budget)
    while (K_next := next_K(sol.coefficients)) is not None:
        init = np.zeros(K_next)
        init[:sol.spec.K] = sol.coefficients
        sol = solve_radial_sign_changing(params, nonlin, target_nodes,
                                         K=K_next, init=init,
                                         newton_tol=newton_tol,
                                         oracle_budget=oracle_budget)
    return sol


def pohozaev_residual(sol):
    """Both sides of the boundary-ratio identity
    psi0(1)^2 = (1/(|S^{N-1}| Gamma(1+s)^2)) int_B [(2s-N) u f(u) + 2N F(u)].

    The volume integral is evaluated on an independent kink-aware graded
    rule, not the solver's internal grid.  Returns (lhs, rhs, relative
    residual).
    """
    if sol.residual > sol.newton_tol and not sol.linear_degenerate:
        raise NotConverged(
            f"solution residual {sol.residual:.2e} exceeds tolerance "
            f"{sol.newton_tol:g}"
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


def energy(sol_or_coeffs, spec=None, nonlin=None, params=None, rule=None):
    """J(u) = (1/2) E_s(u,u) - int_B F(u), on the solver's internal rule so
    that the discrete gradient of J is exactly the Galerkin residual.

    Accepts either a RadialSolution (which carries its quadrature rule) or a
    coefficient vector plus (spec, nonlin, params) and an optional (r, w)
    rule -- the same rule must be used for gradient comparisons.
    """
    if isinstance(sol_or_coeffs, RadialSolution):
        sol = sol_or_coeffs
        spec, nonlin, params = sol.spec, sol.nonlin, sol.params
        c = sol.coefficients
        if rule is None and sol.quad_r is not None:
            rule = (sol.quad_r, sol.quad_w)
    else:
        c = np.asarray(sol_or_coeffs, dtype=float)
    if rule is None:
        rule = _interior_rule(spec, RadialProfile(spec, c).sign_change_radii())
    r, w = rule
    A0 = stiffness_matrix(spec)
    u = c @ basis_matrix(spec, r)
    ang = sphere_area(params.N)
    return 0.5 * float(c @ A0 @ c) - ang * float(np.dot(w, nonlin.F(u)))


def energy_gradient(coeffs, spec, nonlin, params, rule):
    """Analytic gradient of energy() in the coefficients on the (r, w) rule:
    A0 c - load(f, c)."""
    c = np.asarray(coeffs, dtype=float)
    r, w = rule
    A0 = stiffness_matrix(spec)
    phi = basis_matrix(spec, r)
    return A0 @ c - _load(nonlin, phi, w, c, sphere_area(params.N))
