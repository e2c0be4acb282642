"""Morse index of radial solutions via the linearized operator L = (-Delta)^s - f'(u).

Because f'(u) is radial, L preserves each angular sector, so its spectrum
splits into radial blocks in effective dimension N + 2*ell.  The block
reduction is treated as a gated assumption: the ell = 0 and ell = 1 blocks
are cross-checked against the singular-kernel quadrature oracle before use.
morse_index solves each sector once; the later stages read its report.
Alongside the index live the signed-derivative test functions d_j whose
negative energy forces the lower bound index >= N + 1, together with the
quadratic-form checks that reproduce that argument numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import (RadialBasisSpec, RadialProfile, assemble_radial_operator,
                    solve_radial_eigs)
from .errors import (DimensionUnsupported, FracballError,
                     InadmissibleBoundaryData, OracleMismatch,
                     TruncationUnsafe)
from .nonlocal_quadrature import (SeparableFunction, SignedPart,
                                  angular_factor, linearized_potential_form,
                                  mc_offset_sample, mc_remainder,
                                  quadratic_form_L, radial_potential_integral)
from .params import ProblemParams, harmonic_multiplicity, sphere_area
from .quadrature import ValueWithError
from .roots import brentq
from .truncation import ELL_START, angular_sectors, coarse_K


# ---------------------------------------------------------------------------
# linearized blocks


_GATE_TOL_REL = 1e-4


def _gate_block(params, sol, ell, pair):
    """Validate a linearized block entry against the full singular-kernel
    quadrature."""
    d = params.N + 2 * ell
    spec_d = pair.spec
    e0 = np.zeros(spec_d.K)
    e0[0] = 1.0
    g = RadialProfile(spec_d, e0)
    if ell == 0:
        v = SeparableFunction(profile=g, angular="constant")
        conv = 1.0
    else:
        # ambient trial x_1 * g(|x|): separable profile r * g(r); the block
        # matrix lives in the full-measure convention of dimension d = N + 2,
        # the ambient form carries angular_factor(N, 1)
        v = SeparableFunction(profile=lambda r: np.asarray(r) * np.asarray(g(r)),
                              angular="coordinate", j=1)
        conv = angular_factor(params.N, 1) / sphere_area(d)
    est = quadratic_form_L(sol, v, v)
    target = conv * pair.A[0, 0]
    scale = max(abs(est.value), abs(target))
    tol = max(10.0 * est.error, _GATE_TOL_REL * scale)
    if not est.finite or abs(est.value - target) > tol:
        raise OracleMismatch(
            f"linearized ell={ell} block entry {target:.10g} vs oracle "
            f"{est.value:.10g} +/- {est.error:.2g}"
        )


def assemble_linearized(params, sol, ell, K, oracle_budget=None):
    """Radial operator pair for L in the angular sector ell.

    The ell = 0 and ell = 1 blocks are validated against the quadrature
    oracle on every assembly (OracleMismatch on failure).
    """
    harmonic_multiplicity(params.N, ell)  # validates ell for this N
    spec = RadialBasisSpec(params.N + 2 * ell, params.s, K)
    pair = assemble_radial_operator(
        spec, potential=sol.linearized_potential, potential_breaks=sol.breaks,
        oracle_budget=oracle_budget)
    if ell <= 1:
        _gate_block(params, sol, ell, pair)
    return pair


# ---------------------------------------------------------------------------
# Morse index


@dataclass
class SectorCount:
    ell: int
    negative: int
    marginal: int
    smallest: float
    convergence: float
    multiplicity: int


@dataclass
class MorseReport:
    params: ProblemParams
    solution: object  # the RadialSolution linearized about
    sectors: list  # RadialEigenResult of L per ell, at the solution's K
    per_ell: list
    total_index: int
    marginal_total: int
    lambda1L: float
    lambda1L_is_radial: bool
    theorem_check: str  # 'passes' | 'fails' | 'not-applicable'


def morse_index(params, sol, ell_max=ELL_START, oracle_budget=None):
    """Count negative eigenvalues of L per sector, weighted by multiplicity.

    An eigenvalue counts as negative only when value + convergence < 0;
    eigenvalues within their convergence estimate of zero are reported as
    marginal and never included in the total.  Raises TruncationUnsafe when
    the top sector solved still reaches below zero and the sectors are not
    exhaustive.
    """
    ells, sentinel = angular_sectors(params.N, ell_max)
    sectors = [solve_radial_eigs(assemble_linearized(params, sol, ell, sol.spec.K,
                                                     oracle_budget=oracle_budget))
               for ell in ells]
    per_ell = []
    for ell, res in enumerate(sectors):
        lam = res.eigenvalues
        conv = res.convergence
        neg = int(np.sum(lam + conv < 0.0))
        # a straddler above a confidently positive level is positive by the
        # eigenvalue ordering, not marginal (top-of-spectrum convergence
        # estimates are meaningless)
        conf_pos = np.nonzero(lam - conv > 0.0)[0]
        cut = conf_pos[0] if conf_pos.size else lam.size
        straddle = (lam + conv >= 0.0) & (lam - conv <= 0.0)
        marginal = int(np.sum(straddle[:cut]))
        per_ell.append(SectorCount(ell, neg, marginal, float(lam[0]),
                                   float(conv[0]),
                                   harmonic_multiplicity(params.N, ell)))
    last = per_ell[-1]
    if sentinel is not None and last.smallest - last.convergence <= 0.0:
        raise TruncationUnsafe(
            f"sector ell={last.ell} still reaches {last.smallest:.3e}; raise ell_max"
        )
    total = sum(sc.negative * sc.multiplicity for sc in per_ell)
    marg = sum(sc.marginal * sc.multiplicity for sc in per_ell)
    lam1 = min(sc.smallest for sc in per_ell)
    lam1_radial = per_ell[0].smallest == lam1
    if sol.nodal_count == 0:
        check = "not-applicable"
    else:
        check = "passes" if total >= params.N + 1 else "fails"
    return MorseReport(params, sol, sectors, per_ell, total, marg, lam1,
                       lam1_radial, check)


def first_linearized_eigen(rep):
    """(lambda_{1,L}, sector, radial profile, sign-definite) of the first
    eigenvalue of the linearized operator, over the sectors of the
    MorseReport rep."""
    sectors = rep.sectors
    ell1 = min(range(len(sectors)), key=lambda ell: sectors[ell].eigenvalues[0])
    res = sectors[ell1]
    lam1 = float(res.eigenvalues[0])
    prof = RadialProfile(res.spec, res.eigenvectors[:, 0])
    return lam1, ell1, prof, _sign_definite(prof, rep.params.N)


def _sign_definite(prof, N):
    """Sign-definite up to truncation: the minority-sign L2 mass fraction
    must be at most 1e-4.  Spectral eigenvectors develop small boundary
    oscillations that vanish as K grows; a genuine interior sign change
    carries O(1) mass, so the mass criterion separates the two cleanly."""
    r = np.linspace(0.0, 1.0, 8193)[:-1]
    u = np.asarray(prof(r))
    w = r ** (N - 1)
    pos = float(np.dot(w, np.maximum(u, 0.0) ** 2))
    neg = float(np.dot(w, np.minimum(u, 0.0) ** 2))
    total = pos + neg
    if total == 0.0:
        return False
    return min(pos, neg) / total <= 1e-4


# ---------------------------------------------------------------------------
# test functions d_j


def _derivative_sign_radii(du):
    """Sign-change radii of u' in (0, 1) by grid scan + Brent's method."""
    r = np.linspace(0.0, 1.0, 4097)[1:-1]
    sgn = np.sign(du(r))
    return [brentq(lambda t: float(du(np.array([t]))[0]), r[i], r[i + 1])
            for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]]


def build_test_functions(sol):
    """Signed-derivative test functions d_j = (x_j/|x|) w(|x|), j = 1..N.

    w = max(u', 0) when psi0(1) >= 0, w = min(u', 0) when psi0(1) < 0; in
    either case w vanishes near the boundary (compact support radius r_*),
    because u' ~ -s psi0(1) (1-r)^{s-1} there.  Requires psi0(1) != 0 or
    s > 1/2; a near-zero boundary ratio with s <= 1/2 is rejected.
    """
    params = sol.params
    psi0 = sol.psi0_at_1
    if abs(psi0) < 1e-8 and params.s <= 0.5:
        raise InadmissibleBoundaryData(
            f"psi0(1) = {psi0:.2e} ~ 0 with s = {params.s} <= 1/2"
        )
    du = sol.profile.derivative
    w = SignedPart(du, positive=psi0 >= 0.0)
    roots = _derivative_sign_radii(du)
    # outermost radius beyond which the signed part vanishes
    r_star = None
    if abs(psi0) > 1e-8:
        r_star = max(roots) if roots else 0.0
    fns = []
    for j in range(1, params.N + 1):
        fns.append(SeparableFunction(
            profile=w, angular="coordinate", j=j,
            breaks=tuple(roots),
            support_radius=r_star if r_star is not None else 1.0))
    return fns


# ---------------------------------------------------------------------------
# quadratic-form checks


@dataclass
class TestFunctionReport:
    params: ProblemParams
    sign_convention: str  # 'psi0 >= 0' or 'psi0 < 0'
    compact_support_radius: float | None
    diag: dict          # j -> ValueWithError for E_{s,L}(d_j, d_j)
    cross: dict         # (j, k) -> ValueWithError for E_{s,L}(d_j, d_k)
    weak_defect: dict   # (j, k) -> ValueWithError for E_s(v^j,d_k)-int f'(u)v^j d_k
    rayleigh_bound: float
    lambda1L: float
    method: str         # 'deterministic' | 'monte-carlo'


def _l2_norm_sq(fn, params):
    est = radial_potential_integral(lambda r: np.ones_like(np.asarray(r)),
                                    fn.profile, fn.profile, params.N,
                                    breaks=fn.breaks)
    ang = angular_factor(params.N, fn.ell)
    return ValueWithError(ang * est.value, ang * est.error)


def _mc_quadratic_pair(u, v, params, M, seed):
    """Stratified Monte-Carlo estimate of E_s(u, v) at N = 2.

    x is sampled per quadrant (fixed allocation M/4, deterministic
    substreams), the offset with mc_offset_sample's importance density, as
    in the unreduced-form sampler; mc_remainder adds the cut-off and
    exterior pairs deterministically.  Raises DimensionUnsupported for
    s >= 3/4 and for non-finite estimates.
    """
    N, s = params.N, params.s
    # per-quadrant x measure: quadrant volume = ball_volume / 4
    quad_vol = (sphere_area(N) / N) / 4.0
    seeds = np.random.SeedSequence(seed).spawn(4)
    total = 0.0
    var_sum = 0.0

    def direction(rng, m):
        phi = 2.0 * np.pi * rng.random(m)
        return np.column_stack([np.cos(phi), np.sin(phi)])

    for q, (sx, sy) in enumerate([(1, 1), (-1, 1), (-1, -1), (1, -1)]):
        def quadrant(rng, m, sx=sx, sy=sy):
            theta = (np.pi / 2.0) * rng.random(m)
            rad = np.sqrt(rng.random(m))
            return np.column_stack([sx * rad * np.cos(theta), sy * rad * np.sin(theta)])

        mean_q, var_q = mc_offset_sample(u, v, N, s, quad_vol, M // 4,
                                         np.random.default_rng(seeds[q]),
                                         quadrant, direction)
        total += mean_q
        var_sum += var_q
    return ValueWithError(total + mc_remainder(u, v, N, s), math.sqrt(var_sum))


def test_function_checks(rep, mc_samples=1_000_000, seed=20240824):
    """Numerical version of the negative-energy argument on span
    {phi_{1,L}, d_1..d_N} for the solution of the MorseReport rep: diagonal
    energies negative, cross terms zero, weak-identity defect zero, Rayleigh
    bound negative.

    N = 1 evaluates all forms deterministically; N = 2 uses one run of the
    stratified Monte-Carlo estimator for E_s(d_1, d_1); N >= 3 is unsupported
    for the quadrature checks (morse_index itself works at any N).
    """
    params, sol = rep.params, rep.solution
    if params.N > 2:
        raise DimensionUnsupported(
            f"direct quadratic-form checks support N <= 2, got N={params.N}"
        )
    fns = build_test_functions(sol)

    def weak_defect_at(sol_k, d1_k):
        """E_{s,L}(v^1, d_1) with v^1 = (x_1/|x|) u'(|x|), for one discrete
        solution.  d_1's profile is the signed part of v^1's, so each engine
        evaluates u' once for both."""
        v1 = SeparableFunction(profile=d1_k.profile.base, angular="coordinate",
                               j=1, breaks=d1_k.breaks)
        return quadratic_form_L(sol_k, v1, d1_k)

    def weak_defect_with_truncation():
        """The identity holds for the continuum solution only, so the defect
        of the discrete solution carries a truncation contribution; estimate
        it from the defect of a coarser re-solve."""
        est = weak_defect_at(sol, fns[0])
        trunc = 0.0
        K_c = coarse_K(sol.spec.K)
        if K_c is not None and not sol.linear_degenerate:
            from .semilinear import solve_radial_sign_changing

            # a typed failure of the coarse solve leaves no estimate; any
            # other exception is a fault and propagates
            try:
                sol_c = solve_radial_sign_changing(
                    params, sol.nonlin, sol.nodal_count, K=K_c)
                est_c = weak_defect_at(sol_c, build_test_functions(sol_c)[0])
                trunc = abs(est.value - est_c.value)
            except FracballError:
                trunc = 0.0
        return ValueWithError(est.value, est.error + trunc)
    sign_conv = "psi0 >= 0" if sol.psi0_at_1 >= 0.0 else "psi0 < 0"
    r_star = fns[0].support_radius if abs(sol.psi0_at_1) > 1e-8 else None

    # u is radial, so E_{s,L}(d_j, d_j) does not depend on j (a rotation
    # maps d_1 to d_j) and E_{s,L}(d_j, d_k), j != k, is zero by parity:
    # one estimate on d_1 serves every j, and quadratic_form_L returns the
    # cross terms as exact zeros
    d1 = fns[0]
    if params.N == 1:
        method = "deterministic"
        est = quadratic_form_L(sol, d1, d1)
    else:
        method = "monte-carlo"
        est = (_mc_quadratic_pair(d1, d1, params, mc_samples, seed + 1)
               - linearized_potential_form(sol, d1, d1))
    diag = {j: est for j in range(1, params.N + 1)}
    cross = {(j, k): quadratic_form_L(sol, fns[j - 1], fns[k - 1])
             for j in diag for k in diag if j < k}
    weak = {(1, 1): weak_defect_with_truncation()}

    # Rayleigh bound on span {phi_{1,L}, d_1..d_N}: the Gram matrices are
    # diagonal by parity (d_j against phi_{1,L} and d_k alike), so the max
    # Rayleigh quotient over the span is the max over the members
    rayleigh = max(rep.lambda1L, est.value / _l2_norm_sq(d1, params).value)
    return TestFunctionReport(params, sign_conv, r_star, diag, cross, weak,
                              rayleigh, rep.lambda1L, method)
