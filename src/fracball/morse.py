"""Morse index of radial solutions via the linearized operator L = (-Delta)^s - f'(u).

Because f'(u) is radial, L preserves each angular sector, so its spectrum
splits into radial blocks in effective dimension N + 2*ell.  The block
reduction is treated as a gated assumption: the ell = 0 and ell = 1 blocks
are checked by nonlocal_quadrature.linearized_block_gate before use.
morse_index solves each sector once; the later stages read its report.
Alongside the index live the signed-derivative test functions d_j whose
negative energy forces the lower bound index >= N + 1, together with the
quadratic-form checks that reproduce that argument numerically.  Those
checks take E_s without the singular kernel, from Dyda's formula
(-Delta)^s phi_n = mu_n P_n in the basis of dimension N + 2 (the diagonal
at N = 1, as a Parseval series) and in that of dimension N (the weak
defect, through (-Delta)^s u_K); the kernel oracle of nonlocal_quadrature
is the reference the tests hold them against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import (RadialBasisSpec, RadialProfile, assemble_radial_operator,
                    dyda_factor, jacobi_deriv_all, jacobi_moments,
                    jacobi_norm_radial, sector_spec, solve_radial_eigs)
from .errors import (DimensionUnsupported, FracballError,
                     InadmissibleBoundaryData, TruncationUnsafe)
from .nonlocal_quadrature import (SeparableFunction, SignedPart,
                                  angular_factor, linearized_block_gate,
                                  linearized_potential_form,
                                  mc_offset_sample, mc_remainder,
                                  radial_potential_integral,
                                  stiffness_oracle_gate)
from .params import ProblemParams, harmonic_multiplicity, sphere_area
from .quadrature import ValueWithError, graded_edges, panel_rule
from .roots import scan_roots
from .semilinear import solve_radial_sign_changing
from .truncation import ELL_START, angular_sectors, coarse_K


# ---------------------------------------------------------------------------
# linearized blocks


def assemble_linearized(sol, ell, oracle_budget=None):
    """Radial operator pair for L in the angular sector ell, at the
    solution's problem and truncation K.

    With oracle_budget set, the potential-free stiffness of the sector is
    first checked by stiffness_oracle_gate.  The ell = 0 and ell = 1 blocks
    are checked by linearized_block_gate on every assembly (OracleMismatch
    on failure).
    """
    spec = sector_spec(sol.params, ell, sol.spec.K)
    stiffness_oracle_gate(spec, oracle_budget)
    pair = assemble_radial_operator(
        spec, potential=sol.linearized_potential, potential_breaks=sol.breaks)
    if ell <= 1:
        linearized_block_gate(sol, ell, pair)
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
    solution: object  # the RadialSolution linearized about
    sectors: list  # RadialEigenResult of L per ell, at the solution's K
    per_ell: list
    total_index: int
    marginal_total: int
    lambda1L: float
    lambda1L_is_radial: bool
    theorem_check: str  # 'passes' | 'fails' | 'not-applicable'


def morse_index(sol, ell_max=ELL_START, oracle_budget=None):
    """Count negative eigenvalues of L about the solution sol per sector,
    weighted by multiplicity.

    An eigenvalue counts as negative only when value + convergence < 0;
    eigenvalues within their convergence estimate of zero are reported as
    marginal and never included in the total.  Raises TruncationUnsafe when
    the top sector solved still reaches below zero and the sectors are not
    exhaustive.
    """
    params = sol.params
    ells, sentinel = angular_sectors(params.N, ell_max)
    sectors = [solve_radial_eigs(assemble_linearized(sol, ell,
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
    return MorseReport(sol, sectors, per_ell, total, marg, lam1, lam1_radial,
                       check)


def first_linearized_eigen(rep):
    """(lambda_{1,L}, sector, radial profile, sign-definite) of the first
    eigenvalue of the linearized operator, over the sectors of the
    MorseReport rep."""
    sectors = rep.sectors
    ell1 = min(range(len(sectors)), key=lambda ell: sectors[ell].eigenvalues[0])
    res = sectors[ell1]
    lam1 = float(res.eigenvalues[0])
    prof = RadialProfile(res.spec, res.eigenvectors[:, 0])
    return lam1, ell1, prof, _sign_definite(prof, rep.solution.params.N)


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


# |psi0(1)| below this counts as a vanishing boundary ratio
_PSI0_ZERO = 1e-8


def _derivative_sign_radii(du):
    """Sign-change radii of u' in (0, 1): a scan of the 4095 interior
    points of a 4096-cell grid and Brent's method."""
    r = np.linspace(0.0, 1.0, 4097)[1:-1]
    return scan_roots(du(r), lambda t: float(du(np.array([t]))[0]), r)


def build_test_functions(sol):
    """Signed-derivative test functions d_j = (x_j/|x|) w(|x|), j = 1..N.

    w = max(u', 0) when psi0(1) >= 0, w = min(u', 0) when psi0(1) < 0; in
    either case w vanishes near the boundary (compact support radius r_*,
    each function's support_radius), because u' ~ -s psi0(1) (1-r)^{s-1}
    there.  Requires psi0(1) != 0 or s > 1/2; a near-zero boundary ratio
    with s <= 1/2 is rejected, and with s > 1/2 it leaves support_radius
    None.  A nonzero psi0(1) with no sign change of u' (a solution without
    nodes) makes every d_j vanish, and is rejected too.
    """
    params = sol.params
    psi0 = sol.psi0_at_1
    if abs(psi0) < _PSI0_ZERO and params.s <= 0.5:
        raise InadmissibleBoundaryData(
            f"psi0(1) = {psi0:.2e} ~ 0 with s = {params.s} <= 1/2"
        )
    du = sol.profile.derivative
    w = SignedPart(du, positive=psi0 >= 0.0)
    roots = _derivative_sign_radii(du)
    # outermost radius beyond which the signed part vanishes
    r_star = None
    if abs(psi0) > _PSI0_ZERO:
        if not roots:
            raise InadmissibleBoundaryData("u' has no sign change, so d_j = 0")
        r_star = max(roots)
    return [SeparableFunction(profile=w, angular="coordinate", j=j,
                              breaks=tuple(roots), support_radius=r_star)
            for j in range(1, params.N + 1)]


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
    method: str         # diagonal's path: 'series' | 'monte-carlo'


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


# Dyda's Parseval series of E_s(d_1, d_1): its terms, the Gauss-Legendre
# panels of its moments on each piece of d_1's support (and the grading of
# the last panel toward r = 1 when the support reaches the boundary), the
# relative size below which a dyadic increment is rounding, and how far the
# observed rate may stray from the one the Richardson step assumes.  48
# panels of 64 nodes resolve P_n(2r^2 - 1), n < 2048, on a piece inside
# r < 0.8; a piece that reaches r = 1 takes its panels equal in arccos r,
# because P_n(2r^2 - 1) oscillates like cos(2n arccos r)
_SERIES_TERMS = 2048
_SERIES_PANELS = 48
_SERIES_NODES = 64
_SERIES_EDGE = (22, 0.35)  # levels, ratio
_SERIES_ROUNDING = 1e-12
_SERIES_RATE_TOL = 0.1


def _series_rule(fn):
    """Nodes and weights on the support of fn's profile, one panel_rule
    call: _SERIES_PANELS Gauss-Legendre panels on each piece between its
    breaks, up to its support_radius, equal in r; or up to r = 1, with the
    last piece's panels equal in arccos r and its last panel replaced by
    panels graded toward r = 1."""
    end = 1.0 if fn.support_radius is None else fn.support_radius
    pts = sorted({0.0, end} | {b for b in fn.breaks if 0.0 < b < end})
    edges = [np.linspace(lo, hi, _SERIES_PANELS + 1)[:-1]
             for lo, hi in zip(pts[:-2], pts[1:-1])]
    if fn.support_radius is None:
        edges.append(np.cos(np.linspace(np.arccos(pts[-2]), 0.0,
                                        _SERIES_PANELS + 1)))
    else:
        edges.append(np.linspace(pts[-2], end, _SERIES_PANELS + 1))
    edges = np.concatenate(edges)
    lo, hi = edges[:-1], edges[1:]
    if fn.support_radius is None:
        graded = graded_edges(edges[-2], 1.0, "right", *_SERIES_EDGE)
        lo = np.concatenate((lo[:-1], graded[:-1]))
        hi = np.concatenate((hi[:-1], graded[1:]))
    return panel_rule(lo, hi, _SERIES_NODES)


def _diagonal_series(fn, params):
    """E_s(fn, fn) of a coordinate function fn = (x_j/|x|) w(|x|) from
    Dyda's Parseval series, without the singular kernel.

    In dimension d = N + 2, x_j w(|x|) / |x| has the radial partner w/r,
    and w/r = sum_n (m_n / g_n) phi_n with m_n = int_0^1 (w/r) P_n r^{d-1}
    dr, so (-Delta)^s phi_n = mu_n P_n and Jacobi orthogonality give
    E_s(fn, fn) = angular_factor(N, 1) sum_n mu_n m_n^2 / g_n.  Every term
    is >= 0, so the partial sum S_M is a lower bound; the value is S_M plus
    the Richardson tail Delta / (2^{3-2s} - 1), Delta = S_M - S_{M/2}, which
    is also its error.  Raises TruncationUnsafe when Delta is above
    rounding and the ratio of the last two dyadic increments is not within
    _SERIES_RATE_TOL of 2^{3-2s}, the rate that tail assumes.
    """
    N, s = params.N, params.s
    spec = RadialBasisSpec(N + 2, s, _SERIES_TERMS)
    r, w = _series_rule(fn)
    moments = jacobi_moments(_SERIES_TERMS, spec.alpha, spec.beta,
                             2.0 * r**2 - 1.0,
                             w * np.asarray(fn.profile(r)) * r**N)
    terms = dyda_factor(spec) * moments**2 / jacobi_norm_radial(spec)
    full, half, quarter = (float(terms[:m].sum()) for m in
                           (_SERIES_TERMS, _SERIES_TERMS // 2, _SERIES_TERMS // 4))
    delta = full - half
    rate = 2.0 ** (3.0 - 2.0 * s)
    if delta > _SERIES_ROUNDING * full:
        ratio = (half - quarter) / delta
        if abs(ratio / rate - 1.0) > _SERIES_RATE_TOL:
            raise TruncationUnsafe(
                f"series increments fall by {ratio:.4g}, not the "
                f"2^(3-2s) = {rate:.4g} of its tail estimate")
    tail = delta / (rate - 1.0)
    ang = angular_factor(N, 1)
    return ValueWithError(ang * (full + tail), ang * tail)


def _weak_energy(sol, fn):
    """E_s(v^j, fn) for v^j = (x_j/|x|) u'(|x|) = d/dx_j u and a coordinate
    function fn = (x_j/|x|) w(|x|) supported in the ball, without the
    singular kernel.

    Inside the ball (-Delta)^s u = Q := sum_n c_n mu_n P_n(2r^2 - 1), so
    E_s(v^j, fn) = int d/dx_j Q fn = angular_factor(N, 1)
    int_0^1 Q'(r) w(r) r^{N-1} dr, one Gauss sum split at fn's breaks with
    radial_potential_integral's two-resolution error.  Q' is a polynomial
    of degree 2K - 1 in r whose top modes mu_n amplifies, and u' one of
    degree about 2K times a factor smooth on fn's support, so the panels
    carry K + 12 nodes.
    """
    spec = sol.spec
    c_mu = sol.coefficients * dyda_factor(spec)

    def dQ(r):
        t = 2.0 * r**2 - 1.0
        return 4.0 * r * (c_mu @ jacobi_deriv_all(spec.K, spec.alpha,
                                                  spec.beta, t))

    est = radial_potential_integral(dQ, fn.profile, np.ones_like,
                                    sol.params.N, breaks=fn.breaks,
                                    n=spec.K + 12)
    ang = angular_factor(sol.params.N, 1)
    return ValueWithError(ang * est.value, ang * est.error)


def test_function_checks(rep, mc_samples=1_000_000, seed=20240824):
    """Numerical version of the negative-energy argument on span
    {phi_{1,L}, d_1..d_N} for the solution of the MorseReport rep: diagonal
    energies negative, cross terms zero, weak-identity defect zero, Rayleigh
    bound negative.

    No form runs on the singular-kernel oracle, which stays the reference
    these values are tested against.  The weak defect comes from
    (-Delta)^s u_K in closed form (_weak_energy) at every N.  The diagonal
    comes from Dyda's Parseval series (_diagonal_series) at N = 1, and from
    one run of the stratified Monte-Carlo estimator at N = 2.  N >= 3 is
    unsupported here (morse_index itself works at any N).  Each energy
    subtracts linearized_potential_form.
    """
    sol = rep.solution
    params = sol.params
    if params.N > 2:
        raise DimensionUnsupported(
            f"direct quadratic-form checks support N <= 2, got N={params.N}"
        )
    fns = build_test_functions(sol)

    def weak_defect_at(sol_k, d1_k):
        """E_{s,L}(v^1, d_1) with v^1 = (x_1/|x|) u'(|x|), for one discrete
        solution."""
        v1 = SeparableFunction(profile=sol_k.profile.derivative,
                               angular="coordinate", j=1, breaks=d1_k.breaks)
        return (_weak_energy(sol_k, d1_k)
                - linearized_potential_form(sol_k, v1, d1_k))

    def weak_defect_with_truncation():
        """The identity holds for the continuum solution only, so the defect
        of the discrete solution carries a truncation contribution; estimate
        it from the defect of a coarser re-solve."""
        est = weak_defect_at(sol, fns[0])
        trunc = 0.0
        K_c = coarse_K(sol.spec.K)
        if K_c is not None and not sol.linear_degenerate:
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

    # u is radial, so E_{s,L}(d_j, d_j) does not depend on j (a rotation
    # maps d_1 to d_j) and E_{s,L}(d_j, d_k), j != k, is an exact zero by
    # parity: one estimate on d_1 serves every j
    d1 = fns[0]
    if params.N == 1:
        method = "series"
        energy = _diagonal_series(d1, params)
    else:
        method = "monte-carlo"
        energy = _mc_quadratic_pair(d1, d1, params, mc_samples, seed + 1)
    est = energy - linearized_potential_form(sol, d1, d1)
    diag = {j: est for j in range(1, params.N + 1)}
    cross = {(j, k): ValueWithError(0.0, 0.0)
             for j in diag for k in diag if j < k}
    weak = {(1, 1): weak_defect_with_truncation()}

    # Rayleigh bound on span {phi_{1,L}, d_1..d_N}: the Gram matrices are
    # diagonal by parity (d_j against phi_{1,L} and d_k alike), so the max
    # Rayleigh quotient over the span is the max over the members
    rayleigh = max(rep.lambda1L, est.value / _l2_norm_sq(d1, params).value)
    return TestFunctionReport(params, sign_conv, d1.support_radius, diag,
                              cross, weak, rayleigh, rep.lambda1L, method)
