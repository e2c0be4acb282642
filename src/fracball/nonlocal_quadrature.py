"""Direct quadrature of the singular-kernel forms E_s, E_{s,L} and pointwise
(-Delta)^s on the unit ball.

This module is the ground truth that every closed-form or spectral shortcut in
the package is validated against.  Functions supported in the closed ball and
separable into a radial profile times an angular factor (constant or a single
coordinate x_j/|x|) admit an exact reduction of the 2N-dimensional double
integral to a double radial integral against sphere-averaged kernel moments
plus a single radial integral against the exterior kernel tail:

    E_s(u, v) = ang * [ (c/2) int int  Dg Dh kappa_ell (r rho)^{N-1} dr drho
                        + int g h r^{N-1} W(r) dr ]

with Dg = g(r) - g(rho), kappa_ell the angular kernel moment, and W the
deterministic tail (exterior reflection plus, for ell = 1, the (1 - cos)
moment integrated over the whole half-line).  The double integral is handled
by tensor panels geometrically graded into the diagonal, with the innermost
panel a Gauss-Jacobi rule absorbing the |r - rho|^{1-2s} near-diagonal
behavior exactly.  Everything is deterministic; a Monte-Carlo estimator of
the unreduced 2N-dimensional integral is provided as an independent check.

The ell = 1 tail constant C(N, s) (kdiff_total) is a closed form.  The
engines that hold one form's pair tables are built once per process for
each exact (N, s, ell, breaks, n, lev), by functools.cache on _engine;
get_engine is the public entry point.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import RadialBasisSpec, basis_matrix
from .errors import DimensionUnsupported, SingularityTooClose
from .kernels import kappa_ell
from .params import frac_constant, sphere_area
from .quadrature import (ValueWithError, graded_rule, jacobi_panel,
                         join_rules, kink_points, kink_rule, segment_rule)

_RATIO = 0.35
_LEV_DIAG = 16  # geometric levels into the diagonal before the Jacobi panel
# points per block when profiles are evaluated at an engine's inner nodes
_FORM_BLOCK = 65_536
# pointwise_flap refuses points closer than this to the boundary
_FLAP_MARGIN = 1e-3

ANGULAR_KINDS = ("constant", "coordinate")


@dataclass(frozen=True)
class SeparableFunction:
    """Radial profile times an angular factor, vanishing outside the ball.

    angular 'constant' means u(x) = profile(|x|) (ell = 0); 'coordinate'
    means u(x) = (x_j/|x|) * profile(|x|) (ell = 1), which also covers the
    sign-restricted derivative shapes d_j, whose half-space definition
    collapses to this separable form.  The profile must evaluate to 0 for
    r >= 1 and, for 'coordinate', to 0 at r = 0.
    """

    profile: object
    angular: str = "constant"
    j: int = 1
    breaks: tuple = ()
    support_radius: float = 1.0

    def __post_init__(self):
        if self.angular not in ANGULAR_KINDS:
            raise ValueError(f"unknown angular kind {self.angular!r}")
        if self.j < 1:
            raise ValueError("coordinate index j must be >= 1")

    @property
    def ell(self):
        return 0 if self.angular == "constant" else 1

    def __call__(self, x):
        """Evaluate at points x of shape (npts, N) (or (N,) for one point)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        vals = np.asarray(self.profile(r), dtype=float)
        if self.ell == 1:
            with np.errstate(invalid="ignore", divide="ignore"):
                ang = np.where(r > 0.0, x[:, self.j - 1] / np.where(r > 0, r, 1.0), 0.0)
            vals = vals * ang
        return vals


@dataclass(frozen=True)
class SignedPart:
    """The radial profile max(g, 0) (positive) or min(g, 0) of a profile g.

    PairFormEngine.form(g, h) takes a signed part h of g from g's values, so
    the form of g and its signed part evaluates g once.
    """

    base: object
    positive: bool = True

    def part(self, vals):
        return np.maximum(vals, 0.0) if self.positive else np.minimum(vals, 0.0)

    def __call__(self, r):
        return self.part(np.asarray(self.base(np.atleast_1d(np.asarray(r, dtype=float)))))


def angular_factor(N, ell):
    """Square of the angular part integrated over S^{N-1}: |S^{N-1}| for
    ell = 0 and |S^{N-1}|/N for a single coordinate (ell = 1)."""
    return sphere_area(N) if ell == 0 else sphere_area(N) / N


def _lev_for(scale, span, base=2, cap=45):
    """Grading depth so the finest panel of a span resolves `scale`."""
    if scale <= 0.0:
        return cap
    if scale >= span:
        return base
    return int(min(cap, max(base, math.ceil(math.log(span / scale) / math.log(1.0 / _RATIO)))))


def _gap_rule(G, s, n, lev_far, far_sing):
    """Rules in the gap coordinate delta in (0, G] for the diagonal approach,
    one row per entry of the array G.

    The innermost panel is Gauss-Jacobi absorbing delta^{1-2s}, so that all
    nodes share the plain convention sum(w * F(delta)) ~ int F.
    """
    mid = 0.5 * G
    return join_rules(
        graded_rule(0.0, mid, "left", _LEV_DIAG, _RATIO, n, gamma=1.0 - 2.0 * s),
        graded_rule(mid, G, "right", lev_far if far_sing else 2, _RATIO, n))


def _far_levels(r, p, q, lev_sing, sing):
    """Grading depths at p and q of the rule on a segment (p, q) not
    containing the outer node r: the end nearer r is graded by its distance
    from r, and an end in sing at least lev_sing deep."""
    near = p if r < p else q

    def lev(end):
        base = _lev_for(abs(end - r), q - p) if end == near else 2
        return max(base, lev_sing) if end in sing else base

    return lev(p), lev(q)


def _far_segment_rule(p, q, lev_p, lev_q, n):
    """Rule on (p, q) whose halves are graded toward their ends, lev_p and
    lev_q deep."""
    mid = 0.5 * (p + q)
    return join_rules(graded_rule(p, mid, "left", lev_p, _RATIO, n),
                      graded_rule(mid, q, "right", lev_q, _RATIO, n))


def _interleave(pieces):
    """Flatten pieces (key, rows, *columns) into the engine's pair order.

    Each piece holds one row of inner nodes for each outer node in rows (a
    column may also be one row shared by all of them).  The flat order is
    outer node by outer node, and within one outer node by key.  Returns the
    outer-node index of every pair and the flattened columns.
    """
    owner = np.concatenate([rows for _, rows, *_ in pieces])
    key = np.concatenate([np.full(rows.size, k) for k, rows, *_ in pieces])
    width = np.concatenate([np.full(rows.size, np.shape(cols[0])[-1])
                            for _, rows, *cols in pieces])
    order = np.lexsort((key, owner))
    start = np.empty_like(width)
    start[order] = np.cumsum(width[order]) - width[order]
    total = int(width.sum())
    out = [np.empty(total, dtype=np.intp)] + [np.empty(total) for _ in pieces[0][2:]]
    lo = 0
    for _, rows, *cols in pieces:
        dst = start[lo:lo + rows.size, None] + np.arange(np.shape(cols[0])[-1])
        lo += rows.size
        for arr, col in zip(out, (rows[:, None], *cols)):
            arr[dst] = col
    return out


def kdiff_total(N, s):
    """C(N, s) = int_0^inf kappa_diff(1, rho) rho^{N-1} drho.

    By kernel homogeneity the same integral centered at radius r equals
    C(N, s) r^{-2s}; this is the ell = 1 tail contribution.  Closed form,
    from Dyda's formula for (-Delta)^s |x|^{-a} at a = 1 and the dimension
    shift x_1 f(|x|) in R^N <-> f(|z|) in R^{N+2}:

        C(N, s) = pi^{(N-1)/2} G(s + 1/2) G((N+1)/2) G(1 - s)
                  / (s G((N+1)/2 - s) G(N/2 + s)),

    which is 1/s at N = 1 (returned as exactly that).
    """
    if N == 1:
        return 1.0 / s
    g = math.gamma
    return (math.pi ** ((N - 1) / 2) * g(s + 0.5) * g((N + 1) / 2) * g(1.0 - s)
            / (s * g((N + 1) / 2 - s) * g(N / 2 + s)))


def exterior_tail(r, N, s, ell=0):
    """tau_ell(r) = int_1^inf kappa_ell(r, rho) rho^{N-1} drho for r in [0, 1).

    This is the single-integral reduction of the pairs with one point outside
    the ball.  Vectorized in r; for N = 1 it is elementary.  On (1, 2) the rule
    is graded toward rho = 1 with a depth set by the gap 1 - r, so the r that
    share a depth share their nodes and are evaluated together.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if N == 1:
        base = (1.0 - r) ** (-2.0 * s) / (2.0 * s)
        far = (1.0 + r) ** (-2.0 * s) / (2.0 * s)
        return base + far if ell == 0 else base - far
    out = np.empty_like(r)
    tj, wtj = jacobi_panel(0.0, 0.5, 2.0 * s - 1.0, 16, "left")
    rho_t = 1.0 / tj
    wt = wtj * tj ** (-(N + 2.0 * s))
    gap = 1.0 - r
    levs = np.array([_lev_for(g, 1.0, base=6) for g in gap], dtype=int)
    for lev in np.unique(levs):
        zeta, wz = graded_rule(0.0, 1.0, "left", lev, _RATIO, 10)
        rho = 1.0 + zeta
        wz = wz * rho ** (N - 1)
        i = levs == lev
        ri = r[i, None]
        k = kappa_ell(ri, rho, gap[i, None] + zeta, N, s, ell)
        kt = kappa_ell(ri, rho_t, rho_t - ri, N, s, ell)
        out[i] = k @ wz + kt @ wt
    return out


class PairFormEngine:
    """Precomputed node/weight tables for one reduced bilinear form.

    form(g, h) returns the radial-reduced value; the full N-dimensional form
    is angular_factor(N, ell) times that.  stiffness_gram(spec) returns form
    on every pair of a basis's first functions at once.

    Pair i couples the outer node r_out[idx[i]] with the inner node rho[i].
    The tables are built with arrays, segment by segment: the gap rules of
    all outer nodes inside a segment come from one graded_rule call per
    side, and a far-segment rule, which depends on the outer node only
    through its two grading depths, is built once per depths and shared.
    The pairs are ordered outer node by outer node, then by segment: form
    sums in that order, so the order fixes its floating-point result.
    """

    def __init__(self, N, s, ell, breaks, n, lev):
        self.c = frac_constant(N, s)
        pts = kink_points(breaks)
        # the ell = 1 moment's reflection part is homogeneous-singular at the
        # origin, so grade toward r = 0 as well in that sector
        sing = set(pts) - ({0.0} if ell == 0 else set())
        mpow = N - 1
        self.r_out, self.w_out = segment_rule(pts, n, grade=sing, levels=lev,
                                              ratio=_RATIO)
        pieces = []  # (key, outer-node rows, rho, |rho - r|, inner weights)
        for k, (p, q) in enumerate(zip(pts[:-1], pts[1:])):
            inside = (p < self.r_out) & (self.r_out < q)
            rows = np.flatnonzero(inside)
            r = self.r_out[rows, None]
            for j, (sgn, end) in enumerate(((1.0, q), (-1.0, p))):
                delta, w = _gap_rule(np.abs(end - r[:, 0]), s, n, lev, end in sing)
                pieces.append((2 * k + j, rows, r + sgn * delta, delta, w))
            far = np.flatnonzero(~inside)
            levels = [_far_levels(self.r_out[i], p, q, lev, sing) for i in far]
            for lp_lq in set(levels):
                rows = far[[lv == lp_lq for lv in levels]]
                rho, w = _far_segment_rule(p, q, *lp_lq, n)
                pieces.append((2 * k, rows, rho, np.abs(rho - self.r_out[rows, None]), w))
        self.idx, self.rho, h, win = _interleave(pieces)
        kap = kappa_ell(self.r_out[self.idx], self.rho, h, N, s, ell)
        meas = (self.r_out[self.idx] * self.rho) ** mpow if mpow else 1.0
        self.kw = self.w_out[self.idx] * win * kap * meas
        # diagonal tail weights (per unit kernel constant)
        tail = exterior_tail(self.r_out, N, s, ell=ell)
        if ell == 1:
            tail = tail + kdiff_total(N, s) * self.r_out ** (-2.0 * s)
        self.wdiag = self.w_out * self.r_out ** mpow * tail
        self._grams = {}

    @property
    def n_pairs(self):
        return self.kw.size

    def _inner(self, f):
        """f at the inner nodes, evaluated in blocks to bound f's temporaries."""
        out = np.empty_like(self.rho)
        for lo in range(0, out.size, _FORM_BLOCK):
            out[lo:lo + _FORM_BLOCK] = f(self.rho[lo:lo + _FORM_BLOCK])
        return out

    def _sum(self, g_out, dg, h_out, dh):
        """The form from the profiles at the outer nodes and their pair
        differences g(r_out[idx]) - g(rho)."""
        return self.c * (0.5 * float(np.dot(self.kw, dg * dh))
                         + float(np.dot(self.wdiag, g_out * h_out)))

    def form(self, g, h=None):
        """Reduced bilinear form of two radial profiles (h defaults to g).

        A SignedPart h of g takes its values from g's, so g is evaluated
        once for both.
        """
        g_out = np.asarray(g(self.r_out), dtype=float)
        g_in = self._inner(g)
        dg = g_out[self.idx] - g_in
        if h is None or h is g:
            h_out, dh = g_out, dg
        elif isinstance(h, SignedPart) and h.base is g:
            h_out = h.part(g_out)
            dh = h_out[self.idx] - h.part(g_in)
        else:
            h_out = np.asarray(h(self.r_out), dtype=float)
            dh = h_out[self.idx] - self._inner(h)
        return self._sum(g_out, dg, h_out, dh)

    def stiffness_gram(self, spec):
        """K x K matrix of form(phi_m, phi_n) over the basis functions
        phi_0 .. phi_{K-1} of spec (basis.basis_matrix), memoised per spec.

        The basis is evaluated once at the outer nodes and once at the inner
        ones, in _FORM_BLOCK blocks, and each entry is summed as form sums
        it, so it equals form on the unit-coefficient profiles bit for bit.
        """
        if spec not in self._grams:
            phi = basis_matrix(spec, self.r_out)
            D = np.empty((spec.K, self.rho.size))
            for lo in range(0, self.rho.size, _FORM_BLOCK):
                hi = lo + _FORM_BLOCK
                D[:, lo:hi] = phi[:, self.idx[lo:hi]] - basis_matrix(spec, self.rho[lo:hi])
            gram = np.empty((spec.K, spec.K))
            for m, n in itertools.combinations_with_replacement(range(spec.K), 2):
                gram[m, n] = gram[n, m] = self._sum(phi[m], D[m], phi[n], D[n])
            self._grams[spec] = gram
        return self._grams[spec]


# (n, lev) resolution ladder; each entry's error partner is the one before it
_LADDER = [(5, 10), (7, 16), (10, 22), (13, 26), (16, 28)]
_FINE = 2  # ladder position of bilinear_form and of an unset oracle budget
# the oracle's stiffness Grams hold at least this many basis functions: the
# assembly gates check the leading 4 x 4 block
_GRAM_K = 4


@functools.cache
def _engine(N, s, ell, breaks, n, lev):
    return PairFormEngine(N, s, ell, breaks, n, lev)


def get_engine(N, s, ell, breaks, n, lev):
    """The PairFormEngine of these exact arguments, built once per process."""
    return _engine(N, s, ell, tuple(float(b) for b in breaks), n, lev)


def _ladder_pos_for_budget(budget):
    pos = _FINE
    if budget is not None:
        if budget < 50_000:
            pos = 1
        elif budget < 200_000:
            pos = 2
        elif budget < 600_000:
            pos = 3
        else:
            pos = 4
    return pos


def _engine_pair(N, s, ell, breaks, pos):
    """The engines at ladder position pos and at its error partner below."""
    return (get_engine(N, s, ell, breaks, *_LADDER[pos]),
            get_engine(N, s, ell, breaks, *_LADDER[max(pos - 1, 0)]))


def _two_resolution(fine, coarse):
    """The fine value with |fine - coarse| (plus a 1e-15 relative floor) as
    its absolute error."""
    return ValueWithError(fine, abs(fine - coarse) + 1e-15 * abs(fine))


def reduced_form(N, s, ell, g, h, breaks, pos):
    """Reduced radial form with a two-resolution absolute error estimate."""
    fine, coarse = _engine_pair(N, s, ell, breaks, pos)
    return _two_resolution(fine.form(g, h), coarse.form(g, h))


def stiffness_entry_oracle(d, s, m, n, budget=None):
    """Full-form stiffness entry E_s(phi_m, phi_n) in effective dimension d,
    computed from the singular kernel alone (no closed-form coefficients).

    The entry is read from the stiffness_gram of the two ladder engines, so
    the gated entries of one (d, s, budget) share one basis evaluation per
    engine; it equals |S^{d-1}| reduced_form on the unit-coefficient
    profiles of phi_m and phi_n bit for bit.
    """
    spec = RadialBasisSpec(d, s, max(m, n, _GRAM_K - 1) + 1)
    fine, coarse = _engine_pair(d, s, 0, (), _ladder_pos_for_budget(budget))
    est = _two_resolution(float(fine.stiffness_gram(spec)[m, n]),
                          float(coarse.stiffness_gram(spec)[m, n]))
    ang = sphere_area(d)
    return ValueWithError(ang * est.value, ang * est.error)


def _check_compat(u, v):
    if u.ell != v.ell:
        return False
    if u.ell == 1 and u.j != v.j:
        return False
    return True


def bilinear_form(u, v, params):
    """E_s(u, v): the full double integral over R^N x R^N, exterior pairs
    reduced to the kernel-tail single integral.  Returns ValueWithError.

    The radial reduction at ladder position _FINE is the only path; its error
    is the difference from the position below.  The Monte-Carlo estimator
    _mc_bilinear samples the unreduced integral as an independent check.
    """
    if not _check_compat(u, v):
        return ValueWithError(0.0, 0.0)  # exact: odd angular integrand
    N, s, ell = params.N, params.s, u.ell
    breaks = tuple(sorted(set(u.breaks) | set(v.breaks)))
    est = reduced_form(N, s, ell, u.profile, v.profile, breaks, _FINE)
    ang = angular_factor(N, ell)
    return ValueWithError(ang * est.value, ang * est.error)


def radial_potential_integral(fn, pu, pv, N, breaks=()):
    """int_0^1 fn(r) pu(r) pv(r) r^{N-1} dr with kink-aware graded panels."""
    vals = []
    for r, w in (kink_rule(breaks, 12, 22, _RATIO), kink_rule(breaks, 8, 14, _RATIO)):
        vals.append(float(np.dot(w * r ** (N - 1),
                                 np.asarray(fn(r)) * np.asarray(pu(r)) * np.asarray(pv(r)))))
    return ValueWithError(vals[0], abs(vals[0] - vals[1]) + 1e-15 * abs(vals[0]))


def linearized_potential_form(sol, v, w):
    """int f'(u) v w dx for the linearization around the radial solution sol:
    angular_factor times the radial integral, panels split at the kinks of
    u (sol.breaks), v and w."""
    if not _check_compat(v, w):
        return ValueWithError(0.0, 0.0)  # exact: odd angular integrand
    N = sol.params.N
    breaks = tuple(sorted(set(sol.breaks) | set(v.breaks) | set(w.breaks)))
    pot = radial_potential_integral(sol.linearized_potential, v.profile,
                                    w.profile, N, breaks=breaks)
    ang = angular_factor(N, v.ell)
    return ValueWithError(ang * pot.value, ang * pot.error)


def quadratic_form_L(sol, v, w):
    """E_{s,L}(v, w) = E_s(v, w) - int f'(u) v w dx for the linearization
    around the radial solution sol (a semilinear.RadialSolution)."""
    return (bilinear_form(v, w, sol.params)
            - linearized_potential_form(sol, v, w))


# ---------------------------------------------------------------------------
# Monte-Carlo estimator of the unreduced double integral


def _uniform_ball(rng, M, N):
    z = rng.standard_normal((M, N))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (rng.random(M) ** (1.0 / N))[:, None]


def _uniform_sphere(rng, M, N):
    if N == 1:
        return rng.choice([-1.0, 1.0], size=(M, 1))
    z = rng.standard_normal((M, N))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def ball_volume(N):
    return sphere_area(N) / N


def mc_offset_sample(u, v, N, s, vol, M, rng, draw_x, draw_dir):
    """Mean of M samples of the offset part of E_s(u, v) and the variance of
    that mean.

    x = draw_x(rng, m) covers a region of volume vol; the offset is
    t * draw_dir(rng, m), a unit direction, with t drawn from the density
    ~ t^{-beta} on (0, 2], beta = max(0, 2s - 1/2).  That density has no
    normalisation once beta >= 1 (s >= 3/4), and close to it the samples
    overflow, so both raise DimensionUnsupported.
    """
    beta = max(0.0, 2.0 * s - 0.5)
    if beta >= 1.0:
        raise DimensionUnsupported(
            f"Monte-Carlo offsets need s < 3/4, got s = {s}")
    c = frac_constant(N, s)
    const = vol * sphere_area(N) * 2.0 ** (1.0 - beta) / (1.0 - beta)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < M:
        m = min(200_000, M - done)
        x = draw_x(rng, m)
        t = 2.0 * rng.random(m) ** (1.0 / (1.0 - beta))
        y = x + t[:, None] * draw_dir(rng, m)
        du = u(x) - u(y)
        dv = du if v is u else v(x) - v(y)
        samp = 0.5 * c * const * t ** (beta - 1.0 - 2.0 * s) * du * dv
        total += float(samp.sum())
        total_sq += float((samp**2).sum())
        done += m
    mean = total / M
    var = max(total_sq / M - mean**2, 0.0)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DimensionUnsupported(
            f"Monte-Carlo estimate is not finite at s = {s}")
    return mean, var / M


def _mc_bilinear(u, v, params, rule):
    """Sample E_s(u, v) from the unreduced definition.

    x ~ Unif(B) and a uniform offset direction (mc_offset_sample);
    mc_remainder adds the rest deterministically.  Returns value with
    1-sigma standard error.
    """
    N, s = params.N, params.s
    mean, var = mc_offset_sample(
        u, v, N, s, ball_volume(N), int(rule.budget),
        np.random.default_rng(rule.seed),
        lambda rng, m: _uniform_ball(rng, m, N),
        lambda rng, m: _uniform_sphere(rng, m, N))
    return ValueWithError(mean + mc_remainder(u, v, N, s), math.sqrt(var))


def mc_remainder(u, v, N, s):
    """Deterministic part of the Monte-Carlo estimators of E_s(u, v).

    The samplers draw offsets |x - y| <= 2 with x in the ball; the pairs cut
    off at |x - y| > 2 (y necessarily outside the ball) and the pairs with x
    outside the ball each reduce to a single radial integral.
    """
    if not _check_compat(u, v):
        return 0.0
    c = frac_constant(N, s)
    ang = angular_factor(N, u.ell)
    r, w = kink_rule((*u.breaks, *v.breaks), 12, 20, 0.3)
    prod = np.asarray(u.profile(r)) * np.asarray(v.profile(r)) * r ** (N - 1)
    c2 = sphere_area(N) * 2.0 ** (-2.0 * s) / (2.0 * s)
    cut_off = 0.5 * c * c2 * ang * float(np.dot(w, prod))
    tau = exterior_tail(r, N, s, ell=u.ell)
    return cut_off + 0.5 * c * ang * float(np.dot(w, prod * tau))


# ---------------------------------------------------------------------------
# Pointwise (-Delta)^s via exact angular reduction


def _sphere_mean_rule(r, t, N, cut_frac, n):
    """Nodes/weights reducing int_{S^{N-1}} F(x + t w) dsigma to the radius
    R = |x + t w|: returns (R, W, mu) with mu = cos angle(x, w-offset).

    The measure is |S^{N-2}| (1 - mu^2)^{(N-3)/2} (R / (r t)) dR on
    [|r - t|, r + t], with Gauss-Jacobi panels absorbing the endpoint
    exponents and panels graded into the C^s cusp at R = 1 when it is
    crossed.  Requires N >= 2 and r, t > 0.
    """
    lo, hi = abs(r - t), r + t
    gam = (N - 3.0) / 2.0
    hi_eff = min(hi, 1.0)
    if lo >= 1.0:
        return np.empty(0), np.empty(0), np.empty(0)
    cut = lo + cut_frac * (hi_eff - lo)
    # left end: absorb (R - lo)^gam on a micro-panel; the leftover factor
    # (R + lo)^gam varies on scale lo, so grade geometrically from that scale
    lev = _lev_for(max(lo, 1e-13), cut - lo, base=2, cap=30)
    left = graded_rule(lo, cut, "left", lev, _RATIO, n, gamma=gam)
    if hi_eff < hi:  # boundary cusp inside the range: grade into R = 1
        lev = _lev_for(1e-8, hi_eff - cut, base=10)
        right = graded_rule(cut, hi_eff, "right", lev, _RATIO, n)
    else:  # right end of the full range: absorb (hi - R)^gam
        Rr, wr = jacobi_panel(cut, hi, gam, n, "right")
        right = (Rr, wr * np.abs(hi - Rr) ** (-gam))
    R, w = join_rules(left, right)
    mu = (R**2 - r**2 - t**2) / (2.0 * r * t)
    om2 = np.clip((1.0 - mu) * (1.0 + mu), 0.0, None)
    dens = np.where(om2 > 0, om2, 1.0) ** gam * R / (r * t)
    return R, sphere_area(N - 1) * w * dens, mu


def _sphere_mean(u, r, t, N, cut_frac, n):
    """I(t) = int_{S^{N-1}} u(x + t w) dsigma for separable u, x = r e_r.

    For ell = 1 profiles the result carries the factor (x_j / r) of the
    evaluation point; this function returns the scalar radial part (the
    coefficient of x_j/r for ell = 1, the plain mean for ell = 0).
    """
    if N == 1:
        pts = np.array([r + t, r - t])
        if u.ell == 0:
            return float(np.sum(u.profile(np.abs(pts))))
        return float(np.sum(np.sign(pts) * np.asarray(u.profile(np.abs(pts)))))
    if r <= 0.0:
        if u.ell == 1:
            return 0.0
        return float(sphere_area(N) * np.asarray(u.profile(np.atleast_1d(t)))[0])
    R, w, mu = _sphere_mean_rule(r, t, N, cut_frac, n)
    if R.size == 0:
        return 0.0
    p = np.asarray(u.profile(R), dtype=float)
    if u.ell == 0:
        return float(np.dot(w, p))
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = np.where(R > 0, (r + t * mu) / np.where(R > 0, R, 1.0), 0.0)
    return float(np.dot(w, p * proj))


def pointwise_flap(u, x, params):
    """(-Delta)^s u at an interior point x, by exact angular averaging.

    The angular integral makes the offset-average I(t) even to second order,
    so no principal value is needed: the value is
    c int_0^inf t^{-1-2s} [|S^{N-1}| u(x) - I(t)] dt with the near field on a
    Gauss-Jacobi rule absorbing t^{1-2s}.  Raises SingularityTooClose when
    dist(x, boundary) < _FLAP_MARGIN.
    """
    N, s = params.N, params.s
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    dist = 1.0 - r
    if dist < _FLAP_MARGIN:
        raise SingularityTooClose(
            f"evaluation point at distance {dist:.3e} from the boundary "
            f"(margin {_FLAP_MARGIN:g})")
    c = frac_constant(N, s)
    S = sphere_area(N)
    ux_rad = float(np.asarray(u.profile(np.atleast_1d(r)))[0])  # radial part at r

    def accumulate(n_jac, n_leg, lev, cut_frac, n_mu):
        rho_near = 0.5 * dist
        tj, wj = jacobi_panel(0.0, rho_near, 1.0 - 2.0 * s, n_jac, "left")
        # near field: t^{-1-2s}(S u - I) = t^{1-2s} * [(S u - I) t^{-2}],
        # with the t^{1-2s} weight absorbed by the Jacobi rule
        acc = 0.0
        for t, w in zip(tj, wj):
            acc += w * (S * ux_rad - _sphere_mean(u, r, t, N, cut_frac, n_mu)) * t ** (-2.0)
        # split the far field at t = r (endpoint collision of the R-range)
        # and at the boundary tangency t = 1 - r
        pts = sorted(set([rho_near, r, abs(1.0 - r), 1.0 + r]))
        pts = [p for p in pts if p >= rho_near]
        if not pts or pts[0] > rho_near:
            pts = [rho_near] + pts
        far_rule = segment_rule(pts, n_leg, grade=set(pts) - {rho_near}, levels=lev,
                                ratio=_RATIO)
        for t, w in zip(far_rule.nodes, far_rule.weights):
            acc += w * t ** (-1.0 - 2.0 * s) * (-_sphere_mean(u, r, t, N, cut_frac, n_mu))
        acc += S * ux_rad * rho_near ** (-2.0 * s) / (2.0 * s)
        return c * acc

    fine = accumulate(20, 10, 12, 0.8, 12)
    coarse = accumulate(14, 7, 9, 0.65, 9)
    val = fine
    # the two resolutions share panel structure, so the difference can
    # underestimate the true error; pad with a conservative floor
    err = 10.0 * abs(fine - coarse) + 1e-8 + 1e-7 * abs(fine)
    if u.ell == 1:
        ang = x[u.j - 1] / r if r > 0 else 0.0
        val *= ang
        err *= abs(ang)
    return ValueWithError(val, err)


def pointwise_flap_radial_reduced(u, params):
    """(-Delta)^s u(0) for radial u by the elementary 1-D reduction:
    c |S^{N-1}| int_0^inf (u(0) - u(t)) t^{-1-2s} dt (independent check)."""
    N, s = params.N, params.s
    c = frac_constant(N, s)
    u0 = float(np.asarray(u.profile(np.atleast_1d(0.0)))[0])
    tj, wj = jacobi_panel(0.0, 0.5, 1.0 - 2.0 * s, 40, "left")
    acc = sum(w * (u0 - float(np.asarray(u.profile(np.atleast_1d(t)))[0])) * t**(-2.0)
              for t, w in zip(tj, wj))
    rule = segment_rule([0.5, 1.0], 12, grade={1.0}, levels=20, ratio=_RATIO)
    acc += float(np.dot(rule.weights,
                        (u0 - np.asarray(u.profile(rule.nodes))) * rule.nodes ** (-1.0 - 2.0 * s)))
    acc += u0 * 1.0 ** (-2.0 * s) / (2.0 * s)
    return c * sphere_area(N) * acc
