"""Direct quadrature of the singular-kernel forms E_s and E_{s,L} on the unit
ball.

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

The gates that check the closed forms before use, stiffness_oracle_gate and
linearized_block_gate, live here under one agreement rule (_check_agreement).

The ell = 1 tail constant C(N, s) (kdiff_total) is a closed form.  The
engines that hold one form's pair tables are built once per process for
each exact (N, s, ell, breaks, n, lev), by functools.lru_cache on _engine;
the memo keeps the 64 most recently used, so a long campaign's memory stays
bounded.  get_engine is the public entry point.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import (RadialBasisSpec, basis_matrix, boundary_weight,
                    stiffness_matrix, values_inside)
from .errors import DimensionUnsupported, EngineTooLarge, OracleMismatch
from .kernels import kappa_ell
from .params import frac_constant, sphere_area
from .quadrature import (Rule, ValueWithError, graded_rule, jacobi_panel,
                         join_rules, kink_points, kink_rule, segment_rule)

_RATIO = 0.35
_LEV_DIAG = 16  # geometric levels into the diagonal before the Jacobi panel
# pairs per block of an engine's elementwise work: building and weighting
# its pairs, and the inner nodes, profiles and products of form and
# stiffness_gram, one contiguous slice of the pair arrays per block.  An
# engine keeps only its float kw, 8 B per pair.  Only elementwise work is
# blocked: every sum is one np.dot over the full pair arrays in their fixed
# order, so the block size changes no result
_FORM_BLOCK = 65_536
# an engine holds at most this many pairs, and so fewer outer nodes than
# its int32 idx can index
_MAX_PAIRS = 2**31


@dataclass(frozen=True)
class SeparableFunction:
    """Radial profile times an angular factor, vanishing outside the ball.

    angular 'constant' means u(x) = profile(|x|) (ell = 0); 'coordinate'
    means u(x) = (x_j/|x|) * profile(|x|) (ell = 1), which also covers the
    sign-restricted derivative shapes d_j, whose half-space definition
    collapses to this separable form.  The profile must evaluate to 0 for
    r >= 1 and, for 'coordinate', to 0 at r = 0.  support_radius is the
    radius beyond which the profile vanishes, when that is known to happen
    inside the ball, and None otherwise.  That zero contract is
    load-bearing: a call gives every point at or beyond end = support_radius
    (or 1) the value 0, and on Monte-Carlo chunks never computes the
    profile there.
    """

    profile: object
    angular: str = "constant"
    j: int = 1
    breaks: tuple = ()
    support_radius: float | None = None

    def __post_init__(self):
        if self.angular not in ("constant", "coordinate"):
            raise ValueError(f"unknown angular kind {self.angular!r}")
        if self.j < 1:
            raise ValueError("coordinate index j must be >= 1")

    @property
    def ell(self):
        return 0 if self.angular == "constant" else 1

    def __call__(self, x):
        """Evaluate at points x of shape (npts, N) (or (N,) for one point).

        The points with r < end, end the support_radius or 1, take the
        profile's values as on the whole array (basis.values_inside), and the
        profile is evaluated only there when npts is a multiple of eight,
        as in mc_offset_sample's chunks.  Every other point is exactly 0.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        end = 1.0 if self.support_radius is None else self.support_radius
        vals = values_inside(self.profile, r, r < end)
        if self.ell == 1:
            ang = np.zeros(r.shape)
            with np.errstate(invalid="ignore"):
                np.divide(x[:, self.j - 1], r, out=ang, where=r > 0.0)
            vals *= ang
        return vals


@dataclass(frozen=True)
class SignedPart:
    """The radial profile max(g, 0) (positive) or min(g, 0) of a profile g."""

    base: object
    positive: bool = True

    def __call__(self, r):
        vals = np.asarray(self.base(np.atleast_1d(np.asarray(r, dtype=float))))
        return np.maximum(vals, 0.0) if self.positive else np.minimum(vals, 0.0)


def angular_factor(N, ell):
    """Square of the angular part integrated over S^{N-1}: |S^{N-1}| for
    ell = 0 and |S^{N-1}|/N for a single coordinate (ell = 1)."""
    return sphere_area(N) if ell == 0 else sphere_area(N) / N


def _lev_for(scale, span, base=2):
    """Grading depth so the finest panel of a span resolves `scale`, at
    most 45."""
    if scale <= 0.0:
        return 45
    if scale >= span:
        return base
    return int(min(45, max(base, math.ceil(math.log(span / scale) / math.log(1.0 / _RATIO)))))


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


def _gap_width(n, lev_far, far_sing):
    """Nodes per row of _gap_rule(G, s, n, lev_far, far_sing): graded_rule
    places levels + 1 panels of n nodes on each half."""
    return n * (_LEV_DIAG + 1 + (lev_far if far_sing else 2) + 1)


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


def _runs(r_out, pts, sing, s, n, lev):
    """The engine's pairs in runs (lo, hi, width, columns), in pair order.

    A run is a stretch of consecutive outer nodes lo..hi-1 whose inner
    nodes follow one layout, width per node.  The layout goes segment by
    segment: (sgn, end) for each side of the segment holding the node,
    whose gap rule steps from r toward end, and (p, q, lev_p, lev_q) for
    every other segment, whose rule is built once per run.  columns(i), for
    outer nodes i of the run, returns their (rho, |rho - r|, inner
    weights), each of shape (len(i), width).
    A gap rule's |rho - r| is its own gap node delta, which keeps the
    digits near the diagonal that rho - r has lost.  Nothing pair-length is
    held until columns is called.
    """
    segments = list(zip(pts[:-1], pts[1:]))

    def layout(r):
        out = []
        for p, q in segments:
            if p < r < q:
                out += [(1.0, q), (-1.0, p)]
            else:
                out.append((p, q, *_far_levels(r, p, q, lev, sing)))
        return tuple(out)

    runs, lo = [], 0
    for parts, nodes in itertools.groupby(map(layout, r_out)):
        # a far segment's rule does not depend on the outer node, so each
        # run builds its far rules once
        parts = [part if len(part) == 2 else _far_segment_rule(*part, n)
                 for part in parts]
        width = sum(part.nodes.size if isinstance(part, Rule)
                    else _gap_width(n, lev, part[1] in sing) for part in parts)

        def columns(i, parts=parts):
            r = r_out[i, None]
            cols = []
            for part in parts:
                if not isinstance(part, Rule):
                    sgn, end = part
                    delta, w = _gap_rule(np.abs(end - r[:, 0]), s, n, lev, end in sing)
                    cols.append((r + sgn * delta, delta, w))
                else:
                    rho, w = part
                    h = np.abs(rho - r)
                    cols.append((np.broadcast_to(rho, h.shape), h, np.broadcast_to(w, h.shape)))
            return tuple(np.concatenate(c, axis=1) for c in zip(*cols))

        hi = lo + len(list(nodes))
        runs.append((lo, hi, width, columns))
        lo = hi
    return runs


def _blocks(runs):
    """The runs' outer nodes in blocks of about _FORM_BLOCK pairs: yields
    (i, pairs, columns), the block's outer nodes, the slice of the pair
    arrays they fill, one row of width pairs each, and their run's columns.

    Raises EngineTooLarge above _MAX_PAIRS pairs, which also bounds the
    int32 outer-node indices, before it yields anything.
    """
    total = sum((hi - lo) * width for lo, hi, width, _ in runs)
    if total > _MAX_PAIRS:
        raise EngineTooLarge(f"{total} pairs exceed the engine limit of {_MAX_PAIRS}")
    start = 0
    for lo, hi, width, columns in runs:
        step = max(1, _FORM_BLOCK // width)
        for a in range(lo, hi, step):
            i = np.arange(a, min(a + step, hi))
            yield i, slice(start, start + i.size * width), columns
            start += i.size * width


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
    tj, wtj = jacobi_panel(0.0, 0.5, 2.0 * s - 1.0, 16, "left")
    rho_t = 1.0 / tj
    wt = wtj * tj ** (-(N + 2.0 * s))
    gap = 1.0 - r
    levs = np.array([_lev_for(g, 1.0, base=6) for g in gap], dtype=int)
    groups = []
    for lev in sorted(set(levs.tolist())):  # np.unique would import numpy.ma
        zeta, wz = graded_rule(0.0, 1.0, "left", lev, _RATIO, 10)
        rho = 1.0 + zeta
        i = levs == lev
        groups.append((i, wz * rho ** (N - 1),
                       np.broadcast_arrays(r[i, None], rho, gap[i, None] + zeta)))
    # one kernel call for the near-field nodes of every depth and one for the
    # far field; each row still sums its own nodes, k @ wz + kt @ wt
    k = kappa_ell(*(np.concatenate([nodes[j].ravel() for _, _, nodes in groups])
                    for j in range(3)), N, s, ell)
    kt = kappa_ell(r[:, None], rho_t, rho_t - r[:, None], N, s, ell)
    out = np.empty_like(r)
    lo = 0
    for i, wz, (ri, _, _) in groups:
        out[i] = k[lo:lo + ri.size].reshape(ri.shape) @ wz + kt[i] @ wt
        lo += ri.size
    return out


class PairFormEngine:
    """Precomputed node/weight tables for one reduced bilinear form.

    form(g, h) returns the radial-reduced value; the full N-dimensional form
    is angular_factor(N, ell) times that.  stiffness_gram(spec) returns form
    on every pair of a basis's first functions at once.

    Pair i couples the outer node r_out[idx[i]] with the inner node rho[i].
    The pairs are ordered outer node by outer node, then segment by segment
    (_runs): form sums in that order, so the order fixes its floating-point
    result.  Consecutive outer nodes whose inner nodes follow one layout
    form a run, which fills one contiguous (rows, width) block of the pair
    arrays.  With breaks = (), as in every engine the package builds, the
    one segment [0, 1] holds every outer node, and the engine is one run of
    two gap rules.

    Kept per pair: the float kw, 8 B.  idx and rho are functions of the
    runs, which are kept instead; the idx and rho properties rebuild them
    on each access.  The build, form and stiffness_gram walk the runs in
    blocks of about _FORM_BLOCK pairs (_blocks), each a contiguous slice of
    the pair arrays, and a block's inner nodes are regenerated by its run's
    columns, row for row the nodes the build weighted.  Every sum is one
    np.dot over the full pair arrays in the fixed order.
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
        self._runs = _runs(self.r_out, pts, sing, s, n, lev)
        # listing the blocks raises EngineTooLarge before kw is allocated;
        # the last block ends at the pair count
        blocks = list(_blocks(self._runs))
        # kw = w_out[idx] * win * kappa * (r rho)^{N-1}, over the inner
        # weights win
        self.kw = np.empty(blocks[-1][1].stop)
        for i, pairs, columns in blocks:
            rho, h, win = columns(i)
            r = self.r_out[i, None]
            kw = self.w_out[i, None] * win
            kw *= kappa_ell(r, rho, h, N, s, ell)
            if mpow:
                kw *= (r * rho) ** mpow
            self.kw[pairs] = kw.ravel()
        # diagonal tail weights (per unit kernel constant)
        tail = exterior_tail(self.r_out, N, s, ell=ell)
        if ell == 1:
            tail = tail + kdiff_total(N, s) * self.r_out ** (-2.0 * s)
        self.wdiag = self.w_out * self.r_out ** mpow * tail
        self._grams = {}

    @property
    def n_pairs(self):
        return self.kw.size

    @property
    def idx(self):
        """Each pair's outer node (int32), rebuilt on each access and not
        kept."""
        return np.concatenate([np.repeat(np.arange(lo, hi, dtype=np.int32), width)
                               for lo, hi, width, _ in self._runs])

    @property
    def rho(self):
        """Each pair's inner node, rebuilt on each access and not kept."""
        return np.concatenate([columns(i)[0].ravel()
                               for i, _, columns in _blocks(self._runs)])

    def _inner(self, fn):
        """fn at the inner nodes, block by block (_blocks).

        fn maps 1-D nodes to an array whose last axis runs over them.
        Yields (i, pairs, vals) per block of outer nodes i filling the pair
        slice pairs, with vals of shape (..., len(i), width).
        """
        for i, pairs, columns in _blocks(self._runs):
            rho = columns(i)[0]
            vals = fn(rho.ravel())
            yield i, pairs, vals.reshape(vals.shape[:-1] + rho.shape)

    def _sum(self, g_out, h_out, prod):
        """The form from the profiles at the outer nodes and the pair
        products (g(r_out[idx]) - g(rho)) (h(r_out[idx]) - h(rho))."""
        return self.c * (0.5 * float(np.dot(self.kw, prod))
                         + float(np.dot(self.wdiag, g_out * h_out)))

    def form(self, g, h=None):
        """Reduced bilinear form of two radial profiles (h defaults to g).

        The profiles are evaluated at the inner nodes block by block, into
        one pair-length product array.
        """
        g_out = np.asarray(g(self.r_out), dtype=float)
        same = h is None or h is g
        h_out = g_out if same else np.asarray(h(self.r_out), dtype=float)

        def inner(rho):
            g_in = np.asarray(g(rho), dtype=float)
            if same:
                return g_in[None]
            return np.stack((g_in, np.asarray(h(rho), dtype=float)))

        out = np.stack((g_out,) if same else (g_out, h_out))
        prod = np.empty_like(self.kw)
        for i, pairs, vals in self._inner(inner):
            d = out[:, i, None] - vals
            prod[pairs] = (d[0] * d[-1]).ravel()
        return self._sum(g_out, h_out, prod)

    def stiffness_gram(self, spec):
        """K x K matrix of form(phi_m, phi_n) over the basis functions
        phi_0 .. phi_{K-1} of spec (basis.basis_matrix), memoised per spec.

        The basis is evaluated once at the outer nodes and once at the inner
        ones, block by block as form evaluates a profile, and each entry is
        summed as form sums it, so it equals form on the unit-coefficient
        profiles bit for bit.
        """
        if spec not in self._grams:
            phi = basis_matrix(spec, self.r_out)
            D = np.empty((spec.K, self.n_pairs))
            for i, pairs, vals in self._inner(lambda rho: basis_matrix(spec, rho)):
                D[:, pairs] = (phi[:, i, None] - vals).reshape(spec.K, -1)
            gram = np.empty((spec.K, spec.K))
            for m, n in itertools.combinations_with_replacement(range(spec.K), 2):
                gram[m, n] = gram[n, m] = self._sum(phi[m], phi[n], D[m] * D[n])
            self._grams[spec] = gram
        return self._grams[spec]


# (n, lev) resolution ladder; each entry's error partner is the one before it
_LADDER = [(5, 10), (7, 16), (10, 22), (13, 26), (16, 28)]
_FINE = 2  # ladder position of bilinear_form and of an unset oracle budget
# the oracle's stiffness Grams hold at least this many basis functions: the
# assembly gates check the leading 4 x 4 block
_GRAM_K = 4


# 64 engines hold every engine one command builds (36 for oracle-gated-eigs,
# 54 for verify-all), so the bound costs no hit
@functools.lru_cache(maxsize=64)
def _engine(N, s, ell, breaks, n, lev):
    return PairFormEngine(N, s, ell, breaks, n, lev)


def get_engine(N, s, ell, breaks, n, lev):
    """The PairFormEngine of these exact arguments, built once per process
    while it is among the 64 most recently used."""
    return _engine(N, s, ell, tuple(float(b) for b in breaks), n, lev)


def _ladder_pos_for_budget(budget):
    """Ladder position of an oracle budget: 1 below 50k, 2 below 200k, 3
    below 600k and 4 from there; _FINE when unset."""
    if budget is None:
        return _FINE
    return 1 + bisect.bisect_right((50_000, 200_000, 600_000), budget)


def _engine_pair(N, s, ell, breaks, pos):
    """The engines at ladder position pos >= 1 and at its error partner
    below."""
    return (get_engine(N, s, ell, breaks, *_LADDER[pos]),
            get_engine(N, s, ell, breaks, *_LADDER[pos - 1]))


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


def radial_potential_integral(fn, pu, pv, N, breaks=(), n=12):
    """int_0^1 fn(r) pu(r) pv(r) r^{N-1} dr with kink-aware graded panels of
    n nodes, its error the difference from a coarser rule of 2n/3 nodes per
    panel (_two_resolution)."""
    def integral(r, w):
        return float(np.dot(w * r ** (N - 1),
                            np.asarray(fn(r)) * np.asarray(pu(r)) * np.asarray(pv(r))))

    return _two_resolution(integral(*kink_rule(breaks, n, 22, _RATIO)),
                           integral(*kink_rule(breaks, 2 * n // 3, 14, _RATIO)))


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
# gates: closed forms checked against the oracle before use


def _check_agreement(what, closed, est, scale):
    """Raise OracleMismatch unless the oracle estimate est is finite and
    within max(10 err, 1e-4 scale) of the closed-form value."""
    tol = max(10.0 * est.error, 1e-4 * scale)
    if not est.finite or abs(est.value - closed) > tol:
        raise OracleMismatch(f"{what}: closed form {closed:.10g} vs oracle "
                             f"{est.value:.10g} +- {est.error:.2g}")


def stiffness_oracle_gate(spec, budget):
    """Check the leading min(_GRAM_K, K)^2 block of
    basis.stiffness_matrix(spec) against stiffness_entry_oracle at this
    budget; no check when budget is None.  Run where a sector is built: by
    spectrum.radial_family, semilinear.solve_radial_sign_changing and
    morse.assemble_linearized."""
    if budget is None:
        return
    A = stiffness_matrix(spec)
    m = min(_GRAM_K, spec.K)
    scale = np.abs(A[:m, :m]).max()
    for i in range(m):
        for j in range(i, m):
            est = stiffness_entry_oracle(spec.d, spec.s, i, j, budget=budget)
            _check_agreement(f"stiffness entry ({i},{j}) for d={spec.d}, "
                             f"s={spec.s}", A[i, j], est, scale)


def linearized_block_gate(sol, ell, pair):
    """Check the (0, 0) entry of the linearized block pair of sector ell
    (0 or 1) against quadratic_form_L about the solution sol."""
    spec_d = pair.spec

    def g(r):
        # phi_0 = (1 - r^2)^s in closed form: P_0 = 1, so the profile of
        # the unit vector e_0 gives these values bit for bit, without
        # evaluating the other K - 1 rows at every inner node
        return boundary_weight(spec_d.s, r)

    if ell == 0:
        v = SeparableFunction(profile=g, angular="constant")
        conv = 1.0
    else:
        # ambient trial x_1 * g(|x|): separable profile r * g(r); the block
        # matrix lives in the full-measure convention of dimension d = N + 2,
        # the ambient form carries angular_factor(N, 1)
        v = SeparableFunction(profile=lambda r: np.asarray(r) * np.asarray(g(r)),
                              angular="coordinate", j=1)
        conv = angular_factor(sol.params.N, 1) / sphere_area(spec_d.d)
    est = quadratic_form_L(sol, v, v)
    target = conv * pair.A[0, 0]
    _check_agreement(f"linearized ell={ell} block entry", target, est,
                     max(abs(est.value), abs(target)))


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
    overflow, so both raise DimensionUnsupported.  The offset point
    y = x + t * direction is formed in place in the direction's array.
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
        y = draw_dir(rng, m)
        y *= t[:, None]
        y += x
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

