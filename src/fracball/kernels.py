"""Angular reductions of the Riesz kernel |x - y|^{-(d+2s)} on spheres.

For radial (and degree-one angular) functions the 2d-dimensional double
integral defining the Dirichlet form collapses to a double radial integral
against the sphere-averaged kernel moments

    kappa_0(r, rho)    = int_{S^{d-1}} |r e - rho w|^{-(d+2s)} dsigma(w)
    kappa_diff(r, rho) = int_{S^{d-1}} (1 - e.w) |r e - rho w|^{-(d+2s)} dsigma(w)

(kappa_1 = kappa_0 - kappa_diff is the first cosine moment).  Both are
symmetric in (r, rho) and homogeneous of degree -d-2s, so with
R = max(r, rho), h = |r - rho| and x = h / R in (0, 1]

    kappa(r, rho) = R^{-d-2s} K(x) = h^{-1-2s} R^{1-d} F(x),
    F(x) = x^{1+2s} K(x),

where F stays bounded as the radii merge (x -> 0).  `kappa_moments` reads F
from a per-(d, s) table: one Chebyshev interpolant of degree _DEGREE on each
geometric panel [2^{-k-1}, 2^{-k}], k < _PANELS.  A table is built from the
direct rule the first time its (d, s) is asked for, and then memoised;
importing the module builds none.  The build runs the rule _TABLE_BLOCK
panels at a time, which holds its transient to about 0.9 MB (7.5 MB on all
1050 nodes at once) and takes 4.6-4.9 ms against 6.7-7.2 ms (warm, best of
15, one BLAS thread); the rule works node by node, so the table is the same
bit for bit.  The gap h is passed in explicitly, so x and the h^{-1-2s}
blow-up keep full precision near the diagonal.

The direct rule `_kappa_rule` is a fixed 144-node quadrature in the half-angle
variable.  It generates the tables and serves the points with x below the
finest panel, both through `_kappa_fallback`, which sums the same nodes in log
space at the points where the plain integrand overflows or sin^{d-2} phi
underflows, and it is the oracle the tests hold the table against.  Against a
30-digit adaptive quadrature it is within 6e-14 relative at the sampled
d <= 9 and x in [2^-79, 1].  The table matches the rule to
2e-14 relative for d = 2..9.
"""

import functools

import numpy as np

from .params import sphere_area
from .quadrature import panel_rule

# region A: smooth inner region phi in (0, phi0), one 24-node Gauss panel.
# For x > 0.83 it is the whole rule (phi0 = pi/2), and 16 nodes there are
# off by up to 1e-9 at d = 9.
_XA, _WA = panel_rule(0.0, 1.0, 24)

# region B: logarithmic sweep phi0 -> pi/2, 10-node Gauss panels.  kappa_0
# mass sits near tau = 0, the (1 - cos) moment's near tau = 1 (for s < 1/2),
# so the panels refine toward both ends.
_TAU_EDGES = np.array(
    [0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2,
     1 - 1 / 4, 1 - 1 / 8, 1 - 1 / 16, 1 - 1 / 32, 1 - 1 / 64, 1.0]
)
_XB, _WB = panel_rule(_TAU_EDGES[:-1], _TAU_EDGES[1:], 10)

_HALF_PI = np.pi / 2.0
# log of the smallest normal double: a power below it has lost digits
_LOG_TINY = float(np.log(np.finfo(float).tiny))

# table layout: panel k covers x in [2^{-k-1}, 2^{-k}]
_PANELS = 50
_DEGREE = 20
_X_MIN = 2.0**-_PANELS
# points per evaluation block: bounds the temporaries and keeps them in cache
_CHUNK = 8192
# panels per block of a table build (105 nodes): the direct rule's
# (nodes, 120) temporaries then take about 100 kB each
_TABLE_BLOCK = 5


def _turning_angle(r, rho, h):
    """(4 r rho, phi0): the half angle phi0 = arcsin(h / sqrt(4 r rho)) (pi/2
    once that exceeds 1) where the rule's integrand turns over."""
    rr4 = 4.0 * r * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        u0 = np.where(rr4 > 0.0, h / np.sqrt(np.where(rr4 > 0.0, rr4, 1.0)), 2.0)
    phi0 = np.arcsin(np.minimum(u0, 1.0))
    return rr4, np.maximum(phi0, 1e-300)


def _kappa_rule(r, rho, h, d, s, log_space=False):
    """(kappa_0, kappa_diff) by the direct half-angle rule on 1-D arrays.

    With log_space each node's term (sin phi cos phi)^{d-2}
    (h^2 + 4 r rho sin^2 phi)^{-(d+2s)/2} jac is formed as the exp of its
    log, so no factor overflows or underflows on its own.
    """
    pref = 2.0 ** (d - 1) * sphere_area(d - 1)
    p = (d + 2.0 * s) / 2.0
    rr4, phi0 = _turning_angle(r, rho, h)

    def moments(phi, jac):
        # phi, jac shape (npts, nquad)
        sp = np.sin(phi)
        cp = np.cos(phi)
        if log_space:
            log_sp = np.log(sp)
            log_f = ((d - 2) * (log_sp + np.log(cp)) + np.log(jac)
                     - p * np.logaddexp(2.0 * np.log(h)[:, None],
                                        np.log(rr4)[:, None] + 2.0 * log_sp))
            m0 = np.sum(np.exp(log_f), axis=1)
            md = np.sum(np.exp(log_f + (np.log(2.0) + 2.0 * log_sp)), axis=1)
            return m0, md
        base = (h[:, None] ** 2 + rr4[:, None] * sp**2) ** (-p)
        f0 = (sp * cp) ** (d - 2) * base
        m0 = np.sum(f0 * jac, axis=1)
        md = np.sum(2.0 * sp**2 * f0 * jac, axis=1)
        return m0, md

    # region A
    phiA = phi0[:, None] * _XA[None, :]
    jacA = phi0[:, None] * _WA[None, :]
    k0, kd = moments(phiA, jacA)

    # region B (empty when phi0 == pi/2)
    lr = np.log(_HALF_PI / phi0)
    phiB = phi0[:, None] * np.exp(lr[:, None] * _XB[None, :])
    jacB = phiB * lr[:, None] * _WB[None, :]
    b0, bd = moments(phiB, jacB)
    k0 += b0
    kd += bd

    k0 *= pref
    kd *= pref
    return k0, kd


def _kappa_fallback(r, rho, h, d, s):
    """The direct rule, shape (2, npts), summed in log space where the plain
    integrand loses its digits.

    (h^2 + 4 r rho sin^2 phi)^{-(d+2s)/2} overflows once x = h / max(r, rho)
    is below about 2^{-1024/(d+2s)}, and sin^{d-2} phi at the rule's first
    node underflows below about 2^{-1022/(d-2)}.  Those points take the
    log-space rule; every other point keeps the plain rule's value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.stack(_kappa_rule(r, rho, h, d, s))
        first = np.sin(_turning_angle(r, rho, h)[1] * _XA[0])
        bad = (~np.isfinite(k).all(axis=0) | ((d - 2) * np.log(first) < _LOG_TINY)) & (h > 0.0)
    if bad.any():
        k[:, bad] = np.stack(_kappa_rule(r[bad], rho[bad], h[bad], d, s, log_space=True))
    return k


@functools.cache
def _table(d, s):
    """Chebyshev coefficients of F = x^{1+2s} (K_0, K_diff), built on first use.

    Shape (_DEGREE + 1, 2, _PANELS): coefficient index, moment, panel.  The
    direct rule fills one (2, nodes) array _TABLE_BLOCK panels at a time;
    each node's value is the one a single call on every node gives, so the
    coefficients are too.
    """
    n = _DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    # first-kind Chebyshev nodes of every panel, x = 2^{-k} (t + 3) / 4
    x = np.ldexp((np.cos(theta) + 3.0) / 4.0, -np.arange(_PANELS)[:, None]).ravel()
    F = np.empty((2, x.size))
    for lo in range(0, x.size, _TABLE_BLOCK * n):
        xb = x[lo:lo + _TABLE_BLOCK * n]
        F[:, lo:lo + xb.size] = _kappa_fallback(np.ones(xb.size), 1.0 - xb, xb, d, s)
    F *= x ** (1.0 + 2.0 * s)
    F = F.reshape(2, _PANELS, n)
    T = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    T[0] /= 2.0
    return np.ascontiguousarray(np.einsum("jn,mkn->jmk", T, F))


def _kappa_table(coef, x):
    """F(x), one row per moment row of coef, for x in [_X_MIN, 1] by
    Clenshaw's recurrence."""
    _, e = np.frexp(x)
    k = np.maximum(-e, 0)
    t = np.ldexp(4.0 * x, k) - 3.0  # panel coordinate in [-1, 1], exact
    t2 = 2.0 * t
    rows = (coef.shape[1], x.size)
    b1 = np.zeros(rows)
    b2 = np.zeros(rows)
    b0 = np.empty(rows)
    for c in coef[:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c.take(k, axis=1)
        b2, b1, b0 = b1, b0, b2
    return t * b1 - b2 + coef[0].take(k, axis=1)


def kappa_moments(r, rho, h, d, s, moments=2):
    """Sphere-averaged kernel moments (kappa_0, kappa_diff) for dimension d >= 2.

    r, rho, h broadcast; h must equal |r - rho| (supplied separately so that
    the gap keeps full precision near the diagonal).  With moments = 1 only
    kappa_0 is evaluated and returned, as a 1-tuple: every step is
    elementwise in the moment, so it is the two-moment call's kappa_0 bit
    for bit.
    """
    if d < 2:
        raise ValueError("kappa_moments requires d >= 2; use kappa_moments_1d")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    h = np.asarray(h, dtype=float)
    r, rho, h = np.broadcast_arrays(r, rho, h)
    shape = r.shape
    r, rho, h = r.ravel(), rho.ravel(), h.ravel()
    coef = _table(d, s)[:, :moments]
    out = np.empty((moments, r.size))
    for lo in range(0, r.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        R = np.maximum(r[sl], rho[sl])
        with np.errstate(divide="ignore", invalid="ignore"):
            x = h[sl] / R
            out[:, sl] = (_kappa_table(coef, np.clip(x, _X_MIN, 1.0))
                          * (h[sl] ** (-1.0 - 2.0 * s) * R ** (1.0 - d)))
        rest = ~((x >= _X_MIN) & (x <= 1.0))
        if rest.any():
            out[:, lo + np.flatnonzero(rest)] = _kappa_fallback(
                r[sl][rest], rho[sl][rest], h[sl][rest], d, s)[:moments]
    return tuple(row.reshape(shape) for row in out)


def kappa_moments_1d(r, rho, h, s):
    """Kernel moments for d = 1 (the 0-sphere): exact elementary expressions."""
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    h = np.asarray(h, dtype=float)
    near = h ** (-1.0 - 2.0 * s)
    far = (r + rho) ** (-1.0 - 2.0 * s)
    k0 = near + far
    kdiff = 2.0 * far
    return np.broadcast_arrays(k0 + 0.0 * rho, kdiff + 0.0 * r)[0:2]


def kappa_ell(r, rho, h, d, s, ell):
    """kappa for the angular class: kappa_0 (ell = 0) or kappa_1 (ell = 1).

    At ell = 0 and d >= 2 only kappa_0 is evaluated (kappa_moments with
    moments = 1).
    """
    if d == 1:
        k0, kd = kappa_moments_1d(r, rho, h, s)
    elif ell == 0:
        return kappa_moments(r, rho, h, d, s, moments=1)[0]
    else:
        k0, kd = kappa_moments(r, rho, h, d, s)
    return k0 if ell == 0 else k0 - kd
