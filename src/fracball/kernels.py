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
importing the module builds none.  The gap h is passed in explicitly, so x and
the h^{-1-2s} blow-up keep full precision near the diagonal.

The direct rule `_kappa_rule` is a fixed 144-node quadrature in the half-angle
variable.  It generates the tables, serves the points with x below the finest
panel (through `_kappa_fallback`, which rescales by homogeneity the points
where the rule would overflow), and is the oracle the tests hold the table
against.  Against a 30-digit adaptive quadrature it is within 6e-14 relative
at the sampled d <= 9 and x in [2^-79, 1].  The table matches the rule to
2e-14 relative for d = 2..9.
"""

import functools

import numpy as np
from scipy.special import roots_legendre

from .params import sphere_area

# region A: smooth inner region phi in (0, phi0).  For x > 0.83 it is the
# whole rule (phi0 = pi/2), and 16 nodes there are off by up to 1e-9 at d = 9.
_XA, _WA = roots_legendre(24)
_XA = (_XA + 1.0) / 2.0
_WA = _WA / 2.0

# region B: logarithmic sweep phi0 -> pi/2.  kappa_0 mass sits near tau = 0,
# the (1 - cos) moment's near tau = 1 (for s < 1/2), so refine toward both ends.
_TAU_EDGES = np.array(
    [0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2,
     1 - 1 / 4, 1 - 1 / 8, 1 - 1 / 16, 1 - 1 / 32, 1 - 1 / 64, 1.0]
)
_xb, _wb = roots_legendre(10)
_XB = np.concatenate(
    [lo + (hi - lo) * (_xb + 1.0) / 2.0 for lo, hi in zip(_TAU_EDGES[:-1], _TAU_EDGES[1:])]
)
_WB = np.concatenate(
    [(hi - lo) * _wb / 2.0 for lo, hi in zip(_TAU_EDGES[:-1], _TAU_EDGES[1:])]
)

_HALF_PI = np.pi / 2.0

# table layout: panel k covers x in [2^{-k-1}, 2^{-k}]
_PANELS = 50
_DEGREE = 20
_X_MIN = 2.0**-_PANELS
# points per evaluation block: bounds the temporaries and keeps them in cache
_CHUNK = 8192


def _kappa_rule(r, rho, h, d, s):
    """(kappa_0, kappa_diff) by the direct half-angle rule on 1-D arrays."""
    pref = 2.0 ** (d - 1) * sphere_area(d - 1)
    p = (d + 2.0 * s) / 2.0
    rr4 = 4.0 * r * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        u0 = np.where(rr4 > 0.0, h / np.sqrt(np.where(rr4 > 0.0, rr4, 1.0)), 2.0)
    phi0 = np.arcsin(np.minimum(u0, 1.0))
    phi0 = np.maximum(phi0, 1e-300)

    def moments(phi, jac):
        # phi, jac shape (npts, nquad)
        sp = np.sin(phi)
        cp = np.cos(phi)
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
    """The direct rule, shape (2, npts), rescaled where it overflows.

    Its integrand (h^2 + 4 r rho sin^2 phi)^{-(d+2s)/2} overflows once h is
    below about 2^{-1024/(d+2s)}.  Those points are evaluated at
    lam (r, rho, h), lam = 1/sqrt(h max(r, rho)), where the gap becomes
    sqrt(x), and scaled back by homogeneity: kappa = lam^{d+2s} kappa(lam .).
    Points where the rule is finite keep its value.  The factor
    sin^{d-2} phi does not scale, so below x of about 2^{-1022/(d-2)} it
    underflows either way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.stack(_kappa_rule(r, rho, h, d, s))
    bad = ~np.isfinite(k).all(axis=0) & (h > 0.0)
    if bad.any():
        r, rho, h = r[bad], rho[bad], h[bad]
        lam = 1.0 / np.sqrt(h * np.maximum(r, rho))
        half = lam ** ((d + 2.0 * s) / 2.0)  # lam^{d+2s} may overflow alone
        k[:, bad] = np.stack(_kappa_rule(lam * r, lam * rho, lam * h, d, s)) * half * half
    return k


@functools.cache
def _table(d, s):
    """Chebyshev coefficients of F = x^{1+2s} (K_0, K_diff), built on first use.

    Shape (_DEGREE + 1, 2, _PANELS): coefficient index, moment, panel.
    """
    n = _DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    # first-kind Chebyshev nodes of every panel, x = 2^{-k} (t + 3) / 4
    x = np.ldexp((np.cos(theta) + 3.0) / 4.0, -np.arange(_PANELS)[:, None])
    k0, kd = _kappa_rule(np.ones(x.size), 1.0 - x.ravel(), x.ravel(), d, s)
    F = np.stack([k0, kd]).reshape(2, _PANELS, n) * x ** (1.0 + 2.0 * s)
    T = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    T[0] /= 2.0
    return np.ascontiguousarray(np.einsum("jn,mkn->jmk", T, F))


def _kappa_table(coef, x):
    """F(x), shape (2, npts), for x in [_X_MIN, 1] by Clenshaw's recurrence."""
    _, e = np.frexp(x)
    k = np.maximum(-e, 0)
    t = np.ldexp(4.0 * x, k) - 3.0  # panel coordinate in [-1, 1], exact
    t2 = 2.0 * t
    b1 = np.zeros((2, x.size))
    b2 = np.zeros((2, x.size))
    b0 = np.empty((2, x.size))
    for c in coef[:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c.take(k, axis=1)
        b2, b1, b0 = b1, b0, b2
    return t * b1 - b2 + coef[0].take(k, axis=1)


def kappa_moments(r, rho, h, d, s):
    """Sphere-averaged kernel moments (kappa_0, kappa_diff) for dimension d >= 2.

    r, rho, h broadcast; h must equal |r - rho| (supplied separately so that
    the gap keeps full precision near the diagonal).
    """
    if d < 2:
        raise ValueError("kappa_moments requires d >= 2; use kappa_moments_1d")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    h = np.asarray(h, dtype=float)
    r, rho, h = np.broadcast_arrays(r, rho, h)
    shape = r.shape
    r, rho, h = r.ravel(), rho.ravel(), h.ravel()
    coef = _table(d, s)
    out = np.empty((2, r.size))
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
                r[sl][rest], rho[sl][rest], h[sl][rest], d, s)
    return out[0].reshape(shape), out[1].reshape(shape)


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
    """kappa for the angular class: kappa_0 (ell = 0) or kappa_1 (ell = 1)."""
    if d == 1:
        k0, kd = kappa_moments_1d(r, rho, h, s)
    else:
        k0, kd = kappa_moments(r, rho, h, d, s)
    if ell == 0:
        return k0
    return k0 - kd
