"""Bracketed scalar root finding.

brentq is a port of SciPy's brentq.c to Python floats: the same inverse
quadratic extrapolation, secant interpolation and bisection rules, the same
tolerances as SciPy's defaults, so it returns the root that
scipy.optimize.brentq returns with its defaults, bit for bit, without
importing scipy.optimize and the modules that come with it.  scan_roots
brackets the sign changes of a function's values on a grid and refines each
one.
"""

import math

import numpy as np

_EPS = 2.220446049250313e-16  # numpy.finfo(float).eps
_XTOL = 2e-12
_RTOL = 4.0 * _EPS
_MAXITER = 100


def brentq(f, a, b):
    """A root of the scalar function f in [a, b], where f(a) and f(b) have
    opposite signs, to within _XTOL + _RTOL * |root|.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when _MAXITER steps do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best point in xcur; the bracket is [xcur, xblk]
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur}")


def scan_roots(values, fn_at, r):
    """brentq(fn_at, r[i], r[i + 1]) for every cell of the ascending grid r
    over which values, the function at r, change sign strictly; fn_at is
    its scalar evaluator on each bracket."""
    sign = np.sign(values)
    return [brentq(fn_at, r[i], r[i + 1])
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx
