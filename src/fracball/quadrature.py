"""Panel-based Gauss quadrature and the Monte-Carlo sample descriptor.

All singular integrals in the toolkit are handled by composite Gauss rules on
panels that are geometrically graded into algebraic singularities, plus
Gauss-Jacobi panels that absorb a known |h|^gamma weight exactly; every radial
rule is built by graded_rule or kink_rule.  The Gauss rules on (0, 1) are
memoised per process by functools.cache on their exact (n, gamma).
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class ValueWithError:
    """A scalar estimate together with an absolute error estimate."""

    value: float
    error: float

    @property
    def finite(self):
        """Both the value and its error are finite numbers."""
        return bool(np.isfinite(self.value) and np.isfinite(self.error))

    def __sub__(self, other):
        """Difference of two estimates; their absolute errors add."""
        return ValueWithError(self.value - other.value, self.error + other.error)


@dataclass(frozen=True)
class QuadratureRule:
    """Sample count and seed of the Monte-Carlo estimator of E_s
    (nonlocal_quadrature._mc_bilinear).  The deterministic forms take no
    rule: they always use the radial reduction at one fixed resolution."""

    budget: int
    seed: int


@functools.cache
def _legendre01(n):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


@functools.cache
def _jacobi01(n, gamma):
    """Nodes/weights for integrals int_0^1 t^gamma f(t) dt, gamma > -1."""
    x, w = roots_jacobi(n, 0.0, gamma)
    # weight on [-1,1] is (1+x)^gamma; map t = (1+x)/2
    return (x + 1.0) / 2.0, w / 2.0 ** (gamma + 1.0)


def legendre_panel(a, b, n):
    """Gauss-Legendre rule on (a, b)."""
    x, w = _legendre01(n)
    return a + (b - a) * x, (b - a) * w


def jacobi_panel(a, b, gamma, n, singular_at="left"):
    """Rule for int_a^b |t - t_sing|^gamma f(t) dt with t_sing = a or b.

    Returned weights absorb the |t - t_sing|^gamma factor: sum(w * f(x))
    approximates the weighted integral of f alone times the weight.

    a and b may be column arrays of shape (m, 1), one panel per row.  The
    factor L**(gamma + 1) is then still taken as a scalar power row by row:
    NumPy's array power can differ from the scalar one in the last bit.
    """
    t, w = _jacobi01(n, gamma)
    L = b - a
    if np.ndim(L) == 0:
        scale = L ** (gamma + 1.0)
    else:
        scale = np.reshape([x ** (gamma + 1.0) for x in np.ravel(L)], np.shape(L))
    if singular_at == "left":
        return a + L * t, w * scale
    return b - L * t, w * scale


def graded_edges(a, b, toward, levels, ratio):
    """Panel edges on (a, b) geometrically refined toward one endpoint.

    With a, b column arrays of shape (m, 1), one row of edges per row."""
    L = b - a
    sizes = ratio ** np.arange(levels, -1, -1.0)
    sizes = sizes / sizes.sum()
    cuts = np.concatenate(([0.0], np.cumsum(sizes)))
    cuts[-1] = 1.0
    if toward == "left":
        return a + L * cuts
    return b - L * cuts[::-1]


class Rule(NamedTuple):
    """Nodes and weights: sum(weights * f(nodes)) approximates the integral."""

    nodes: np.ndarray
    weights: np.ndarray


def join_rules(*rules):
    """One rule from several, nodes in the order given (row by row for rules
    of several rows)."""
    return Rule(np.concatenate([r[0] for r in rules], axis=-1),
                np.concatenate([r[1] for r in rules], axis=-1))


def graded_rule(a, b, toward, levels, ratio, n, gamma=None):
    """n-point Gauss-Legendre panels on the graded_edges of (a, b).

    With gamma set, the innermost panel (at the end `toward` names) is
    Gauss-Jacobi for |t - end|^gamma instead, and its weights are multiplied
    by |t - end|^-gamma, so that every node shares the plain convention
    sum(w * f(t)) ~ int_a^b f while f = |t - end|^gamma * poly stays exact.
    Nodes are ascending except inside a right-end Jacobi panel.

    a and b may be 1-D arrays (or one of them a scalar): the result then has
    one row of nodes and weights per (a, b) pair, each row equal bit for bit
    to the scalar call's rule.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    edges = graded_edges(np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1)),
                         toward, levels, ratio)
    x, w = _legendre01(n)
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    nodes, weights = lo + (hi - lo) * x, (hi - lo) * w
    if gamma is not None:
        i = 0 if toward == "left" else -1
        t, wj = jacobi_panel(lo[:, i], hi[:, i], gamma, n, toward)
        nodes[:, i], weights[:, i] = t, wj * np.abs(t - edges[:, [i]]) ** (-gamma)
    nodes, weights = nodes.reshape(len(edges), -1), weights.reshape(len(edges), -1)
    return Rule(nodes[0], weights[0]) if scalar else Rule(nodes, weights)


def segment_rule(breaks, n, grade, levels, ratio):
    """Composite rule over [breaks[0], breaks[-1]] split at interior breaks.

    grade lists endpoint values (from breaks) toward which the adjacent panel
    is geometrically refined (for algebraic endpoint behavior); a segment
    graded at both ends is split at its midpoint.
    """
    breaks = sorted(set(float(b) for b in breaks))
    grade = set(float(g) for g in grade)
    parts = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        glo, ghi = lo in grade, hi in grade
        if glo and ghi:
            mid = 0.5 * (lo + hi)
            parts += [graded_rule(lo, mid, "left", levels, ratio, n),
                      graded_rule(mid, hi, "right", levels, ratio, n)]
        elif glo or ghi:
            parts.append(graded_rule(lo, hi, "left" if glo else "right",
                                     levels, ratio, n))
        else:
            parts.append(legendre_panel(lo, hi, n))
    return join_rules(*parts)


def kink_points(breaks):
    """0, 1 and the breaks strictly between them, sorted."""
    return sorted({0.0, 1.0} | {float(x) for x in breaks if 0.0 < x < 1.0})


def kink_rule(breaks, n, levels, ratio):
    """segment_rule on [0, 1] split at the breaks inside (0, 1) and graded
    toward each of them (kinks such as the roots inside |u|^{p-2}) and toward
    the (1 - r)^s edge at r = 1."""
    pts = kink_points(breaks)
    return segment_rule(pts, n, grade=pts[1:], levels=levels, ratio=ratio)
