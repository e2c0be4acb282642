"""Panel-based Gauss quadrature and the Monte-Carlo sample descriptor.

All singular integrals in the toolkit are handled by composite Gauss rules on
panels that are geometrically graded into algebraic singularities, plus
Gauss-Jacobi panels that absorb a known |h|^gamma weight exactly.  panel_rule
places every Gauss-Legendre panel of the package: graded_rule, kink_rule,
galerkin_rule (kink_panels, each with its own order), the morse series rule
and the kernels tables all go through it.  The Gauss rules on (0, 1) are
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
    """n-point Gauss-Legendre panels on the graded_edges of (a, b), placed
    by panel_rule.

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
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    nodes, weights = (v.reshape(len(edges), -1, n) for v in panel_rule(lo, hi, n))
    if gamma is not None:
        i = 0 if toward == "left" else -1
        t, wj = jacobi_panel(lo[:, i], hi[:, i], gamma, n, toward)
        nodes[:, i], weights[:, i] = t, wj * np.abs(t - edges[:, [i]]) ** (-gamma)
    nodes, weights = nodes.reshape(len(edges), -1), weights.reshape(len(edges), -1)
    return Rule(nodes[0], weights[0]) if scalar else Rule(nodes, weights)


def segment_panels(breaks, grade, levels, ratio):
    """(lo, hi) of every panel of segment_rule, in ascending order.

    The breaks split [breaks[0], breaks[-1]] into segments.  grade lists
    endpoint values (from breaks) toward which the adjacent panel is
    geometrically refined (for algebraic endpoint behavior); a segment graded
    at both ends is split at its midpoint, and a segment graded at neither
    end is one panel.
    """
    breaks = sorted(set(float(b) for b in breaks))
    grade = set(float(g) for g in grade)
    edges = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        glo, ghi = lo in grade, hi in grade
        if glo and ghi:
            mid = 0.5 * (lo + hi)
            edges += [graded_edges(lo, mid, "left", levels, ratio),
                      graded_edges(mid, hi, "right", levels, ratio)]
        elif glo or ghi:
            edges.append(graded_edges(lo, hi, "left" if glo else "right",
                                      levels, ratio))
        else:
            edges.append(np.array([lo, hi]))
    return (np.concatenate([e[:-1] for e in edges]),
            np.concatenate([e[1:] for e in edges]))


def panel_rule(lo, hi, n):
    """Gauss-Legendre panels: n[i] nodes on (lo[i], hi[i]), in panel order.

    The one placer of Gauss-Legendre nodes.  lo and hi may have any shape
    and are read in C order; n is one order for every panel or one per
    panel.  Every panel is placed in one array step, nodes lo + (hi - lo) * x
    and weights (hi - lo) * w: with one order x, w are that order's rule on
    (0, 1) and broadcast against the panels, with one order per panel they
    are the panels' rules laid end to end and lo, hi - lo are repeated.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    L = np.asarray(hi, dtype=float).ravel() - lo
    if np.ndim(n) == 0:
        x, w = _legendre01(int(n))
        lo, L = lo[:, None], L[:, None]
    else:
        rules = [_legendre01(m) for m in np.asarray(n).tolist()]
        x, w = (np.concatenate(v) for v in zip(*rules))
        lo, L = np.repeat(lo, n), np.repeat(L, n)
    return Rule((lo + L * x).ravel(), (L * w).ravel())


def segment_rule(breaks, n, grade, levels, ratio):
    """Composite n-point Gauss-Legendre rule on the segment_panels of
    [breaks[0], breaks[-1]]: the same nodes as graded_rule on each graded
    segment."""
    return panel_rule(*segment_panels(breaks, grade, levels, ratio), n)


def kink_points(breaks):
    """0, 1 and the breaks strictly between them, sorted."""
    return sorted({0.0, 1.0} | {float(x) for x in breaks if 0.0 < x < 1.0})


def kink_rule(breaks, n, levels, ratio):
    """segment_rule on [0, 1] split at the breaks inside (0, 1) and graded
    toward each of them (kinks such as the roots inside |u|^{p-2}) and toward
    the (1 - r)^s edge at r = 1."""
    pts = kink_points(breaks)
    return segment_rule(pts, n, grade=pts[1:], levels=levels, ratio=ratio)


def kink_panels(breaks, levels, ratio):
    """The (lo, hi) panels of kink_rule, for a rule whose order varies by
    panel (panel_rule)."""
    pts = kink_points(breaks)
    return segment_panels(pts, pts[1:], levels, ratio)
