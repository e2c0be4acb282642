"""Panel-based Gauss quadrature and the Monte-Carlo sample descriptor.

All singular integrals in the toolkit are handled by composite Gauss rules on
panels that are geometrically graded into algebraic singularities, plus
Gauss-Jacobi panels that absorb a known |h|^gamma weight exactly.  panel_rule
places every Gauss-Legendre panel of the package: graded_rule, kink_rule,
galerkin_rule (kink_panels, each with its own order), the morse series rule
and the kernels tables all go through it.  Every Gauss rule comes from
gauss_jacobi (SciPy's Golub-Welsch scheme in NumPy); the rules on (0, 1)
are memoised per process by functools.cache on their exact (n, gamma).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


def _jacobi_last_two(n, a, b, x):
    """p_{n-1} and p_n at the points x, n >= 1, for p_k = P_k^{(a,b)} /
    P_k^{(a,b)}(1), by the recurrence of SciPy's eval_jacobi in the
    differences d_k = p_k - p_{k-1}: d_{k+1} = A_k (x - 1) p_k + B_k d_k.
    At a = b = 0, A_k = (2k+1)/(k+1) and B_k = k/(k+1), each one rounding
    of a quotient of exact integers: SciPy's eval_legendre bit for bit."""
    k = np.arange(1, n, dtype=float)
    t = 2.0 * k + a + b
    den = (k + a + 1.0) * (k + a + b + 1.0)
    rows = np.multiply.outer((t + 1.0) * (t + 2.0) / (2.0 * den), x - 1.0)
    p = ((a + b + 2.0) * x + (a - b)) / (2.0 * (a + 1.0))
    prev, d = np.ones_like(x), p - 1.0
    for row, c in zip(rows, (k * (k + b) * (t + 2.0) / (den * t)).tolist()):
        row *= p
        d *= c
        d += row
        prev, p = p, p + d
    return prev, p


def gauss_jacobi(n, a, b):
    """The n-point Gauss rule (x, w) on (-1, 1) for the weight
    (1 - x)^a (1 + x)^b, a, b > -1: nodes ascending, sum(w) = mu_0.

    The Golub-Welsch scheme of SciPy's roots_jacobi, in NumPy.  The nodes
    are the eigenvalues of the symmetric Jacobi matrix, each taken one
    Newton step on p_n, with p_n' from (2n+a+b)(1-x^2) p_n' =
    n((a-b) - (2n+a+b)x) p_n + 2n(n+b) p_{n-1} at the eigenvalues.  The
    weights are 1 / (p_{n-1} p_n'), p_{n-1} at the stepped nodes, scaled to
    sum to mu_0; a rule with a = b is symmetrized.  Every step is written so
    that at a = b = 0 it rounds as roots_legendre does: the Legendre rule is
    SciPy's bit for bit, its nodes at every n and its weights at even n (at
    odd n SciPy takes p_{n-1} at the middle node from a power series).
    """
    k = np.arange(1, n, dtype=float)
    h = 2.0 * k + a + b
    first = k == 1.0  # there k + a + b = h - 1, which cancel (a + b may be -1)
    J = np.zeros((n, n))  # the lower triangle is read
    J.flat[0] = (b - a) / (a + b + 2.0)
    J.flat[n + 1::n + 1] = (b * b - a * a) / (h * (h + 2.0))
    J.flat[n::n + 1] = (2.0 * np.sqrt(k * (k + a) * (k + b) * np.where(first, 1.0, k + a + b))
                        / h * np.sqrt(1.0 / ((h + 1.0) * np.where(first, 1.0, h - 1.0))))
    x = np.linalg.eigvalsh(J)
    pm, p = _jacobi_last_two(n, a, b, x)
    hn = 2.0 * n + a + b
    dp = (n * ((a - b) / hn - x) * p + (2.0 * n * (n + b) / hn) * pm) / (1.0 - x**2)
    x = x - p / dp
    pm = _jacobi_last_two(n, a, b, x)[0]
    # each factor over the geometric mean of its extreme magnitudes, as
    # SciPy keeps the product in range
    for v in (pm, dp):
        log_v = np.log(np.abs(v))
        v /= np.exp((log_v.max() + log_v.min()) / 2.0)
    w = 1.0 / (pm * dp)
    if a == b:
        w = (w + w[::-1]) / 2.0
        x = (x - x[::-1]) / 2.0
    w *= (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
          / math.gamma(a + b + 2.0)) / w.sum()
    return x, w


@functools.cache
def _legendre01(n):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = gauss_jacobi(n, 0.0, 0.0)
    return (x + 1.0) / 2.0, w / 2.0


@functools.cache
def _jacobi01(n, gamma):
    """Nodes/weights for integrals int_0^1 t^gamma f(t) dt, gamma > -1."""
    x, w = gauss_jacobi(n, 0.0, gamma)
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
