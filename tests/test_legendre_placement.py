"""Every Gauss-Legendre rule of the package, bit for bit against references
placed here panel by panel from the package's gauss_jacobi(n, 0, 0) on
(-1, 1): nodes lo + (hi - lo)(x + 1)/2 and weights (hi - lo) w/2.  None of
the references goes through quadrature.panel_rule."""

import numpy as np
import pytest

from fracball import kernels, morse
from fracball.basis import galerkin_rule
from fracball.nonlocal_quadrature import SeparableFunction
from fracball.quadrature import (gauss_jacobi, graded_edges, graded_rule,
                                 jacobi_panel, kink_panels)


def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on (-1, 1)."""
    return gauss_jacobi(n, 0.0, 0.0)


def _placed(lo, hi, n):
    """n[i]-point Gauss-Legendre panels on (lo[i], hi[i]), one at a time."""
    lo, hi = np.ravel(lo), np.ravel(hi)
    nodes, weights = [], []
    for a, b, m in zip(lo, hi, np.broadcast_to(n, lo.shape)):
        x, w = gauss_legendre(int(m))
        nodes.append(a + (b - a) * (x + 1.0) / 2.0)
        weights.append((b - a) * w / 2.0)
    return np.concatenate(nodes), np.concatenate(weights)


def _assert_rule_equal(rule, want):
    assert np.array_equal(rule[0], want[0])
    assert np.array_equal(rule[1], want[1])


@pytest.mark.parametrize("breaks", [(), (0.4,), (0.3, 0.7)])
@pytest.mark.parametrize("K", [2, 12, 24, 48, 96, 192])
def test_galerkin_rule_places_each_panel_with_its_own_order(K, breaks):
    lo, hi = kink_panels(breaks, 18, 0.3)
    n = np.minimum(np.ceil(1.6 * K * np.sqrt(hi - lo)).astype(int) + 12,
                   max(12, K + 4))
    _assert_rule_equal(galerkin_rule(K, breaks), _placed(lo, hi, n))


def _graded_reference(a, b, toward, levels, ratio, n, gamma):
    edges = graded_edges(a, b, toward, levels, ratio)
    nodes, weights = (v.reshape(-1, n) for v in _placed(edges[:-1], edges[1:], n))
    if gamma is not None:
        i = 0 if toward == "left" else -1
        t, wj = jacobi_panel(edges[:-1][i], edges[1:][i], gamma, n, toward)
        nodes[i], weights[i] = t, wj * np.abs(t - edges[i]) ** (-gamma)
    return nodes.ravel(), weights.ravel()


@pytest.mark.parametrize("gamma", [None, 0.4, -0.3])
@pytest.mark.parametrize("toward", ["left", "right"])
def test_graded_rule_places_its_panels_in_scalar_and_row_mode(toward, gamma):
    _assert_rule_equal(graded_rule(0.1, 0.9, toward, 9, 0.3, 7, gamma=gamma),
                       _graded_reference(0.1, 0.9, toward, 9, 0.3, 7, gamma))
    a, b = np.array([0.0, 0.2, 0.33]), np.array([0.5, 0.77, 1.0])
    nodes, weights = graded_rule(a, b, toward, 12, 0.3, 10, gamma=gamma)
    assert nodes.shape == weights.shape == (3, 13 * 10)
    for row in range(3):
        _assert_rule_equal((nodes[row], weights[row]),
                           _graded_reference(a[row], b[row], toward, 12, 0.3, 10, gamma))


def test_kernel_rules_are_the_hand_built_ones():
    x, w = gauss_legendre(24)
    assert np.array_equal(kernels._XA, (x + 1.0) / 2.0)
    assert np.array_equal(kernels._WA, w / 2.0)
    x, w = gauss_legendre(10)
    edges = kernels._TAU_EDGES
    assert np.array_equal(kernels._XB, np.concatenate(
        [lo + (hi - lo) * (x + 1.0) / 2.0 for lo, hi in zip(edges[:-1], edges[1:])]))
    assert np.array_equal(kernels._WB, np.concatenate(
        [(hi - lo) * w / 2.0 for lo, hi in zip(edges[:-1], edges[1:])]))


def _series_reference(fn):
    # the series rule as equal-in-r (or equal-in-arccos r) panels placed
    # one array per piece, with the last panel up to r = 1 swapped for a
    # separately placed grading toward r = 1
    end = 1.0 if fn.support_radius is None else fn.support_radius
    pts = sorted({0.0, end} | {b for b in fn.breaks if 0.0 < b < end})
    edges = [np.linspace(lo, hi, morse._SERIES_PANELS + 1)[:-1]
             for lo, hi in zip(pts[:-2], pts[1:-1])]
    if fn.support_radius is None:
        edges.append(np.cos(np.linspace(np.arccos(pts[-2]), 0.0,
                                        morse._SERIES_PANELS + 1)))
    else:
        edges.append(np.linspace(pts[-2], end, morse._SERIES_PANELS + 1))
    edges = np.concatenate(edges)
    x, w = gauss_legendre(morse._SERIES_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    r, wr = lo + (hi - lo) * (x + 1.0) / 2.0, (hi - lo) * w / 2.0
    if fn.support_radius is not None:
        return r.ravel(), wr.ravel()
    g = graded_edges(edges[-2], 1.0, "right", *morse._SERIES_EDGE)
    gr, gw = _placed(g[:-1], g[1:], morse._SERIES_NODES)
    return np.concatenate((r[:-1].ravel(), gr)), np.concatenate((wr[:-1].ravel(), gw))


@pytest.mark.parametrize("support_radius", [0.83, None])
def test_series_rule_places_its_panels(support_radius):
    # one d_1 whose support ends inside the ball, one whose support reaches
    # r = 1 and takes the grading toward it
    fn = SeparableFunction(profile=lambda r: r, angular="coordinate",
                           breaks=(0.37, 0.61), support_radius=support_radius)
    rule = morse._series_rule(fn)
    _assert_rule_equal(rule, _series_reference(fn))
    # the grading's levels + 1 panels take the place of one
    extra = 0 if support_radius else morse._SERIES_EDGE[0]
    assert rule[0].size == (3 * morse._SERIES_PANELS + extra) * morse._SERIES_NODES
