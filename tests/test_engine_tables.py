"""The oracle engine's array-built tables and its stiffness Gram are exact
rewrites: they equal, bit for bit, a plain loop over the outer nodes with
scalar graded_rule calls, and the per-entry reduced form of unit-coefficient
basis profiles.
"""

import numpy as np
import pytest

from fracball import nonlocal_quadrature as nq
from fracball.basis import RadialBasisSpec, RadialProfile
from fracball.kernels import kappa_ell
from fracball.params import sphere_area
from fracball.quadrature import (ValueWithError, graded_rule, jacobi_panel, kink_points,
                                 segment_rule)

BREAKS = (0.31, 0.72)


@pytest.mark.parametrize("s", [0.3, 0.45, 0.7])
def test_jacobi_panel_rows_equal_scalar_calls(s):
    # NumPy's array power differs from the scalar one in the last bit for a
    # few percent of these lengths, so a row-wise array power fails here
    rng = np.random.default_rng(7)
    a = 1e-3 * rng.random((2000, 1))
    b = a + rng.random((2000, 1))
    t, w = jacobi_panel(a, b, 1.0 - 2.0 * s, 7)
    for k in range(a.shape[0]):
        tk, wk = jacobi_panel(float(a[k, 0]), float(b[k, 0]), 1.0 - 2.0 * s, 7)
        assert np.array_equal(t[k], tk) and np.array_equal(w[k], wk), k


def _reference_tables(N, s, ell, breaks, n, lev):
    """(idx, rho, kw, wdiag) of PairFormEngine(N, s, ell, breaks, n, lev),
    built outer node by outer node and segment by segment."""
    pts = kink_points(breaks)
    sing = set(pts) - ({0.0} if ell == 0 else set())
    r_out, w_out = segment_rule(pts, n, grade=sing, levels=lev, ratio=nq._RATIO)
    idx, rho, gap, win = [], [], [], []

    def add(i, first, second, sgn=None):
        nodes = np.concatenate([first.nodes, second.nodes])
        if sgn is None:  # far segment: the nodes are rho
            rho.append(nodes)
            gap.append(np.abs(nodes - r_out[i]))
        else:  # gap rule: the nodes are |rho - r|
            rho.append(r_out[i] + sgn * nodes)
            gap.append(nodes)
        win.append(np.concatenate([first.weights, second.weights]))
        idx.append(np.full(nodes.size, i, dtype=np.intp))

    for i, r in enumerate(r_out):
        for p, q in zip(pts[:-1], pts[1:]):
            if p < r < q:
                for sgn, end in ((1.0, q), (-1.0, p)):
                    G = abs(end - r)
                    add(i, graded_rule(0.0, 0.5 * G, "left", nq._LEV_DIAG, nq._RATIO, n,
                                       gamma=1.0 - 2.0 * s),
                        graded_rule(0.5 * G, G, "right", lev if end in sing else 2,
                                    nq._RATIO, n), sgn)
            else:
                near = p if r < p else q

                def depth(end):
                    base = nq._lev_for(abs(end - r), q - p) if end == near else 2
                    return max(base, lev) if end in sing else base

                mid = 0.5 * (p + q)
                add(i, graded_rule(p, mid, "left", depth(p), nq._RATIO, n),
                    graded_rule(mid, q, "right", depth(q), nq._RATIO, n))
    idx, rho, gap, win = map(np.concatenate, (idx, rho, gap, win))
    kap = kappa_ell(r_out[idx], rho, gap, N, s, ell)
    meas = (r_out[idx] * rho) ** (N - 1) if N > 1 else 1.0
    kw = w_out[idx] * win * kap * meas
    tail = nq.exterior_tail(r_out, N, s, ell=ell)
    if ell == 1:
        tail = tail + nq.kdiff_total(N, s) * r_out ** (-2.0 * s)
    return idx, rho, kw, w_out * r_out ** (N - 1) * tail


@pytest.mark.parametrize("N,s,ell,breaks,pos", [
    (1, 0.3, 0, (), 0),
    (1, 0.7, 1, BREAKS, 1),
    (2, 0.5, 0, (), 1),
    (2, 0.25, 1, BREAKS, 0),
    (3, 0.6, 0, BREAKS, 0),
    (3, 0.4, 1, (), 1),
])
def test_engine_tables_equal_the_per_node_build(N, s, ell, breaks, pos):
    eng = nq.PairFormEngine(N, s, ell, breaks, *nq._LADDER[pos])
    ref = _reference_tables(N, s, ell, breaks, *nq._LADDER[pos])
    for name, want in zip(("idx", "rho", "kw", "wdiag"), ref):
        assert np.array_equal(getattr(eng, name), want), name


def _unit_profile(d, s, m, K):
    coeffs = np.zeros(K)
    coeffs[m] = 1.0
    return RadialProfile(RadialBasisSpec(d, s, K), coeffs)


@pytest.mark.parametrize("budget", [None, 40_000])
def test_oracle_entries_equal_the_reduced_form(budget):
    d, s = 2, 0.6
    pos = nq._ladder_pos_for_budget(budget)
    entries = [(m, n) for m in range(4) for n in range(4)] + [(5, 2)]
    for m, n in entries:
        K = max(m, n, 1) + 1
        ref = nq.reduced_form(d, s, 0, _unit_profile(d, s, m, K),
                              _unit_profile(d, s, n, K), (), pos)
        ang = sphere_area(d)
        assert nq.stiffness_entry_oracle(d, s, m, n, budget) == ValueWithError(
            ang * ref.value, ang * ref.error), (m, n)


@pytest.mark.parametrize("positive", [True, False])
def test_form_takes_a_signed_part_from_its_base(positive):
    # form(g, SignedPart(g)) evaluates g once per node set and equals, bit
    # for bit, the form of g and a plain function for the signed part
    rng = np.random.default_rng(5)
    prof = RadialProfile(RadialBasisSpec(3, 0.7, 8), rng.standard_normal(8))
    calls = []

    def du(r):
        calls.append(np.size(r))
        return prof.derivative(r)

    def plain(r):
        vals = prof.derivative(r)
        return np.maximum(vals, 0.0) if positive else np.minimum(vals, 0.0)

    part = nq.SignedPart(du, positive=positive)
    eng = nq.PairFormEngine(1, 0.7, 1, (0.4,), 5, 10)
    value = eng.form(du, part)
    assert sum(calls) == eng.r_out.size + eng.rho.size
    assert value == eng.form(prof.derivative, plain)
    assert np.array_equal(part(eng.r_out), plain(eng.r_out))
    assert eng.form(part) == eng.form(plain)


def test_engines_keyed_by_exact_breaks():
    # breaks 1e-13 apart get engines of their own, so a form's value does
    # not depend on which of the two was asked for first.  g oscillates
    # fast enough that the 1e-13 shift of the nodes shows in its form.
    s, a, b = 0.43, (0.5,), (0.5 + 1e-13,)

    def g(r):
        return np.where(r < 1.0, (1.0 - r) * np.sin(1e5 * r), 0.0)

    first = nq.get_engine(1, s, 0, a, 5, 10)
    second = nq.get_engine(1, s, 0, b, 5, 10)
    assert second is not first
    assert second is nq.get_engine(1, s, 0, b, 5, 10)
    assert second.form(g) == nq.PairFormEngine(1, s, 0, b, 5, 10).form(g)
    assert second.form(g) != first.form(g)
