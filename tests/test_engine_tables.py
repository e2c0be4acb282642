"""The oracle engine's array-built tables and its stiffness Gram are exact
rewrites: they equal, bit for bit, a plain loop over the outer nodes with
scalar graded_rule calls, and the per-entry reduced form of unit-coefficient
basis profiles.
"""

import tracemalloc

import numpy as np
import pytest

from fracball import kernels
from fracball import nonlocal_quadrature as nq
from fracball.basis import RadialBasisSpec, RadialProfile, basis_matrix
from fracball.errors import EngineTooLarge
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
    (2, 0.55, 0, (0.4,), 0),
    (2, 0.55, 1, (0.4,), 0),
    (2, 0.55, 0, (0.2, 0.6), 0),
    (2, 0.55, 1, (0.2, 0.6), 0),
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


@pytest.mark.parametrize("budget,pos", [
    (None, 2), (1, 1), (49_999, 1), (50_000, 2), (199_999, 2),
    (200_000, 3), (599_999, 3), (600_000, 4), (10**9, 4)])
def test_ladder_position_for_budget(budget, pos):
    assert nq._ladder_pos_for_budget(budget) == pos


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


def test_engine_memo_keeps_the_64_most_recently_used():
    assert nq._engine.cache_info().maxsize == 64
    keys = [(1, 0.3 + 1e-3 * i, 0, (), 5, 10) for i in range(65)]
    nq._engine.cache_clear()
    try:
        first = nq.get_engine(*keys[0])
        for key in keys[1:64]:
            nq.get_engine(*key)
        assert nq.get_engine(*keys[0]) is first  # now the most recent
        nq.get_engine(*keys[64])  # evicts keys[1], the least recently used
        info = nq._engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 65, 64)
        assert nq.get_engine(*keys[0]) is first
        nq.get_engine(*keys[1])
        assert nq._engine.cache_info().misses == 66
    finally:
        nq._engine.cache_clear()


def _full_array_form(eng, g, h=None):
    """form as one expression over the whole pair arrays (no blocks)."""
    g_out = np.asarray(g(eng.r_out), dtype=float)
    g_in = np.asarray(g(eng.rho), dtype=float)
    dg = g_out[eng.idx] - g_in
    if h is None:
        h_out, dh = g_out, dg
    else:
        h_out = np.asarray(h(eng.r_out), dtype=float)
        dh = h_out[eng.idx] - np.asarray(h(eng.rho), dtype=float)
    return eng.c * (0.5 * float(np.dot(eng.kw, dg * dh))
                    + float(np.dot(eng.wdiag, g_out * h_out)))


def _assert_forms_equal_full_arrays(eng, spec):
    """form and stiffness_gram equal the full-array expressions over the
    materialised idx and rho.  g and h are elementwise,
    so only the engine's blocks vary."""
    def g(r):
        return np.where(r < 1.0, np.abs(1.0 - r**2) ** 0.9 * np.cos(7.0 * r), 0.0)

    def h(r):
        return np.where(r < 1.0, (1.0 - r) * r**2, 0.0)

    assert eng.form(g) == _full_array_form(eng, g)
    assert eng.form(g, h) == _full_array_form(eng, g, h)
    phi = basis_matrix(spec, eng.r_out)
    D = phi[:, eng.idx]
    D -= basis_matrix(spec, eng.rho)
    gram = eng.stiffness_gram(spec)
    for m in range(spec.K):
        for n in range(spec.K):
            want = eng.c * (0.5 * float(np.dot(eng.kw, D[m] * D[n]))
                            + float(np.dot(eng.wdiag, phi[m] * phi[n])))
            assert gram[m, n] == want, (m, n)


def test_blocked_forms_equal_the_full_array_expressions():
    # N = 1, s = 0.9, ell = 1 with one break at ladder position 1: 340k
    # pairs, more than two _FORM_BLOCKs, so the blocks and their remainder
    # all show
    eng = nq.PairFormEngine(1, 0.9, 1, (0.6764659688691,), *nq._LADDER[1])
    assert eng.n_pairs > 2 * nq._FORM_BLOCK and eng.n_pairs % nq._FORM_BLOCK
    assert eng.idx.dtype == np.int32
    _assert_forms_equal_full_arrays(eng, RadialBasisSpec(1, 0.9, 4))


def test_far_pieces_of_several_depths_equal_the_full_array_expressions():
    # two breaks at ladder position 2 (1.75M pairs): the outer nodes far
    # from a segment reach it at several pairs of grading depths, so the
    # outer nodes of each segment fall into several runs
    eng = nq.PairFormEngine(3, 0.45, 0, BREAKS, *nq._LADDER[2])
    segments = len(kink_points(BREAKS)) - 1
    assert len(eng._runs) > 2 * segments
    _assert_forms_equal_full_arrays(eng, RadialBasisSpec(3, 0.45, 4))


def test_too_many_pairs_raise_before_allocating():
    # two outer nodes of 2^30 + 1 pairs each; their columns are never built
    def columns(i):
        raise AssertionError("columns built")

    with pytest.raises(EngineTooLarge):
        next(nq._blocks([(0, 2, 2**30 + 1, columns)]))


@pytest.mark.parametrize("N,s,ell,breaks,pos", [
    (2, 0.6, 0, (), 2),
    (1, 0.7, 1, (), 1),
    (3, 0.45, 0, BREAKS, 1),
])
def test_blocks_tile_the_pairs_in_order(N, s, ell, breaks, pos):
    eng = nq.PairFormEngine(N, s, ell, breaks, *nq._LADDER[pos])
    stop = 0
    for i, pairs, columns in nq._blocks(eng._runs):
        assert pairs.start == stop
        assert pairs.stop - pairs.start == i.size * columns(i)[0].shape[1]
        stop = pairs.stop
    assert stop == eng.n_pairs
    assert np.all(np.diff(eng.idx) >= 0)
    if not breaks:
        # the one segment [0, 1] holds every outer node: one run of the two
        # gap rules toward 1 (graded at its far end) and toward 0 (graded
        # there only at ell = 1)
        n, lev = nq._LADDER[pos]
        (lo, hi, width, _), = eng._runs
        assert (lo, hi) == (0, eng.r_out.size)
        assert width == sum(nq._gap_rule(np.ones(1), s, n, lev, far_sing)[0].shape[-1]
                            for far_sing in (True, ell == 1))


def _numpy_traced():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block = np.ones(1 << 20)
        return tracemalloc.get_traced_memory()[0] - before >= block.nbytes
    finally:
        tracemalloc.stop()


# What an engine keeps: 8 B per pair (kw) plus the per-outer-node arrays
# and the runs.  Measured with NumPy 2 and one BLAS thread on the engine
# below (1.16M pairs, 920 outer nodes, 12 runs): 8 B per pair plus 230 kB,
# against 20 B per pair when idx and rho were kept.
_KEPT_PER_PAIR = 8
_KEPT_PER_NODE = 256
_KEPT_PER_RUN = 16_384
# Transient allocations on top of what the engine keeps, in bytes per pair
# and per pair of a _FORM_BLOCK block.  Measured as above with 32 768-pair
# blocks: 2.3 B per pair for the build, and for the one-profile form its
# product array (8 B per pair) plus 3.6 MB, 109 B per block pair.
_BUILD_EXTRA = 8
_FORM_EXTRA = 8
_FORM_EXTRA_PER_BLOCK_PAIR = 128


def test_engine_build_and_form_memory_stay_bounded():
    # the 1.16M-pair N = 1, ell = 1 engine at s = 0.9 with the break of a
    # one-node solution's u', and one form of u' on it
    if not _numpy_traced():
        pytest.skip("tracemalloc does not see NumPy's array allocations")
    prof = RadialProfile(RadialBasisSpec(1, 0.9, 12),
                         np.random.default_rng(3).standard_normal(12))
    du = prof.derivative
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        eng = nq.PairFormEngine(1, 0.9, 1, (0.67646596886911,), *nq._LADDER[nq._FINE])
        after, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        eng.form(du)
        form_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs, kept = eng.n_pairs, after - start
    assert pairs > 1_100_000
    # no pair-length array besides kw outlives the build
    assert kept <= (_KEPT_PER_PAIR * pairs + _KEPT_PER_NODE * eng.r_out.size
                    + _KEPT_PER_RUN * len(eng._runs))
    assert build_peak - after <= _BUILD_EXTRA * pairs
    assert form_peak - after <= (_FORM_EXTRA * pairs
                                 + _FORM_EXTRA_PER_BLOCK_PAIR * nq._FORM_BLOCK)


# Transient allocations of a gate engine (breaks = ()) on top of what it
# keeps: a per-pair part and a per-block part that its _FORM_BLOCK blocks
# bound.  Measured with NumPy 2 and one BLAS thread on gate engines at
# N = 2, ell = 1, with 32 768-pair blocks and the (2, 0.7) kernel table
# already built: the build allocates 6.8 MB beyond what it keeps at ladder
# position 2 (368k pairs, 18.5 B per pair) and 9.7 MB at position 3 (803k
# pairs), which is 6.6 B per pair plus 133 B per block pair.  The one form
# stays within the break engine's _FORM_EXTRA bounds: 8 B per pair plus
# 71 B per block pair.
_GATE_BUILD_EXTRA = 6
_GATE_BUILD_EXTRA_PER_BLOCK_PAIR = 240


def test_gate_engine_build_and_form_memory_stay_bounded():
    # the N = 2, ell = 1 engine of linearized_block_gate at ladder position
    # 2, and one form of its trial profile r * phi_0(r) in dimension 4
    if not _numpy_traced():
        pytest.skip("tracemalloc does not see NumPy's array allocations")
    phi0 = RadialProfile(RadialBasisSpec(4, 0.7, 12), np.eye(12)[0])

    def trial(r):
        return np.asarray(r) * np.asarray(phi0(r))

    tracemalloc.start()
    try:
        eng = nq.PairFormEngine(2, 0.7, 1, (), *nq._LADDER[2])
        after, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        eng.form(trial)
        form_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = eng.n_pairs
    assert 360_000 < pairs < 380_000
    assert build_peak - after <= (_GATE_BUILD_EXTRA * pairs
                                  + _GATE_BUILD_EXTRA_PER_BLOCK_PAIR * nq._FORM_BLOCK)
    assert form_peak - after <= (_FORM_EXTRA * pairs
                                 + _FORM_EXTRA_PER_BLOCK_PAIR * nq._FORM_BLOCK)


# Transient allocations of one kernel-table build on top of the 17 kB table
# it keeps.  Measured with NumPy 2 and one BLAS thread: 0.87 MB at
# (d, s) = (7, 0.75), an oracle-gated-eigs table, and 0.94 MB at (24, 0.75),
# against 7.5 MB when the direct rule ran on all 1050 nodes at once.
_TABLE_EXTRA = 1_500_000


def test_table_build_memory_stays_bounded():
    if not _numpy_traced():
        pytest.skip("tracemalloc does not see NumPy's array allocations")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # the memoised function's own body: a fresh build, whatever the
        # cache holds
        table = kernels._table.__wrapped__(7, 0.75)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - start <= 2 * table.nbytes
    assert peak - after <= _TABLE_EXTRA


# Transient allocations of a stiffness Gram on top of what its engine keeps:
# the (K, pairs) difference matrix and one pair-length product, 8 (K + 1) B
# per pair, plus one block's inner nodes and one chunk's basis.  Measured
# with NumPy 2 and one BLAS thread: 3.0 MB for K = 4 on the 45k-pair engine
# below, 1.2 MB (37 B per block pair) beyond 8 (K + 1) B per pair.  With
# each block's basis and its difference as whole arrays it took 4.75 MB at
# 65 536-pair blocks and 3.85 MB at 32 768.
_GRAM_EXTRA_PER_BLOCK_PAIR = 48


def test_oracle_gram_memory_stays_bounded():
    # the fine engine of an oracle-gated-eigs entry at d = 7, s = 0.75
    # (budget 40000), and the K = 4 Gram of the assembly gates
    if not _numpy_traced():
        pytest.skip("tracemalloc does not see NumPy's array allocations")
    pos = nq._ladder_pos_for_budget(40_000)
    eng = nq.PairFormEngine(7, 0.75, 0, (), *nq._LADDER[pos])
    spec = RadialBasisSpec(7, 0.75, nq._GRAM_K)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        eng.stiffness_gram(spec)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = eng.n_pairs
    assert 40_000 < pairs < 50_000
    assert peak - after <= (8 * (spec.K + 1) * pairs
                            + _GRAM_EXTRA_PER_BLOCK_PAIR * nq._FORM_BLOCK)
