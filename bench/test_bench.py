"""The benchmark's predictions, checked on one untraced and one traced cold
campaign of each workload.

Run from the repository root (a few minutes on two cores):

    python3 -m pytest bench/test_bench.py

Each layer metric is predicted to be zero on the workload that bypasses the
layer and non-zero where the workload exercises it (see bench/NOTES.md).
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, Runner, check_reps  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def runs():
    workdir = ROOT / ".bench_out" / f"test-{os.getpid()}"
    out = {}
    try:
        for name in WORKLOADS:
            runner = Runner(name, SEED, workdir / name)
            plain = runner.child()
            traced = runner.child("--trace")
            spans = json.loads((traced["dir"] / "spans.json").read_text())
            out[name] = (plain, traced, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def metrics(runs, name, op=None):
    spans = runs[name][2]
    if op is not None:
        spans = [s for s in spans if s[2] == op]
    return layer_metrics(spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_records_match_untraced(runs, name):
    plain, traced, _ = runs[name]
    assert check_reps([plain, traced]) == []


def test_light_campaign_bypasses_the_oracle(runs):
    m = metrics(runs, "light-campaign")
    for key in ("kernels.kappa_points", "nonlocal_quadrature.engine_lookups",
                "nonlocal_quadrature.form_calls",
                "nonlocal_quadrature.exterior_tail_points",
                "nonlocal_quadrature.oracle_entries", "morse.index_calls",
                "morse.mc_samples"):
        assert m[key] == 0, key
    for key in ("basis.assemble_calls", "basis.eigh_calls", "basis.jacobi_points",
                "semilinear.solves", "semilinear.newton_iterations",
                "spectrum.sectors_solved", "spectrum.resolve_frac",
                "quadrature.segment_rule_calls",
                "report.bytes"):
        assert m[key] > 0, key


def test_oracle_gated_eigs_reuses_engines(runs):
    m = metrics(runs, "oracle-gated-eigs")
    for key in ("kernels.kappa_points", "nonlocal_quadrature.oracle_entries",
                "nonlocal_quadrature.engine_builds",
                "nonlocal_quadrature.exterior_tail_points",
                "spectrum.resolve_frac"):
        assert m[key] > 0, key
    assert m["nonlocal_quadrature.engine_lookups"] > m["nonlocal_quadrature.engine_builds"]
    assert m["morse.index_calls"] == 0
    assert m["morse.mc_samples"] == 0


def test_morse_certify_kernel_work_is_at_n2(runs):
    m = metrics(runs, "morse-certify")
    assert runs["morse-certify"][1]["retries"] == 1
    assert m["morse.index_calls"] == 3
    assert m["morse.mc_samples"] > 0
    assert m["nonlocal_quadrature.exterior_tail_points"] > 0
    assert metrics(runs, "morse-certify", op=0)["kernels.kappa_points"] == 0
    assert metrics(runs, "morse-certify", op=0)["kernels.kappa_s"] == 0
    for op in (1, 2):
        assert metrics(runs, "morse-certify", op=op)["kernels.kappa_points"] > 0


def test_engine_reuse_is_higher_on_oracle_gated_eigs(runs):
    key = "nonlocal_quadrature.engine_hit_ratio"
    assert metrics(runs, "oracle-gated-eigs")[key] > metrics(runs, "morse-certify")[key]
