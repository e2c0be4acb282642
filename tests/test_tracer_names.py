"""The benchmark's tracer finds every function it wraps.

`bench/tracer.py` resolves each name in FUNCTIONS with getattr on its
`fracball` module and reads some arguments by position, so renaming or
deleting one of them breaks only traced benchmark runs.  The tracer is loaded
here from its source, read-only.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    mod = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_modules_import(tracer):
    for name in tracer.MODULES:
        importlib.import_module(f"fracball.{name}")


def test_tracer_functions_resolve(tracer):
    for layer, funcs in tracer.FUNCTIONS.items():
        home = importlib.import_module(f"fracball.{layer}")
        for fname in funcs:
            assert callable(getattr(home, fname, None)), f"fracball.{layer}.{fname}"


@pytest.mark.parametrize("layer,fname,position", [
    ("morse", "_mc_quadratic_pair", {3: "M"}),
    ("nonlocal_quadrature", "_mc_bilinear", {3: "rule"}),
    ("spectrum", "radial_family", {0: "params", 1: "ell", 2: "K"}),
])
def test_tracer_positional_arguments(layer, fname, position):
    fn = getattr(importlib.import_module(f"fracball.{layer}"), fname)
    names = list(inspect.signature(fn).parameters)
    for i, name in position.items():
        assert names[i] == name


def test_tracer_engine_methods(tracer):
    from fracball.nonlocal_quadrature import PairFormEngine

    for meth in tracer.ENGINE_METHODS:
        assert callable(getattr(PairFormEngine, meth, None))
    eng = PairFormEngine(2, 0.5, 0, (), 5, 10)
    n_pairs, nbytes = tracer._engine_size((eng,), {}, None)
    assert n_pairs == eng.rho.size > 0
    assert nbytes > 0
    assert np.isfinite(eng.form(lambda r: 1.0 - r))


_TRACED_MORSE = """
import json, sys, types
mod = types.ModuleType("bench_tracer")
with open(sys.argv[1]) as fh:
    exec(compile(fh.read(), sys.argv[1], "exec"), mod.__dict__)
tracer = mod.Tracer()
tracer.install()
from fracball import cli
argv = ["morse", "--config", sys.argv[2], "--out", sys.argv[3], "--format", "json"]
assert cli.main(argv) == 0
print(json.dumps(mod.layer_metrics(tracer.spans)))
"""


def test_traced_cli_runs_a_morse_point(tmp_path):
    # cli.main reads the memos' cache_info for the provenance block while
    # the tracer's wrappers are installed (get_engine among them); in its
    # own process, since install() rebinds names in every fracball module
    cfg = tmp_path / "cfg.txt"
    cfg.write_text('grid.N = [1]\ngrid.s = [0.5]\n'
                   'grid.nonlinearity = ["power(1.0, 3.0)"]\ntrunc.K = 8\n')
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_MORSE, str(TRACER), str(cfg), str(out)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    metrics = json.loads(run.stdout.splitlines()[-1])
    doc = json.loads((out / "morse.json").read_text())
    assert [r["kind"] for r in doc["records"]] == ["morse", "testfn"]
    assert all("error" not in r["payload"] for r in doc["records"])
    memo = doc["provenance"]["engine-memo"]
    assert memo["misses"] == metrics["nonlocal_quadrature.engine_builds"] > 0
    assert (memo["hits"] + memo["misses"]
            == metrics["nonlocal_quadrature.engine_lookups"])
