"""The benchmark's tracer finds every function it wraps.

`bench/tracer.py` resolves each name in FUNCTIONS with getattr on its
`fracball` module and reads some arguments by position, so renaming or
deleting one of them breaks only traced benchmark runs.  The tracer is loaded
here from its source, read-only.
"""

import importlib
import inspect
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
