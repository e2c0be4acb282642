"""The Brent root finder against scipy.optimize.brentq, and the package's
commands without scipy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from fracball import morse
from fracball.basis import RadialBasisSpec, RadialProfile
from fracball.roots import brentq

SRC = Path(__file__).resolve().parents[1] / "src"


def _brackets(prof):
    """The sign-change cells of sign_change_radii's 2048-cell scan."""
    r = np.linspace(0.0, 1.0, 2049)
    sign = np.sign(prof.poly_part(r))
    return [(r[i], r[i + 1]) for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]


def test_brentq_matches_scipy_on_profile_roots():
    rng = np.random.default_rng(351)
    roots = 0
    while roots < 1200:
        K = int(rng.integers(2, 49))
        spec = RadialBasisSpec(int(rng.integers(1, 9)), float(rng.uniform(0.05, 0.95)), K)
        prof = RadialProfile(spec, rng.standard_normal(K) / np.arange(1, K + 1))
        brackets = _brackets(prof)
        for a, b in brackets:
            assert brentq(prof.poly_at, a, b) == scipy_brentq(prof.poly_at, a, b), (spec, a)
        assert prof.sign_change_radii() == [scipy_brentq(prof.poly_at, a, b)
                                            for a, b in brackets]
        roots += len(brackets)


def test_brentq_matches_scipy_on_derivative_sign_radii(cubic_n1, cubic_n2):
    for _, _, sol in (cubic_n1, cubic_n2):
        du = sol.profile.derivative
        r = np.linspace(0.0, 1.0, 4097)[1:-1]
        sgn = np.sign(du(r))
        cells = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        assert cells.size > 0
        expected = [scipy_brentq(lambda t: float(du(np.array([t]))[0]), r[i], r[i + 1])
                    for i in cells]
        assert morse._derivative_sign_radii(du) == expected


def test_brentq_matches_scipy_on_smooth_functions():
    cases = [(np.cos, 0.0, 3.0), (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
             (lambda x: np.exp(x) - 10.0, -1.0, 4.0), (lambda x: x, -1.0, 2.0),
             (lambda x: np.tanh(50.0 * (x - 0.3)), 0.0, 1.0)]
    for f, a, b in cases:
        assert brentq(f, a, b) == scipy_brentq(f, a, b)
        assert brentq(f, b, a) == scipy_brentq(f, b, a)
    # a zero at an end of the bracket is returned as is
    assert brentq(lambda x: x, 0.0, 1.0) == scipy_brentq(lambda x: x, 0.0, 1.0) == 0.0


def test_brentq_same_sign_bracket_raises_like_scipy():
    f = lambda x: x * x + 1.0  # noqa: E731
    with pytest.raises(ValueError, match="different signs"):
        scipy_brentq(f, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, -1.0, 1.0)


def test_brentq_nan_raises():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: float("nan") if x > 0.5 else -1.0, 0.0, 1.0)


# each command in turn in one fresh interpreter, printing after each the
# scipy modules loaded so far ("loaded") and whether the thread pool's
# concurrent.futures and its logging are ("pool")
_COMMANDS = """
import sys
from fracball.cli import main
cfg, out = sys.argv[1:]
for argv in (["eigs"], ["conjecture"], ["solve"], ["morse"],
             ["eigs", "--oracle-budget", "40000"]):
    assert main([argv[0], "--config", cfg, "--out", out, *argv[1:]]) == 0, argv
    print("loaded", *argv, sorted(m for m in sys.modules if m.startswith("scipy")))
    print("pool", *argv, sorted(m for m in sys.modules
                                if m in ("concurrent.futures", "logging")))
"""
_COMMAND_NAMES = ["eigs", "conjecture", "solve", "morse", "eigs --oracle-budget 40000"]


@pytest.fixture(scope="module")
def fresh_commands(tmp_path_factory):
    """The stdout of _COMMANDS, and its output directory."""
    tmp_path = tmp_path_factory.mktemp("commands")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text('grid.N = [1]\ngrid.s = [0.5]\n'
                   'grid.nonlinearity = ["power(1.0, 3.0)"]\n'
                   'trunc.K = 12\n')
    env = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _COMMANDS, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines(), tmp_path / "out"


def test_commands_import_no_scipy(fresh_commands):
    lines, out = fresh_commands
    assert [line for line in lines if line.startswith("loaded")] == [
        f"loaded {name} []" for name in _COMMAND_NAMES]
    for command in ("eigs", "conjecture", "solve", "morse"):
        assert (out / f"{command}.json").exists()


def test_commands_without_jobs_import_no_thread_pool(fresh_commands):
    # spectrum imports ThreadPoolExecutor only when --jobs asks for threads
    lines, _ = fresh_commands
    assert [line for line in lines if line.startswith("pool")] == [
        f"pool {name} []" for name in _COMMAND_NAMES]
