import numpy as np
import pytest

from fracball.params import ProblemParams
from fracball.semilinear import NonlinearitySpec, solve_radial_sign_changing
from fracball.spectrum import solve_sector


@pytest.fixture(autouse=True)
def cold_sector_memo():
    """Every test starts with no memoised radial sector."""
    solve_sector.cache_clear()


@pytest.fixture(scope="session")
def cubic_n1():
    """Converged 1-node cubic-power solution at N=1, shared across modules."""
    params = ProblemParams(1, 0.75)
    nonlin = NonlinearitySpec(1.0, 3.0)
    sol = solve_radial_sign_changing(params, nonlin, target_nodes=1, K=24)
    return params, nonlin, sol


@pytest.fixture(scope="session")
def cubic_n2():
    """Converged 1-node cubic-power solution at N=2, shared across modules."""
    params = ProblemParams(2, 0.5)
    nonlin = NonlinearitySpec(1.0, 3.0)
    sol = solve_radial_sign_changing(params, nonlin, target_nodes=1, K=16)
    return params, nonlin, sol


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
