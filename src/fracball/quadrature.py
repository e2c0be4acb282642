"""Panel-based Gauss quadrature utilities and the quadrature-rule descriptor.

All singular integrals in the toolkit are handled by composite Gauss rules on
panels that are geometrically graded into algebraic singularities, plus
Gauss-Jacobi panels that absorb a known |h|^gamma weight exactly.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class ValueWithError:
    """A scalar estimate together with an absolute error estimate."""

    value: float
    error: float

    def __float__(self):
        return float(self.value)

    @property
    def finite(self):
        """Both the value and its error are finite numbers."""
        return bool(np.isfinite(self.value) and np.isfinite(self.error))

    def __sub__(self, other):
        """Difference of two estimates; their absolute errors add."""
        return ValueWithError(self.value - other.value, self.error + other.error)


@dataclass(frozen=True)
class QuadratureRule:
    """Scheme selector plus budget for the oracle integrators.

    scheme: 'tensor-desingularized' (deterministic graded panels),
    'adaptive-subdivision' (deterministic, refined until the two-resolution
    error estimate meets target or the budget is exhausted), or 'monte-carlo'.
    budget: node-count scale (deterministic) or sample count (monte-carlo).
    """

    scheme: str = "tensor-desingularized"
    budget: int = 100_000
    seed: int | None = None
    target_error: float | None = None

    def __post_init__(self):
        if self.scheme not in (
            "tensor-desingularized",
            "adaptive-subdivision",
            "monte-carlo",
        ):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.scheme == "monte-carlo" and self.seed is None:
            raise ValueError("monte-carlo rules require a seed")


_LEGENDRE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_JACOBI_CACHE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _legendre01(n):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    if n not in _LEGENDRE_CACHE:
        x, w = roots_legendre(n)
        _LEGENDRE_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _LEGENDRE_CACHE[n]


def _jacobi01(n, gamma):
    """Nodes/weights for integrals int_0^1 t^gamma f(t) dt, gamma > -1."""
    key = (n, round(gamma, 14))
    if key not in _JACOBI_CACHE:
        x, w = roots_jacobi(n, 0.0, gamma)
        # weight on [-1,1] is (1+x)^gamma; map t = (1+x)/2
        _JACOBI_CACHE[key] = ((x + 1.0) / 2.0, w / 2.0 ** (gamma + 1.0))
    return _JACOBI_CACHE[key]


def legendre_panel(a, b, n):
    """Gauss-Legendre rule on (a, b)."""
    x, w = _legendre01(n)
    return a + (b - a) * x, (b - a) * w


def jacobi_panel(a, b, gamma, n, singular_at="left"):
    """Rule for int_a^b |t - t_sing|^gamma f(t) dt with t_sing = a or b.

    Returned weights absorb the |t - t_sing|^gamma factor: sum(w * f(x))
    approximates the weighted integral of f alone times the weight.
    """
    t, w = _jacobi01(n, gamma)
    L = b - a
    if singular_at == "left":
        return a + L * t, w * L ** (gamma + 1.0)
    return b - L * t, w * L ** (gamma + 1.0)


def graded_edges(a, b, toward, levels, ratio):
    """Panel edges on (a, b) geometrically refined toward one endpoint."""
    L = b - a
    sizes = ratio ** np.arange(levels, -1, -1.0)
    sizes = sizes / sizes.sum()
    cuts = np.concatenate(([0.0], np.cumsum(sizes)))
    cuts[-1] = 1.0
    if toward == "left":
        return a + L * cuts
    return b - L * cuts[::-1]


@dataclass
class CompositeRule:
    """Flat collection of nodes/weights assembled from panels."""

    nodes: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def add_legendre(self, a, b, n):
        x, w = legendre_panel(a, b, n)
        self.nodes = np.concatenate([self.nodes, x])
        self.weights = np.concatenate([self.weights, w])

    def add_graded(self, a, b, toward, levels, ratio, n):
        edges = graded_edges(a, b, toward, levels, ratio)
        for lo, hi in zip(edges[:-1], edges[1:]):
            self.add_legendre(lo, hi, n)


def segment_rule(breaks, n, grade=(), levels=14, ratio=0.3):
    """Composite rule over [breaks[0], breaks[-1]] split at interior breaks.

    grade lists endpoint values (from breaks) toward which the adjacent panel
    is geometrically refined (for algebraic endpoint behavior).
    """
    rule = CompositeRule()
    breaks = sorted(set(float(b) for b in breaks))
    grade = set(float(g) for g in grade)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        glo, ghi = lo in grade, hi in grade
        if glo and ghi:
            mid = 0.5 * (lo + hi)
            rule.add_graded(lo, mid, "left", levels, ratio, n)
            rule.add_graded(mid, hi, "right", levels, ratio, n)
        elif glo:
            rule.add_graded(lo, hi, "left", levels, ratio, n)
        elif ghi:
            rule.add_graded(lo, hi, "right", levels, ratio, n)
        else:
            rule.add_legendre(lo, hi, n)
    return rule
