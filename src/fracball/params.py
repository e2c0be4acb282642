"""Problem parameters and the special-function constants attached to them."""

from dataclasses import dataclass
from math import gamma, pi

from .errors import UnsupportedAngularDegree


@dataclass(frozen=True)
class ProblemParams:
    """Ambient dimension N and fractional order s indexing every computation."""

    N: int
    s: float

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie strictly in (0, 1), got {self.s!r}")


def frac_constant(N: int, s: float) -> float:
    """Normalization constant c(N, s) = 2^{2s} pi^{-N/2} s Gamma((N+2s)/2) / Gamma(1-s)."""
    ProblemParams(N, s)
    return 2.0 ** (2 * s) * pi ** (-N / 2.0) * s * gamma((N + 2 * s) / 2.0) / gamma(1.0 - s)


def sphere_area(N: int) -> float:
    """Surface measure |S^{N-1}| = 2 pi^{N/2} / Gamma(N/2); equals 2 for N = 1."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


def harmonic_multiplicity(N: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics on S^{N-1}.

    For N = 1 the decomposition degenerates to even/odd parity classes, so only
    ell in {0, 1} is admitted, each with multiplicity 1.
    """
    if N < 1 or ell < 0:
        raise ValueError(f"need N >= 1 and ell >= 0, got N={N}, ell={ell}")
    if N == 1:
        if ell > 1:
            raise UnsupportedAngularDegree(
                f"N=1 admits only parity classes ell in {{0, 1}}, got ell={ell}"
            )
        return 1
    from math import comb

    second = comb(N + ell - 3, ell - 2) if ell >= 2 else 0
    return comb(N + ell - 1, ell) - second
