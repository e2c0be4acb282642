"""Exception hierarchy shared across the toolkit."""


class FracballError(Exception):
    """Base class for all toolkit errors."""


class SingularityTooClose(FracballError):
    """Pointwise evaluation requested too close to the boundary."""


class OracleMismatch(FracballError):
    """A closed-form assembly disagrees with the quadrature oracle."""


class PotentialUnbounded(FracballError):
    """A radial potential evaluated to a non-finite value."""


class MassNotPD(FracballError):
    """The mass matrix failed its positive-definiteness factorization."""


class UnsupportedAngularDegree(FracballError):
    """Angular degree not admissible for the requested dimension."""


class TruncationUnsafe(FracballError):
    """Convergence estimates too large to trust the requested quantity."""


class NoConvergence(FracballError):
    """Newton iteration hit its iteration cap without converging."""


class WrongNodalCount(FracballError):
    """Converged to a solution in a different nodal class than requested."""


class TrivialSolution(FracballError):
    """Newton iteration collapsed onto the zero solution."""


class NotConverged(FracballError):
    """Operation requires a converged solution but the residual is too large."""


class InadmissibleBoundaryData(FracballError):
    """Test-function construction rejected: psi0(1) ~ 0 with s <= 1/2."""


class DimensionUnsupported(FracballError):
    """Direct quadrature checks only implemented for N in {1, 2}."""


class ConfigError(FracballError):
    """Malformed or unknown entries in a campaign configuration."""
