"""Exception hierarchy shared across the toolkit."""


class FracballError(Exception):
    """Base class for all toolkit errors."""


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
    """Newton iteration hit its iteration cap, or its line search found no decrease."""


class WrongNodalCount(FracballError):
    """Converged to a solution in a different nodal class than requested."""


class TrivialSolution(FracballError):
    """Newton iteration collapsed onto the zero solution."""


class NotConverged(FracballError):
    """Operation requires a converged solution but the residual is too large."""


class InadmissibleBoundaryData(FracballError):
    """Test-function construction rejected: psi0(1) ~ 0 with s <= 1/2, or
    d_j = 0 because u' has no sign change."""


class DimensionUnsupported(FracballError):
    """A direct quadrature check outside its range: the test-function
    checks take N in {1, 2} only, and their Monte-Carlo offsets s < 3/4."""


class EngineTooLarge(FracballError):
    """An oracle engine would hold more pairs than the int32 outer-node
    index of its idx property can address."""


class ConfigError(FracballError):
    """Malformed or unknown entries in a campaign configuration."""
