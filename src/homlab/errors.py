"""Exception types shared across the package."""


class HomlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(HomlabError):
    """Bad user input: unknown preset, malformed config, violated resolution rule."""


class AssemblyError(HomlabError):
    """Coefficient sampling produced unusable data during matrix assembly."""


class SolverError(HomlabError):
    """Iterative solver failed to reach the requested tolerance."""

    def __init__(self, message, iterations=None, breakdown=False):
        super().__init__(message)
        self.iterations = iterations
        self.breakdown = breakdown


class ConsistencyError(HomlabError):
    """A compatibility condition (zero-mean right-hand side) is violated."""


class CoercivityError(HomlabError):
    """The oscillatory operator is not positive definite for this epsilon."""


class SpectralError(HomlabError):
    """Eigenvalue solve failed or returned pairs above the residual tolerance."""


class InsufficientDataError(HomlabError):
    """Too few usable data points for the requested fit or summary."""


class UsageError(HomlabError):
    """An operation was applied to an object that does not support it."""
