"""Exception types shared across the package."""


class RoamTokenError(Exception):
    """Base class for all package-specific errors."""


class SingularModel(RoamTokenError):
    """The combined observation model is numerically singular."""


class GenerationFailed(RoamTokenError):
    """Random graph generation exhausted its retry budget."""


class SequenceExhausted(RoamTokenError):
    """A non-cyclic deterministic graph sequence has no frame for the requested time."""


class UnsupportedProcess(RoamTokenError):
    """The operation is undefined for this kind of graph process."""


class SolveFailed(RoamTokenError):
    """A linear solve left a residual above tolerance.

    ``residual`` is the worst relative residual, and ``tick`` the tick it
    belongs to, where the raiser knows them.
    """

    def __init__(self, message: str, residual: float | None = None, tick: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.tick = tick


class NonFiniteMetric(RoamTokenError):
    """A metric series contains NaN or infinity."""


class ConfigError(RoamTokenError):
    """Invalid configuration file, key, or override."""
