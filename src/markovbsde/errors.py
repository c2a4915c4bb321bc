"""Exception types shared across the library."""


class MarkovBsdeError(Exception):
    """Base class for all library errors."""


class NonGeneratorError(MarkovBsdeError):
    """A scheduled matrix is not a valid rate matrix (column convention)."""


class BadScheduleError(MarkovBsdeError):
    """A piecewise-constant schedule does not partition [0, T]."""


class BadStateError(MarkovBsdeError):
    """State index out of range."""


class ContractionViolatedError(MarkovBsdeError):
    """The z-Lipschitz contraction condition fails on the grid."""


class NonFiniteError(MarkovBsdeError):
    """A solver or functional produced a non-finite value."""


class TooFewPathsError(MarkovBsdeError, ValueError):
    """A Monte Carlo estimate got fewer than the two paths a standard error
    needs."""


class PreconditionUnmetError(MarkovBsdeError):
    """Sampled ordering preconditions of a comparison run failed."""


class ObstacleIncompatibleError(MarkovBsdeError):
    """Obstacle exceeds the terminal condition at the horizon."""


class NoConvergenceError(MarkovBsdeError):
    """Penalization sequence hit the n cap without meeting tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class RateBoundViolatedError(MarkovBsdeError):
    """Short rate left [0, r_max] in strict mode."""


class UnstableGammaError(MarkovBsdeError):
    """Gamma transpose has an eigenvalue with nonnegative real part."""


class NonPositivePricesError(MarkovBsdeError):
    """Stock curves violate strict positivity on the horizon."""


class SingularPhiError(MarkovBsdeError):
    """Stock-price matrix is numerically singular; hedge not extractable."""


class DimensionMismatchError(MarkovBsdeError):
    """Number of stocks does not match the state count."""


class MissingInputsError(MarkovBsdeError):
    """A result directory lacks the files a postprocessing step needs."""


class ConfigError(MarkovBsdeError):
    """Run configuration failed to parse or validate."""
