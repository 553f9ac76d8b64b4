"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures with 3.
"""


class MdiqkdError(Exception):
    """Base class for package-specific errors."""


class ConfigError(MdiqkdError, ValueError):
    """A configuration value or combination of values is invalid."""


class NumericalFailure(MdiqkdError, RuntimeError):
    """A computation could not produce a trustworthy result."""


class InversionError(NumericalFailure):
    """The decoy linear system is singular or too ill-conditioned to solve.

    Carries the estimated condition number and, when raised inside the
    two-stage estimator, the stage whose solve failed.
    """

    def __init__(self, message: str, condition: float | None = None,
                 stage: str | None = None):
        super().__init__(message)
        self.condition = condition
        self.stage = stage


class UndefinedCoincidenceError(NumericalFailure):
    """Normalized coincidence C = PC/(P1*P2) is undefined because P1*P2 = 0."""
