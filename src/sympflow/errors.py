"""Exception types raised across the package."""


class DimensionError(ValueError):
    """An input array does not have the dimension an operation requires."""


class ConfigError(ValueError):
    """A configuration file or object is malformed or inconsistent."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or has a bad magic string."""


class KindMismatchError(CheckpointError):
    """A checkpoint holds a different model kind than the caller expects."""


class IntegrationError(RuntimeError):
    """The adaptive integrator failed, e.g. step size underflow on a stiff problem."""


class StaleJetError(RuntimeError):
    """A pullback was given jets that a later sweep on the same thread has overwritten."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, gradient or parameter vector.

    Carries the partial training report (``report`` attribute) for diagnosis.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedSystemError(ValueError):
    """The requested analytic solution or operation is not defined for this system."""
