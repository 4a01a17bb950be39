"""Exception types shared across the package."""


class StarkZZError(Exception):
    """Base class for all package-specific errors."""


class DimensionCapError(StarkZZError):
    """Total Hilbert dimension exceeds the configured cap."""


class MultiFrequencyFrameError(StarkZZError):
    """Drives at mixed frequencies cannot be made static in a single frame."""


class SingularDetuningError(StarkZZError):
    """A perturbative denominator is inside the resonance guard band."""


class MissingLabelError(StarkZZError):
    """A required bare-state label is absent from a labeled spectrum."""


class SolverFailureError(StarkZZError):
    """A numerical solve (bare-parameter fit, Davidson label solve) failed."""


class StepSizeError(StarkZZError):
    """Propagation step size produced unacceptable unitarity drift."""


class TomographyFitError(StarkZZError):
    """A whole-period read cannot be made or trusted: the tones' period is past
    the read bound, or a rotation angle is so near a half turn that the
    logarithm's branch, and so the rates' sign, is ambiguous."""


class InsufficientAmplitudeError(StarkZZError):
    """Drive amplitudes too weak for the ZZ null to be bracketed."""


class CancellationUnreachableError(StarkZZError):
    """The ZZ null lies outside the allowed amplitude range."""


class NonconvergenceError(StarkZZError):
    """An iterative calibration loop exceeded its iteration cap."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript or []


class ConfigError(StarkZZError):
    """Configuration document failed schema validation."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NonPerturbativeRegimeError(StarkZZError):
    """Quadratic response fit residual exceeds the perturbative threshold."""
