"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid metric, mismatched algebras, or a bad harness configuration."""


class DegenerateFrameError(ValueError):
    """A vector set cannot form a frame (singular Gram matrix)."""


class SingularExtensorError(ValueError):
    """Inversion of a map whose determinant is numerically zero."""


class TrialError(RuntimeError):
    """The trials of the identity named by the message raised; the exception
    raised is the cause."""
