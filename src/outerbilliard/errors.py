"""Exception types shared across the package."""


class InvalidCurveError(ValueError):
    """Curve failed convexity/positivity validation.

    Carries the offending angle and value when known.
    """

    def __init__(self, message, phi=None, value=None):
        super().__init__(message)
        self.phi = phi
        self.value = value


class InsideCurveError(ValueError):
    """A phase point that must be exterior lies on or inside the curve."""


class NotInteriorError(ValueError):
    """A point that must be strictly inside the curve is not."""


class TangencyError(RuntimeError):
    """Tangency root isolation or refinement failed.

    ``step`` is the orbit step index when the failure happened mid-orbit.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConvergenceError(RuntimeError):
    """An iterative solve (Newton, refit, Santalo search) did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
