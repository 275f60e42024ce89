"""Exception types shared across the package."""


class InvalidCurveError(ValueError):
    """Curve failed convexity/positivity validation."""


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
    """An iterative solve (Newton, Santalo search, Hopf window doubling) did not
    converge, or a result (Jacobi field, i_numeric, S12, a point's p) is not finite."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
