"""Exception types shared across the package."""


class FifError(Exception):
    """Base class for package-specific failures."""


class InvalidConfig(FifError, ValueError):
    """A parameter set violates a documented precondition."""


class NonConvergence(FifError, RuntimeError):
    """The certifying sweep moved the solve's result by more than
    ``tol * (1 - contraction)``, mostly because the doubling budget ran out.

    Carries that sweep's iterate as ``values``, its move as ``residual`` and
    ``passes + K + 1`` as ``iterations``, so callers can see how far it got.
    """

    def __init__(self, message, values=None, residual=None, iterations=None):
        super().__init__(message)
        self.values = values
        self.residual = residual
        self.iterations = iterations


class MatchingConditionError(FifError, RuntimeError):
    """Junction conditions of a differentiable construction failed numerically.

    Raised when the endpoint data of consecutive subinterval maps disagree
    beyond tolerance (Barnsley-Harrington hypothesis check), which signals a
    kernel-smoothness or derivative-data defect.
    """


class CrossCheckError(FifError, RuntimeError):
    """Two independent computations of the same quantity disagree."""
