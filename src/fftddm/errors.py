"""Exception types shared across the solver layers."""


class FftDdmError(Exception):
    """Base class for all library errors."""


class ValidationError(FftDdmError):
    """A composite domain or subdomain violates a structural invariant."""


class SingularOperatorError(FftDdmError):
    """A rectangle operator is singular to working precision."""


class ConvergenceError(FftDdmError):
    """An iterative solve failed to reach the requested tolerance.

    Carries the solve report (with full residual history) as `report` and
    the last iterate as `solution`.
    """

    def __init__(self, message, report=None, solution=None):
        super().__init__(message)
        self.report = report
        self.solution = solution
