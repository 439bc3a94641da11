"""Exception types shared across the package."""


class GeometryError(ValueError):
    """A cube, cylinder, or stencil does not fit inside the grid/slab."""


class DomainError(ValueError):
    """An exact solution was evaluated outside its admissible domain."""


class ParameterError(ValueError):
    """An exponent or parameter combination violates its precondition."""


class SolverError(RuntimeError):
    """Newton iteration failed to converge.

    Carries the last residual max-norm, the time level and the index of the
    step that failed (0 for the step from the initial data), and that step's
    residual max-norms: the Newton start's, then one per accepted Newton
    iteration.  Callers can report them or retry with a smaller step.
    """

    def __init__(self, message, residual=None, time=None, step=None, history=()):
        super().__init__(message)
        self.residual = residual
        self.time = time
        self.step = step
        self.history = list(history)
