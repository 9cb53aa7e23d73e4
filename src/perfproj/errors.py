"""Exception hierarchy shared by all perfproj modules."""


class PerfprojError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PerfprojError, ValueError):
    """Input violates an operation's precondition (bad prime, mixed primes,
    grade too small, zero polynomial where nonzero is required, ...)."""


class HorizonError(DomainError):
    """A value beyond the explicit values was requested from a tuple that has
    no closed-form generator."""


class ParseError(PerfprojError, ValueError):
    """Syntax or grammar error in polynomial / degree text input."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ComputationDiagnostic(PerfprojError, RuntimeError):
    """A computation could not produce a result (distinct from bad input)."""


class IndeterminateForm(ComputationDiagnostic):
    """An indeterminate extended-integer expression such as inf - inf."""


class FuelExhausted(ComputationDiagnostic):
    """The multiplicity recursion exceeded its step budget."""


class QuotientCapExceeded(ComputationDiagnostic):
    """The quotient-dimension oracle did not stabilize below its degree cap.

    Reported distinctly from an infinite multiplicity: the oracle cannot
    tell a large finite answer from an infinite one past the cap.
    """
