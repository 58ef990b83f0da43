"""Exception types shared across the package."""

__all__ = [
    "LleekitError",
    "ParseError",
    "AssocError",
    "StateExplosion",
    "UnknownNode",
    "ParentMismatch",
    "EmptyEntrySet",
    "NotALoopChart",
    "InvalidWitness",
    "NotLEE",
    "NotLLEE",
    "NotABisimulation",
    "NotCollapse",
    "InternalError",
    "LemmaViolated",
]


class LleekitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LleekitError, ValueError):
    """Malformed expression or file text.  Carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class AssocError(ParseError):
    """Chained binary star without parentheses.

    The binary star has no associativity, so ``a*b*c`` is rejected rather
    than silently picking a grouping.
    """


class StateExplosion(LleekitError):
    """Interpreting an expression exceeded the configured state cap."""


class UnknownNode(LleekitError):
    """A node id was used that does not belong to the chart."""


class ParentMismatch(LleekitError):
    """Two sub-charts of different parent charts were combined."""


class EmptyEntrySet(LleekitError):
    """A generated sub-chart was requested with no entry transitions."""


class NotALoopChart(LleekitError):
    """An elimination step was attempted on a sub-chart that is not a loop chart."""


class InvalidWitness(LleekitError):
    """A witness object or file violates the witness well-formedness rules."""


class NotLEE(LleekitError):
    """An operation required a witness whose replay succeeds, and it does not."""


class NotLLEE(LleekitError):
    """An operation required a layered witness and the given one is not layered."""


class NotABisimulation(LleekitError):
    """A claimed bisimulation relation or function fails the transfer conditions."""


class NotCollapse(LleekitError):
    """A target chart still contains two distinct bisimilar nodes."""


class InternalError(LleekitError):
    """An internal invariant failed: a bug, not a fault of the input.

    The command line reports it with exit code 3.
    """


class LemmaViolated(LleekitError):
    """The image-wise elimination preconditions failed on actual input.

    This signals either corrupted input or a bug: the conditions are theorems
    for genuine collapse maps of layered charts.
    """
