"""Exception hierarchy shared by every module of the package."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class LoopArcError(GraphError):
    """An arc (v, v) was supplied; loops are not allowed."""


class VertexOutOfRangeError(GraphError):
    """A vertex id lies outside 0..n-1."""


class SizeLimitExceededError(GraphError):
    """Input is larger than the configured cutoff for this operation."""


class EmptyFactorListError(GraphError):
    """A product of zero factors was requested."""


class IndexOutOfRangeError(GraphError):
    """A factor index lies outside the coordinate range."""


class ArcNotPresentError(GraphError):
    """The operation requires an arc that the graph does not contain."""


class NotConnectedError(GraphError):
    """The operation requires a weakly connected graph."""


class NotThinError(GraphError):
    """The operation requires a thin graph (all neighborhood classes trivial)."""


class NonThinQuotientError(GraphError):
    """A blow-up base graph must be thin."""


class ZeroMultiplicityError(GraphError):
    """Blow-up multiplicities must all be at least 1."""


class InvalidColoringError(GraphError):
    """An edge coloring is not a valid product coloring of the graph."""


class ReconstructionError(GraphError):
    """A computed factorization does not reproduce its input graph."""


class TimeBudgetExceededError(GraphError):
    """A search exceeded its configured time budget."""


class ParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArityMismatchError(ParseError):
    """Declared arc count does not match the number of body lines."""
