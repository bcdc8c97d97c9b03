"""Exception types shared across the package."""


class ChromonError(Exception):
    """Base class for every error raised by this package."""


class BadDimension(ChromonError):
    """Dimension outside the supported range [2, 8]."""


class BadOrder(ChromonError):
    """Vertex count that is odd or smaller than 2."""


class NonBijective(ChromonError):
    """A color map that is not a bijection on {0, ..., p-1}."""


class Disconnected(ChromonError):
    """An operation that needs a connected graph received a disconnected one."""


class InternalMismatch(ChromonError):
    """Two computations that must agree disagreed.  Always a bug."""


class GaugeRankMismatch(InternalMismatch):
    """Full and tree-reduced incidence matrices have different ranks.  A bug."""


class NotClosed(ChromonError):
    """A facet of the complex is shared by a number of simplices other than 2."""


class NotConnected(ChromonError):
    """The complex is not connected through shared facets."""


class DegenerateSimplex(ChromonError):
    """A simplex listing the same vertex twice."""


class NotBipartite(ChromonError):
    """The colored graph of a subdivision admits no black/white 2-coloring."""


class BudgetExceeded(ChromonError):
    """Requested enumeration is larger than the configured tuple budget."""


class FormatError(ChromonError):
    """Malformed input text.  Carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class InvariantViolation(ChromonError):
    """A per-graph consistency check failed during a census run.

    ``graph_text`` holds the serialized counterexample so it can be written
    to disk and inspected.
    """

    def __init__(self, message, graph_text):
        super().__init__(message)
        self.graph_text = graph_text

    def __reduce__(self):
        # Two-argument constructor; the default exception pickling would
        # only pass args[0] and break worker-to-parent propagation.
        return (InvariantViolation, (self.args[0], self.graph_text))
