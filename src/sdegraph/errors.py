"""Exception hierarchy shared by all sdegraph modules.

Two broad branches matter to callers: ``InputError`` (bad graphs, bad
files, bad specs — CLI exit code 2) and ``NumericalError`` (a computation
failed to converge or produced inconsistent values — CLI exit code 3).
"""


class SdegraphError(Exception):
    """Base class for every error raised by this package."""


class InputError(SdegraphError):
    """Invalid input: graph, file, or family specification."""


class NumericalError(SdegraphError):
    """A numerical routine failed to converge or lost accuracy."""


# graph core

class InvalidGraph(InputError):
    """Adjacency matrix violates the graph invariants."""


class SelfLoop(InputError):
    pass


class LinkExists(InputError):
    pass


# graph I/O

class MalformedGraph6(InputError):
    pass


class WeightedUnsupported(InputError):
    """Operation requires an unweighted (0/1) graph."""


class DuplicateLink(InputError):
    pass


class NegativeWeight(InputError):
    pass


class DegreeOverflow(InputError):
    """A node's weighted degree (the sum of its link weights) overflows float64."""


class ParseError(InputError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# spectral

class NoConvergence(NumericalError):
    pass


class TooLargeForDense(InputError):
    pass


# SDE solver

class AllDegreesZero(InputError):
    """Every weighted degree is zero (edgeless graph)."""


class RegularGraph(InputError):
    """Operation undefined for regular graphs."""


# families

class BadSpec(InputError):
    pass


# metrics

class UndefinedAssortativity(SdegraphError):
    """End-node degrees have zero variance over the link list."""


class ConstantSeries(SdegraphError):
    """Pearson correlation undefined for a constant series."""


class DisconnectedInput(InputError):
    """Distance-based metrics require a connected graph."""


# harness

class FilterExhausted(NumericalError):
    """Ensemble resampling budget exhausted before reaching the target count."""
