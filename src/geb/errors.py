"""Exception hierarchy shared by all geb modules.

The eigensolver raises none of these: it always terminates, and the corpus
drivers report a wrong spectrum as a verdict row, not as an exception.
"""


class GebError(Exception):
    """Base class for every error raised by this package."""


# graph construction

class VertexOutOfRange(GebError, ValueError):
    """An edge endpoint is not a valid vertex index."""


class SelfLoop(GebError, ValueError):
    """An edge joins a vertex to itself."""


class NTooLarge(GebError, ValueError):
    """Requested vertex count is outside the supported 1..62 range."""


class CycleTooShort(GebError, ValueError):
    """Cycles need at least three vertices."""


# graph6 format

class Graph6Error(GebError, ValueError):
    """Base class for graph6 decode/encode failures."""


class BadSizeByte(Graph6Error):
    """The leading size byte does not encode a supported vertex count."""


class TruncatedBits(Graph6Error):
    """Payload length does not match ceil(n(n-1)/2 / 6) bytes."""


class ByteOutOfRange(Graph6Error):
    """A payload byte is outside the printable graph6 range [63, 126]."""


class HeaderMismatch(Graph6Error):
    """A '>>' prefix is present but is not the '>>graph6<<' header."""


class CorpusDecodeError(Graph6Error):
    """A corpus line failed to decode; the message names the line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# enumeration

class NTooLargeForCanonicalization(GebError, ValueError):
    """Brute-force canonical labeling is capped at 10 vertices."""


class NTooLargeForEnumeration(GebError, ValueError):
    """Built-in exhaustive enumeration is capped at 8 vertices."""


# numerics

class InvariantViolation(GebError, ArithmeticError):
    """A mathematically guaranteed inequality failed numerically."""


# bounded vectors / bounds

class LengthMismatch(GebError, ValueError):
    """Two vectors that must share a length do not."""


class EmptyVector(GebError, ValueError):
    """A bounded vector needs at least one entry."""


class NegativeFactor(GebError, ArithmeticError):
    """A mean fell outside its vector's stated bounds."""


class EmptyGraph(GebError, ValueError):
    """The operation needs at least one edge (lambda_1 > 0)."""


class ZeroRank(GebError, ValueError):
    """The rank-restricted construction needs a nonzero eigenvalue."""
