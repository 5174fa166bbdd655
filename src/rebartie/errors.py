"""Exception types shared across the pipeline.

A class names what went wrong, not where: the CLI prefixes every message
with the subcommand that raised it, and maps ``INPUT_ERRORS`` to exit code 1.
"""


class RebarTieError(Exception):
    """Base class for all pipeline errors."""


class DegenerateInput(RebarTieError):
    """Input has no unique solution (collinear points, constant data, ...)."""


class FrameMismatch(RebarTieError):
    pass


class BehindCamera(RebarTieError):
    pass


class SizeMismatch(RebarTieError):
    pass


class NonPositiveDisparity(RebarTieError):
    pass


class TooFewPoints(RebarTieError):
    pass


class CoordinateOutOfRange(RebarTieError):
    pass


class NoConsensus(RebarTieError):
    pass


class LayersTooClose(RebarTieError):
    pass


class MissingProvenance(RebarTieError):
    pass


class RayParallel(RebarTieError):
    pass


class NegativeDepth(RebarTieError):
    pass


class ParseError(RebarTieError):
    """Malformed text input; ``line`` is the 1-based offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadParameter(RebarTieError, ValueError):
    """A tunable outside its valid range, raised by the code that uses it."""


class BadCalibration(RebarTieError):
    pass


class ProtocolError(RebarTieError):
    pass


class ConnectionLost(RebarTieError):
    """Connection dropped mid-sequence; ``report`` holds the partial result."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoAttempts(RebarTieError):
    pass


class NoMatches(RebarTieError):
    pass


# Errors that indicate bad user input rather than a pipeline-stage failure;
# the CLI maps these, and any OSError, to exit code 1, everything else to 2.
INPUT_ERRORS = (ParseError, BadParameter, BadCalibration)
