"""Exception types shared across the pipeline.

Each class carries a ``module`` label naming the pipeline stage that owns the
failure; the CLI uses it to prefix error messages. Input errors
(``INPUT_ERRORS``) are prefixed instead with the subcommand that read the
input, since the same file formats feed several stages.
"""


class RebarTieError(Exception):
    """Base class for all pipeline errors."""

    module = "pipeline"


class DegenerateInput(RebarTieError):
    """Input has no unique solution (collinear points, constant data, ...)."""

    module = "geometry-core"


class FrameMismatch(RebarTieError):
    module = "geometry-core"


class BehindCamera(RebarTieError):
    module = "geometry-core"


class SizeMismatch(RebarTieError):
    module = "stereo"


class NonPositiveDisparity(RebarTieError):
    module = "stereo"


class TooFewPoints(RebarTieError):
    module = "cloud-filter"


class NoConsensus(RebarTieError):
    module = "plane-detect"


class LayersTooClose(RebarTieError):
    module = "plane-detect"


class MissingProvenance(RebarTieError):
    module = "mask-gen"


class RayParallel(RebarTieError):
    module = "node-locate"


class NegativeDepth(RebarTieError):
    module = "node-locate"


class ParseError(RebarTieError):
    """Malformed text input; ``line`` is the 1-based offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadParameter(RebarTieError, ValueError):
    """A tunable outside its valid range, raised by the code that uses it."""


class BadCalibration(RebarTieError):
    module = "frames"


class ProtocolError(RebarTieError):
    module = "robot-link"


class ConnectionLost(RebarTieError):
    """Connection dropped mid-sequence; ``report`` holds the partial result."""

    module = "robot-link"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoAttempts(RebarTieError):
    module = "metrics"


class NoMatches(RebarTieError):
    module = "metrics"


# Errors that indicate bad user input rather than a pipeline-stage failure;
# the CLI maps these to exit code 1, everything else to 2.
INPUT_ERRORS = (ParseError, BadParameter, BadCalibration)
