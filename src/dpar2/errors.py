"""Exception types shared across the package.

The CLI maps these onto exit codes: input and shape problems exit with 3,
numeric failures (an SVD that did not converge, for instance) with 4.
"""


class DecompositionError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(DecompositionError):
    """Operands have incompatible shapes (inconsistent column counts, etc.)."""


class RankTooLargeError(DecompositionError):
    """Requested rank exceeds what the operand dimensions allow."""


class NonFiniteInputError(DecompositionError):
    """Input contains NaN or infinity."""


class ArchiveFormatError(DecompositionError):
    """On-disk tensor archive is malformed (bad magic, truncated, garbage)."""


class DegenerateInputError(DecompositionError):
    """Input is degenerate for the requested statistic (e.g. all-zero tensor)."""


class IsolatedNodeError(DecompositionError):
    """A graph node has no outgoing weight, so a walk cannot leave it."""


class NumericFailure(DecompositionError):
    """A numeric kernel failed; carries the offending slice index when known.

    ``reason`` is the message without the slice suffix, so a caller that
    knows the slice's index in a larger collection can re-raise with it.
    """

    def __init__(self, message, slice_index=None):
        self.reason = message
        if slice_index is not None:
            message = f"{message} (slice {slice_index})"
        super().__init__(message)
        self.slice_index = slice_index
