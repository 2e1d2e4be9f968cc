"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the split between
usage, I/O, parse, and numerical failures intact.
"""


class AttnExplainError(Exception):
    """Base class for all package errors."""


class SchemaError(AttnExplainError):
    """A required column or attribute is missing from an input file."""


class EmptyLogError(AttnExplainError):
    """The parsed event log contains no traces."""


class LogParseError(AttnExplainError):
    """Malformed input file; carries a human-readable position if known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)
        self.position = position


class UsageError(AttnExplainError, ValueError):
    """An option value is invalid or inconsistent with another option.
    Also a ValueError, as the library raises it for bad arguments."""


class SplitError(AttnExplainError):
    """Train/test split cannot be performed (too few traces, bad fraction)."""


class SynthSpecError(AttnExplainError):
    """Invalid synthetic process-structure specification."""


class TrainingDataError(AttnExplainError):
    """No training samples could be extracted from the log."""


class DivergenceError(AttnExplainError):
    """Training produced a non-finite loss."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class CheckpointError(AttnExplainError):
    """Model checkpoint is missing, malformed, or shape-inconsistent."""


class DimensionError(AttnExplainError):
    """Vector/matrix operands have incompatible shapes."""


class DegenerateInputError(AttnExplainError):
    """An input is degenerate for the requested operation (zero vector,
    all-PAD prefix, all-zero attention tensor, ...)."""
