"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the split between
usage, I/O, parse, and numerical failures intact.
"""

import numbers


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


def check_number(name: str, value, interval: str, integer: bool = False) -> None:
    """Raise UsageError unless ``value`` is a number, an integer if ``integer``,
    in ``interval``, written as "[0, 1)" or "[1, inf)"; no bool or NaN is."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if (isinstance(value, bool) or not isinstance(value, kind) or not low <= value <= high
            or (value, interval[0]) == (low, "(") or (value, interval[-1]) == (high, ")")):
        raise UsageError(f"{name} must be {noun} in {interval}, got {value!r}")


class SplitError(AttnExplainError):
    """Train/test split cannot be performed (too few traces)."""


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
