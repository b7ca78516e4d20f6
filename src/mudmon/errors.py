"""Exception types shared across the package."""


class MudmonError(Exception):
    """Base class for all package errors."""


class ParseError(MudmonError):
    """Input could not be parsed (malformed JSON)."""


class SchemaError(MudmonError):
    """Input parsed but violates the expected schema or an invariant."""


class NoDeviceError(MudmonError):
    """Packet references no registered device."""


class TableFullError(MudmonError):
    """Reactive entry capacity exhausted for a device table."""


class OrderError(MudmonError):
    """Timestamps arrived out of order."""


class EmptyError(MudmonError):
    """An operation requiring at least one observation got none."""


class InsufficientDataError(MudmonError):
    """Fewer training rows than the configured minimum."""


class LayoutMismatchError(MudmonError):
    """Vector length does not match the layout the model was trained on."""
