"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: ``ValidationError`` means the
request itself was invalid (exit 1), ``DataError`` means the request was fine
but the data could not be processed (exit 2). Each raise site's message names
the fault; a corrupt store or bundle names the JSON path, as ``scaler.kind: missing`` does.
"""


class MoodkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MoodkitError):
    """Bad arguments or configuration."""


class DataError(MoodkitError):
    """Well-formed request, unusable data."""


class CorruptArtifact(DataError):
    """A feature store or model bundle file cannot be parsed."""
