"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: ``ValidationError`` means the
request itself was invalid (exit 1), ``DataError`` means the request was fine
but the data could not be processed (exit 2). Each raise site's message names
the fault.
"""


class MoodkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MoodkitError):
    """Bad arguments or configuration."""


class DataError(MoodkitError):
    """Well-formed request, unusable data."""


class CorruptArtifact(DataError):
    """A feature store or model bundle file cannot be parsed."""


#: What decoding a corrupt file's parsed content can raise before a check
#: names the fault: among others, a JSON integer too large for ``float``
#: overflows and deeply nested JSON exhausts the recursion limit. The readers
#: report these as ``CorruptArtifact``.
MALFORMED_CONTENT = (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError, ValueError)
