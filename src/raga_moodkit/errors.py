"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: ``ValidationError`` means the
request itself was invalid (exit 1), ``DataError`` means the request was fine
but the data could not be processed (exit 2).
"""


class MoodkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MoodkitError):
    """Bad arguments or configuration."""


class DataError(MoodkitError):
    """Well-formed request, unusable data."""


# --- audio decoding and segmentation ---

class MalformedHeader(DataError):
    """Input is not a RIFF/WAVE stream."""


class UnsupportedEncoding(DataError):
    """WAV codec other than PCM8/PCM16/PCM24/PCM32/float32."""


class TruncatedData(DataError):
    """A chunk declares more bytes than the payload contains."""


class NonFiniteSample(DataError):
    """Float samples hold NaN or infinity."""


class StartBeyondEnd(DataError):
    """Segment start lies at or past the end of the audio."""


# --- feature extraction ---

class LengthMismatch(ValidationError):
    """Sequence length does not match the configured transform size."""


class DegenerateBank(ValidationError):
    """Adjacent filterbank boundaries coincide."""


class EmptySegment(DataError):
    """Audio segment shorter than one analysis hop."""


class ZeroVariance(DataError):
    """A feature column is constant; correlation undefined."""


# --- catalog ---

class UnknownRaga(DataError):
    """Raga name absent from the association table."""


class UnknownRasa(ValidationError):
    """Not one of the six in-scope rasa names."""


class BadGenre(DataError):
    """Genre outside the manifest's closed set."""


class DuplicateId(DataError):
    """Two manifest rows share an id."""


class ClassTooSmall(ValidationError):
    """An operation needs more rows (or songs) per class than were provided."""


# --- models ---

class KTooLarge(ValidationError):
    """More neighbours requested than training rows stored."""


class SingleClass(ValidationError):
    """Binary training requires both labels present."""


class DivergenceDetected(DataError):
    """Training loss became non-finite."""


class EmptyData(ValidationError):
    """Fit called with no rows."""


class NotFitted(ValidationError):
    """Model used before fit."""


# --- experiments and recommendation ---

class EmptyInput(ValidationError):
    """Metric computed over zero predictions."""


class NoEligibleModel(ValidationError):
    """Every candidate was excluded by the robustness rule."""


class EmptyLibrary(ValidationError):
    """Recommendation requested from an empty scored library."""


class CorruptArtifact(DataError):
    """A feature store or model bundle file cannot be parsed."""


#: What decoding a corrupt file's parsed content can raise before a check
#: names the fault: among others, a JSON integer too large for ``float``
#: overflows and deeply nested JSON exhausts the recursion limit. The readers
#: report these as ``CorruptArtifact``.
MALFORMED_CONTENT = (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError, ValueError)


class ScalerMismatch(DataError):
    """Feature configuration differs between model and feature rows."""
