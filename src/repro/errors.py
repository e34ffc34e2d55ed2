"""Exception hierarchy for the repro (XMIT reproduction) package.

Every error raised by the library derives from :class:`ReproError` so
applications can install a single catch-all while still being able to
discriminate between subsystem failures (XML parsing, schema
compilation, PBIO marshaling, transport, discovery).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# ---------------------------------------------------------------------------
# XML substrate
# ---------------------------------------------------------------------------

class XMLError(ReproError):
    """Base class for XML-related errors."""


class XMLWellFormednessError(XMLError):
    """The document violates an XML 1.0 well-formedness constraint.

    Carries the source position (1-based line and column) where the
    violation was detected, when available.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XMLNamespaceError(XMLError):
    """Namespace constraint violation (undeclared prefix, bad binding)."""


# ---------------------------------------------------------------------------
# XML Schema subset
# ---------------------------------------------------------------------------

class SchemaError(ReproError):
    """Base class for XML Schema processing errors."""


class SchemaParseError(SchemaError):
    """The schema document itself is malformed or uses unsupported
    constructs."""


class SchemaTypeError(SchemaError):
    """Reference to an unknown or incompatible schema type."""


class SchemaValidationError(SchemaError):
    """An instance document does not conform to its schema."""


# ---------------------------------------------------------------------------
# PBIO binary communication mechanism
# ---------------------------------------------------------------------------

class PBIOError(ReproError):
    """Base class for PBIO errors."""


class LayoutError(PBIOError):
    """Invalid C-structure layout (bad offsets, overlaps, unknown types)."""


class FormatRegistrationError(PBIOError):
    """A format could not be registered with an IOContext."""


class UnknownFormatError(PBIOError):
    """A wire record references a format ID that cannot be resolved."""


class EncodeError(PBIOError):
    """Record marshaling failed (missing field, type mismatch, bounds)."""


class DecodeError(PBIOError):
    """Record unmarshaling failed (truncated buffer, corrupt header)."""


class WireParseError(DecodeError, EncodeError):
    """A record or batch envelope failed validation (bad magic,
    unsupported version, lying lengths).

    Subclasses both :class:`DecodeError` and :class:`EncodeError`:
    header/batch parsing historically raised :class:`EncodeError`
    (the parsers live next to the encoder), but the untrusted-input
    contract promises receivers that every rejection of wire bytes is
    a :class:`DecodeError`.  Deriving from both keeps existing callers
    working while the fuzz oracle can rely on the decode-side type.
    """


class ConversionError(PBIOError):
    """No conversion plan exists between a wire format and the native
    format expected by the receiver."""


# ---------------------------------------------------------------------------
# Baseline wire formats
# ---------------------------------------------------------------------------

class WireFormatError(ReproError):
    """Errors from the baseline wire-format codecs (XML/MPI/CDR/XDR)."""


# ---------------------------------------------------------------------------
# Discovery / HTTP / transport
# ---------------------------------------------------------------------------

class DiscoveryError(ReproError):
    """Metadata discovery failed (URL unresolvable, fetch error)."""


class MetadataNotFoundError(DiscoveryError):
    """The document definitively does not exist at the URL (missing
    ``mem:`` publication, missing file).  Never worth retrying."""


class HTTPError(DiscoveryError):
    """HTTP substrate failure; carries the response status when known."""

    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)


class ResponseTooLargeError(HTTPError):
    """An HTTP response head or body exceeds the client's cap.
    Permanent: an oversized document is not downloaded once per retry
    attempt."""


class TransportError(ReproError):
    """Connection-level failure in the message transport."""


class ProtocolError(TransportError):
    """Peer violated the record/negotiation protocol."""


class FrameTooLargeError(ProtocolError):
    """A frame-length prefix exceeds the endpoint's configured cap.

    Raised (and recorded as a per-client close reason by the event
    loop) instead of a bare :class:`TransportError` so servers can
    drop the one offending client without tearing down the loop.
    """

    def __init__(self, length: int, limit: int) -> None:
        self.length = length
        self.limit = limit
        super().__init__(
            f"frame length {length} exceeds cap {limit}")


class SlowConsumerError(TransportError):
    """A subscriber's bounded write queue stayed over its limit.

    Used as the eviction reason under the ``disconnect-slow``
    backpressure policy and when a ``block`` wait times out.
    """


# ---------------------------------------------------------------------------
# XMIT core
# ---------------------------------------------------------------------------

class XMITError(ReproError):
    """Base class for XMIT toolkit errors."""


class BindingError(XMITError):
    """Binding a format to a native target failed."""


class TargetError(XMITError):
    """Requested native-metadata target is unknown or rejected the IR."""
