"""Common interface for wire-format codecs.

Every codec encodes/decodes record dicts under a PBIO
:class:`~repro.pbio.format.IOFormat` — the shared metadata keeps the
Fig. 8 comparison honest.  Codecs are stateful per format (they may
compile plans up front, mirroring each real system's setup phase) and
register themselves in a name registry for the benchmark harness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import WireFormatError
from repro.pbio.format import IOFormat

_REGISTRY: dict[str, type["WireCodec"]] = {}


class WireCodec(ABC):
    """One wire format bound to one message format."""

    #: registry key; subclasses set this.
    codec_name: str = ""

    def __init__(self, fmt: IOFormat) -> None:
        self.format = fmt

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.codec_name:
            _REGISTRY[cls.codec_name] = cls

    @abstractmethod
    def encode(self, record: dict) -> bytes:
        """Marshal *record* to this codec's wire representation."""

    @abstractmethod
    def decode(self, data: bytes) -> dict:
        """Unmarshal wire bytes back into a record dict."""

    def encoded_size(self, record: dict) -> int:
        """Wire size of *record* under this codec."""
        return len(self.encode(record))

    def roundtrip(self, record: dict) -> dict:
        return self.decode(self.encode(record))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(format={self.format.name!r})")


def items_of(value) -> list:
    """Sequence (possibly a NumPy array) -> list; None -> empty."""
    if value is None:
        return []
    return value if isinstance(value, list) else list(value)


def codec_by_name(name: str, fmt: IOFormat) -> WireCodec:
    """Instantiate the codec registered under *name* for *fmt*."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise WireFormatError(
            f"unknown wire codec {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(fmt)


def all_codecs() -> tuple[str, ...]:
    """Names of every registered codec."""
    return tuple(sorted(_REGISTRY))
