"""The schema front-end's two ways in, held to one answer.

``parse_schema_document`` streams a document's bytes into the
front-end and builds no tree; ``parse_schema(parse_bytes(...))`` builds
the tree first and replays it into the same front-end.  On every
document they must agree: on the :class:`Schema`, or on the error's
type, message, line and column.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.schema.parser import (
    parse_schema, parse_schema_document, parse_schema_text,
)
from repro.xmlcore.parser import parse_bytes


def outcome(call) -> object:
    """What *call* returns, or the error it raises as a comparable
    ``(type, message, line, column)``."""
    try:
        return call()
    except ReproError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def both(data: bytes, check: bool = True) -> tuple[object, object]:
    """The streamed and the replayed outcome for *data*."""
    return (outcome(lambda: parse_schema_document(data, check=check)[0]),
            outcome(lambda: parse_schema(parse_bytes(data), check=check)))


def checked_parse_schema_text(text: str, *, check: bool = True):
    """``parse_schema_text``, once both ways in agree on *text*."""
    streamed, replayed = both(text.encode(), check)
    assert streamed == replayed, (text, streamed, replayed)
    return parse_schema_text(text, check=check)
