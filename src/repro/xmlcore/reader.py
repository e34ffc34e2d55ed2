"""Position-tracking character reader used by the XML parser.

Wraps the document string with line/column accounting (1-based, the
convention error messages use) and the small set of scanning primitives
the parser needs: peek, advance, literal matching,
and run-until scans.  XML 1.0 end-of-line normalization (section 2.11:
``\\r\\n`` and bare ``\\r`` become ``\\n``) is applied up front so the
rest of the parser only ever sees ``\\n``.
"""

from __future__ import annotations

from repro.errors import XMLWellFormednessError
from repro.xmlcore.chars import WHITESPACE_RE


def normalize_line_endings(text: str) -> str:
    """Apply XML 1.0 end-of-line normalization."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Reader:
    """A forward-only scanner over normalized document text."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = normalize_line_endings(text)
        self.pos = 0

    # -- position ----------------------------------------------------------

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """Return (line, column), both 1-based, for *pos* (default: here);
        asked for once per error, so counted on demand."""
        if pos is None:
            pos = self.pos
        line_start = self.text.rfind("\n", 0, pos) + 1
        return self.text.count("\n", 0, pos) + 1, pos - line_start + 1

    def error(self, message: str) -> XMLWellFormednessError:
        line, col = self.location()
        return XMLWellFormednessError(message, line, col)

    # -- primitives ----------------------------------------------------------

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, length: int = 1) -> str:
        """Next *length* characters without consuming (may be short)."""
        return self.text[self.pos:self.pos + length]

    def next(self) -> str:
        """Consume and return one character; raise at end of input."""
        if self.pos >= len(self.text):
            raise self.error("unexpected end of document")
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def match(self, literal: str) -> bool:
        """Consume *literal* if it is next; return whether it matched."""
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, what: str | None = None) -> None:
        """Consume *literal* or raise a well-formedness error."""
        if not self.match(literal):
            raise self.error(
                f"expected {what or literal!r}, found "
                f"{self.peek(8)!r}")

    def skip_whitespace(self) -> int:
        """Skip a run of XML whitespace; return how many chars skipped."""
        start = self.pos
        self.pos = WHITESPACE_RE.match(self.text, start).end()
        return self.pos - start

    def require_whitespace(self, context: str) -> None:
        if not self.skip_whitespace():
            raise self.error(f"whitespace required {context}")

    def read_until(self, terminator: str, what: str) -> str:
        """Consume up to (not including) *terminator*; consume it too.

        Raises if the terminator never appears.
        """
        idx = self.text.find(terminator, self.pos)
        if idx == -1:
            raise self.error(f"unterminated {what} (missing {terminator!r})")
        chunk = self.text[self.pos:idx]
        self.pos = idx + len(terminator)
        return chunk
