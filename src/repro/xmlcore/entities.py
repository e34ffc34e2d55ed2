"""Entity and character-reference handling for the XML parser.

Supports the five predefined general entities, decimal and hexadecimal
character references, and user-declared internal general entities (as
declared in a DOCTYPE internal subset with ``<!ENTITY name "value">``).
"""

from __future__ import annotations

from repro.errors import XMLWellFormednessError
from repro.xmlcore.chars import is_name, is_xml_char

PREDEFINED_ENTITIES: dict[str, str] = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# Inverse map used by the serializer for text content.  A literal
# carriage return in content would be normalized to "\n" by any
# conforming reader (XML 1.0 section 2.11), so it must be written as a
# character reference — references survive normalization — or text
# containing "\r" would not round-trip.
TEXT_ESCAPES: dict[str, str] = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    "\r": "&#13;",
}

ATTR_ESCAPES: dict[str, str] = {
    "&": "&amp;",
    "<": "&lt;",
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
    "\r": "&#13;",
}


#: Characters of declared-entity replacement text one document may
#: expand, counting an entity's whole text each time it is expanded.
#: Depth alone does not bound size: seven entities of ten references
#: each turn a 400-byte document into 10 MB.
MAX_ENTITY_EXPANSION = 256 * 1024


class EntityTable:
    """Resolves general entity references during a parse.

    Starts with the five predefined entities; DOCTYPE internal-subset
    declarations add to it.  Recursion in entity replacement text is
    expanded with a depth guard to reject circular declarations, and
    each declared entity's replacement text is charged, every time it
    is expanded, to one per-document budget
    (:data:`MAX_ENTITY_EXPANSION`).
    """

    MAX_DEPTH = 16

    def __init__(self) -> None:
        self._entities: dict[str, str] = dict(PREDEFINED_ENTITIES)
        self._budget = MAX_ENTITY_EXPANSION

    def declare(self, name: str, replacement: str) -> None:
        """Declare an internal general entity.

        Per XML 1.0 section 4.2, the first declaration of an entity is
        binding; later re-declarations are ignored (this also protects
        the predefined entities).
        """
        if not is_name(name):
            raise XMLWellFormednessError(f"invalid entity name {name!r}")
        self._entities.setdefault(name, replacement)

    def resolve(self, name: str, _depth: int = 0) -> str:
        """Return the fully expanded replacement text for entity *name*."""
        if _depth > self.MAX_DEPTH:
            raise XMLWellFormednessError(
                f"entity {name!r} expansion exceeds depth "
                f"{self.MAX_DEPTH} (circular reference?)")
        try:
            raw = self._entities[name]
        except KeyError:
            raise XMLWellFormednessError(
                f"reference to undeclared entity &{name};") from None
        # Predefined entities expand to their literal character even
        # though that character is itself markup-significant.
        if name in PREDEFINED_ENTITIES:
            return raw
        # Charged before it is scanned: what the expansion outputs and
        # the work it does are both bounded by what is charged.
        self._budget -= len(raw)
        if self._budget < 0:
            from repro.obs.metrics import MALFORMED_DOCUMENTS
            MALFORMED_DOCUMENTS.labels("xmlcore", "expansion").inc()
            raise XMLWellFormednessError(
                f"entity expansion exceeds {MAX_ENTITY_EXPANSION} "
                "characters")
        return self._expand(raw, _depth + 1)

    def _expand(self, text: str, depth: int) -> str:
        if "&" not in text:
            return text
        out: list[str] = []
        i = 0
        while (amp := text.find("&", i)) != -1:
            out.append(text[i:amp])
            end = text.find(";", amp + 1)
            if end == -1:
                raise XMLWellFormednessError(
                    "unterminated entity reference in replacement text")
            body = text[amp + 1:end]
            if body.startswith("#"):
                out.append(decode_char_reference(body))
            else:
                out.append(self.resolve(body, depth))
            i = end + 1
        out.append(text[i:])
        return "".join(out)


def decode_char_reference(body: str) -> str:
    """Decode the body of a character reference (without ``&`` / ``;``).

    *body* is e.g. ``#38`` or ``#x26``.  Raises on malformed syntax and
    on code points outside the XML ``Char`` production.
    """
    # strict CharRef production: '&#' [0-9]+ ';' | '&#x' [0-9a-fA-F]+
    # ';' — int() alone is too lenient (it accepts whitespace, sign
    # prefixes and non-ASCII digits, none of which are legal here)
    digits = body[1:]
    if digits[:1] in ("x", "X"):
        text, base = digits[1:], 16
        legal = all(c in "0123456789abcdefABCDEF" for c in text)
    else:
        text, base = digits, 10
        legal = text.isascii() and text.isdecimal()
    if not text or not legal:
        raise XMLWellFormednessError(
            f"malformed character reference &{body};")
    cp = int(text, base)
    if cp < 0 or cp > 0x10FFFF:
        raise XMLWellFormednessError(
            f"character reference &{body}; out of range")
    ch = chr(cp)
    if not is_xml_char(ch):
        raise XMLWellFormednessError(
            f"character reference &{body}; is not a legal XML character")
    return ch


def escape_text(text: str) -> str:
    """Escape character data for element content."""
    if not any(c in TEXT_ESCAPES for c in text):
        return text
    return "".join(TEXT_ESCAPES.get(c, c) for c in text)


def escape_attribute(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    if not any(c in ATTR_ESCAPES for c in text):
        return text
    return "".join(ATTR_ESCAPES.get(c, c) for c in text)
