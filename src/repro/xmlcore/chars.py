"""XML 1.0 character classes.

Implements the character-class productions from the XML 1.0
specification (5th edition) that the parser needs:

* ``Char``          -- characters legal anywhere in a document
* ``S``             -- white space
* ``NameStartChar`` -- first character of a Name
* ``NameChar``      -- subsequent characters of a Name

The range tables below are the single source of truth: the per-character
predicates scan them, and the compiled regular expressions the tokenizer
scans whole runs with (:data:`S`, :data:`NAME` and the patterns
compiled here) are generated from them.
"""

from __future__ import annotations

import re

# Production [3]: S ::= (#x20 | #x9 | #xD | #xA)+
WHITESPACE = frozenset(" \t\r\n")

# NameStartChar, production [4].
_NAME_START_RANGES: tuple[tuple[int, int], ...] = (
    (0x3A, 0x3A), (0x41, 0x5A), (0x5F, 0x5F), (0x61, 0x7A),
    (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x2FF), (0x370, 0x37D),
    (0x37F, 0x1FFF), (0x200C, 0x200D), (0x2070, 0x218F),
    (0x2C00, 0x2FEF), (0x3001, 0xD7FF), (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD), (0x10000, 0xEFFFF),
)

# Additional ranges permitted in NameChar, production [4a].
_NAME_EXTRA_RANGES: tuple[tuple[int, int], ...] = (
    (0x2D, 0x2E), (0x30, 0x39), (0xB7, 0xB7), (0x300, 0x36F),
    (0x203F, 0x2040),
)

# Production [2]: Char -- legal document characters.
_CHAR_RANGES: tuple[tuple[int, int], ...] = (
    (0x9, 0x9), (0xA, 0xA), (0xD, 0xD),
    (0x20, 0xD7FF), (0xE000, 0xFFFD), (0x10000, 0x10FFFF),
)


def _in_ranges(cp: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    for lo, hi in ranges:
        if lo <= cp <= hi:
            return True
    return False


def _class(ranges: tuple[tuple[int, int], ...]) -> str:
    """The body of a regex character class matching *ranges*."""
    return "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges)


# Pattern fragments for scanners to compose -- one ``S`` character, a
# whole ``Name`` (production [5]) -- and what they compile to.
S = f"[{re.escape(''.join(sorted(WHITESPACE)))}]"
NAME = (f"[{_class(_NAME_START_RANGES)}]"
        f"[{_class(_NAME_START_RANGES + _NAME_EXTRA_RANGES)}]*")

WHITESPACE_RE = re.compile(f"{S}*")
NAME_RE = re.compile(NAME)
#: finds the first character outside ``Char``
NON_CHAR_RE = re.compile(f"[^{_class(_CHAR_RANGES)}]")


def is_whitespace(ch: str) -> bool:
    """True if *ch* matches the XML ``S`` production."""
    return ch in WHITESPACE


def is_xml_char(ch: str) -> bool:
    """True if *ch* is a legal XML 1.0 document character."""
    cp = ord(ch)
    if 0x20 <= cp <= 0xD7FF:  # overwhelmingly common case
        return True
    return _in_ranges(cp, _CHAR_RANGES)


def is_name_start_char(ch: str) -> bool:
    """True if *ch* may begin an XML Name."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """True if *ch* may appear after the first character of a Name."""
    return (is_name_start_char(ch)
            or _in_ranges(ord(ch), _NAME_EXTRA_RANGES))


def is_name(text: str) -> bool:
    """True if *text* matches the ``Name`` production (non-empty)."""
    return NAME_RE.fullmatch(text) is not None


def is_ncname(text: str) -> bool:
    """True if *text* is a Name containing no colon (namespaces spec)."""
    return is_name(text) and ":" not in text
