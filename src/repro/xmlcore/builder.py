"""Programmatic document construction.

:class:`DocumentBuilder` gives library code (the XML wire codec, the
schema emitters, tests) a concise way to build well-formed DOM trees
without going through text and the parser.

Example::

    b = DocumentBuilder()
    with b.element("SimpleData"):
        b.leaf("Timestep", "9999")
        b.leaf("Size", "3355")
    doc = b.document()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.xmlcore.chars import is_name
from repro.xmlcore.dom import (
    CData, Comment, Document, Element, Text,
)
from repro.xmlcore.namespaces import resolve_namespaces


class DocumentBuilder:
    """Builds one :class:`Document` via nested ``element`` contexts."""

    def __init__(self) -> None:
        self._doc = Document()
        self._stack: list[Element] = []
        self._finished = False

    # -- structure -----------------------------------------------------------

    @contextmanager
    def element(self, tag: str,
                attrs: Mapping[str, str] | None = None,
                **kw_attrs: str) -> Iterator[Element]:
        """Open an element; children added inside the ``with`` nest in it."""
        elem = self.start(tag, attrs, **kw_attrs)
        try:
            yield elem
        finally:
            self.end()

    def start(self, tag: str,
              attrs: Mapping[str, str] | None = None,
              **kw_attrs: str) -> Element:
        """Open an element without the context-manager sugar."""
        if not is_name(tag):
            raise ValueError(f"invalid element name {tag!r}")
        if self._finished and not self._stack:
            raise ValueError("document already has a root element")
        elem = Element(tag)
        for name, value in {**(attrs or {}), **kw_attrs}.items():
            if not is_name(name):
                raise ValueError(f"invalid attribute name {name!r}")
            elem.set(name, str(value))
        if self._stack:
            self._stack[-1].append(elem)
        else:
            self._doc.append(elem)
            self._finished = True
        self._stack.append(elem)
        return elem

    def end(self) -> None:
        if not self._stack:
            raise ValueError("no open element to close")
        self._stack.pop()

    # -- leaves ----------------------------------------------------------------

    def leaf(self, tag: str, text: object = None,
             attrs: Mapping[str, str] | None = None,
             **kw_attrs: str) -> Element:
        """Add ``<tag>text</tag>`` (or an empty element) as a child."""
        elem = self.start(tag, attrs, **kw_attrs)
        if text is not None:
            elem.append(Text(str(text)))
        self.end()
        return elem

    def text(self, data: object) -> None:
        """Add character data to the open element."""
        self._require_open("text")
        self._stack[-1].append(Text(str(data)))

    def cdata(self, data: str) -> None:
        self._require_open("CDATA")
        if "]]>" in data:
            raise ValueError("']]>' cannot appear inside a CDATA section")
        self._stack[-1].append(CData(data))

    def comment(self, data: str) -> None:
        if "--" in data or data.endswith("-"):
            raise ValueError("'--' cannot appear inside a comment")
        node = Comment(data)
        if self._stack:
            self._stack[-1].append(node)
        else:
            self._doc.append(node)

    def _require_open(self, what: str) -> None:
        if not self._stack:
            raise ValueError(f"{what} requires an open element")

    # -- completion ---------------------------------------------------------

    def document(self, *, namespaces: bool = True) -> Document:
        """Finish and return the document (namespace-resolved by default)."""
        if self._stack:
            raise ValueError(
                f"unclosed element <{self._stack[-1].tag}>")
        if not self._finished:
            raise ValueError("document has no root element")
        if namespaces:
            resolve_namespaces(self._doc)
        return self._doc
