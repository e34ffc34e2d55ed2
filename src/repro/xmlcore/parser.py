"""Recursive-descent XML 1.0 parser producing a DOM.

Covers the subset of XML 1.0 that data-bearing documents (and XML
Schema documents in particular) use, with full well-formedness
checking:

* prolog: XML declaration, comments, PIs, DOCTYPE with an internal
  subset of ``<!ENTITY name "value">`` declarations (other markup
  declarations are skipped);
* element structure with tag matching, attribute uniqueness, quoted
  attribute values, attribute-value normalization;
* character data with ``]]>`` rejection; CDATA sections; comments
  (``--`` rejection); processing instructions (``xml`` target rejected);
* general entity references and character references in content and
  attribute values;
* character legality per the ``Char`` production.

After the structural parse the namespace pass
(:func:`repro.xmlcore.namespaces.resolve_namespaces`) runs unless the
caller opts out.
"""

from __future__ import annotations

import re

from repro.errors import XMLWellFormednessError
from repro.xmlcore import chars
from repro.xmlcore.dom import (
    Attr, CData, Comment, Document, Element, ProcessingInstruction, Text,
)
from repro.xmlcore.entities import EntityTable, decode_char_reference
from repro.xmlcore.namespaces import resolve_namespaces
from repro.xmlcore.reader import Reader

_ENCODING_DECL_RE = re.compile(
    rb'^<\?xml[^>]*?encoding\s*=\s*["\']([A-Za-z][A-Za-z0-9._-]*)["\']')

#: a whole attribute -- S Name Eq quoted value -- whose value has nothing
#: to normalise (tab, newline), expand ('&') or reject ('<'; the caller
#: checks for non-Char)
_PLAIN_ATTRIBUTE_RE = re.compile(
    f"{chars.S}+({chars.NAME}){chars.S}*={chars.S}*"
    "([\"'])([^<&\"'\t\n]*)\\2")
_CHAR_DATA_RE = re.compile("[^<&]*")

#: The parser recurses two frames per element level (every tree walk
#: after it, one): a hostile document gets a typed error well inside
#: the interpreter's default 1000-frame limit, not a RecursionError.
MAX_ELEMENT_DEPTH = 320


def parse(text: str, *, namespaces: bool = True) -> Document:
    """Parse an XML document from a string into a :class:`Document`.

    With ``namespaces=True`` (default) the tree is namespace-resolved;
    pass ``False`` to get the raw prefixed tree.
    """
    doc = _Parser(text).parse_document()
    if namespaces:
        resolve_namespaces(doc)
    return doc


def parse_bytes(data: bytes, *, namespaces: bool = True) -> Document:
    """Parse an XML document from bytes, honouring BOMs and the
    ``encoding`` pseudo-attribute of the XML declaration (defaulting to
    UTF-8 as the spec requires)."""
    if data.startswith(b"\xef\xbb\xbf"):
        return parse(data[3:].decode("utf-8"), namespaces=namespaces)
    if data.startswith(b"\xff\xfe"):
        return parse(data[2:].decode("utf-16-le"), namespaces=namespaces)
    if data.startswith(b"\xfe\xff"):
        return parse(data[2:].decode("utf-16-be"), namespaces=namespaces)
    match = _ENCODING_DECL_RE.match(data)
    encoding = match.group(1).decode("ascii") if match else "utf-8"
    try:
        text = data.decode(encoding)
    except (LookupError, UnicodeDecodeError) as exc:
        raise XMLWellFormednessError(
            f"cannot decode document as {encoding!r}: {exc}") from None
    return parse(text, namespaces=namespaces)


class _Parser:
    """One-shot parser; create per document."""

    def __init__(self, text: str) -> None:
        self.reader = Reader(text)
        self.entities = EntityTable()
        self._depth = 0

    # ------------------------------------------------------------------
    # document structure
    # ------------------------------------------------------------------

    def parse_document(self) -> Document:
        r = self.reader
        doc = Document()
        self._parse_xml_declaration(doc)
        self._parse_misc(doc, allow_doctype=True)
        if r.at_end or not r.peek():
            raise r.error("document has no root element")
        if r.peek() != "<":
            raise r.error("content not allowed before root element")
        doc.append(self._parse_element())
        self._parse_misc(doc, allow_doctype=False)
        if not r.at_end:
            raise r.error("content not allowed after root element")
        return doc

    def _parse_xml_declaration(self, doc: Document) -> None:
        r = self.reader
        if not r.match("<?xml"):
            return
        nxt = r.peek()
        if nxt and chars.is_name_char(nxt):
            # e.g. "<?xml-stylesheet": a PI, not the XML declaration.
            r.pos -= 5
            return
        r.require_whitespace("after '<?xml'")
        r.expect("version", "version pseudo-attribute")
        self._pseudo_eq()
        doc.xml_version = self._pseudo_value()
        if doc.xml_version not in ("1.0", "1.1"):
            raise r.error(f"unsupported XML version {doc.xml_version!r}")
        ws = r.skip_whitespace()
        if r.match("encoding"):
            if not ws:
                raise r.error("whitespace required before 'encoding'")
            self._pseudo_eq()
            doc.encoding = self._pseudo_value()
            ws = r.skip_whitespace()
        if r.match("standalone"):
            if not ws:
                raise r.error("whitespace required before 'standalone'")
            self._pseudo_eq()
            value = self._pseudo_value()
            if value not in ("yes", "no"):
                raise r.error(f"standalone must be yes/no, got {value!r}")
            doc.standalone = value == "yes"
            r.skip_whitespace()
        r.expect("?>", "end of XML declaration")

    def _pseudo_eq(self) -> None:
        r = self.reader
        r.skip_whitespace()
        r.expect("=", "'='")
        r.skip_whitespace()

    def _pseudo_value(self) -> str:
        r = self.reader
        quote = r.peek()
        if quote not in ("'", '"'):
            raise r.error("quoted value expected")
        r.next()
        return r.read_until(quote, "pseudo-attribute value")

    def _parse_misc(self, doc: Document, allow_doctype: bool) -> None:
        """Comments / PIs / whitespace (and at most one DOCTYPE)."""
        r = self.reader
        while True:
            r.skip_whitespace()
            if r.match("<!--"):
                doc.append(self._finish_comment())
            elif r.peek(2) == "<?":
                doc.append(self._parse_pi())
            elif r.peek(9) == "<!DOCTYPE":
                if not allow_doctype or doc.doctype_name is not None:
                    raise r.error("misplaced DOCTYPE declaration")
                self._parse_doctype(doc)
            else:
                return

    def _parse_doctype(self, doc: Document) -> None:
        r = self.reader
        r.expect("<!DOCTYPE")
        r.require_whitespace("after '<!DOCTYPE'")
        doc.doctype_name = self._parse_name()
        r.skip_whitespace()
        # External ID (we record but do not fetch).
        if r.match("SYSTEM"):
            r.require_whitespace("after SYSTEM")
            self._pseudo_value_any_quote()
            r.skip_whitespace()
        elif r.match("PUBLIC"):
            r.require_whitespace("after PUBLIC")
            self._pseudo_value_any_quote()
            r.require_whitespace("between public and system identifiers")
            self._pseudo_value_any_quote()
            r.skip_whitespace()
        if r.match("["):
            self._parse_internal_subset()
            r.skip_whitespace()
        r.expect(">", "end of DOCTYPE")

    def _pseudo_value_any_quote(self) -> str:
        r = self.reader
        quote = r.peek()
        if quote not in ("'", '"'):
            raise r.error("quoted literal expected")
        r.next()
        return r.read_until(quote, "quoted literal")

    def _parse_internal_subset(self) -> None:
        """Parse the DOCTYPE internal subset, honouring ENTITY decls."""
        r = self.reader
        while True:
            r.skip_whitespace()
            if r.match("]"):
                return
            if r.match("<!ENTITY"):
                r.require_whitespace("after '<!ENTITY'")
                if r.peek() == "%":
                    # Parameter entities: skip the whole declaration.
                    r.read_until(">", "parameter entity declaration")
                    continue
                name = self._parse_name()
                r.require_whitespace("after entity name")
                value = self._pseudo_value_any_quote()
                r.skip_whitespace()
                r.expect(">", "end of entity declaration")
                self.entities.declare(name, value)
            elif r.match("<!--"):
                self._finish_comment()
            elif r.peek(2) == "<?":
                self._parse_pi()
            elif r.peek(2) == "<!":
                # ELEMENT/ATTLIST/NOTATION: skip to the closing '>'.
                r.read_until(">", "markup declaration")
            elif r.at_end:
                raise r.error("unterminated DOCTYPE internal subset")
            else:
                raise r.error(
                    f"unexpected content in internal subset: {r.peek(8)!r}")

    # ------------------------------------------------------------------
    # elements and content
    # ------------------------------------------------------------------

    def _parse_name(self) -> str:
        r = self.reader
        match = chars.NAME_RE.match(r.text, r.pos)
        if match is None:
            raise r.error(f"name expected, found {r.peek()!r}")
        r.pos = match.end()
        return match.group()

    def _parse_element(self) -> Element:
        r = self.reader
        r.expect("<")
        name = self._parse_name()
        elem = Element(name)
        self._parse_attributes(elem)
        if r.match("/>"):
            return elem
        r.expect(">", "'>' closing start tag")
        self._depth += 1
        if self._depth > MAX_ELEMENT_DEPTH:
            from repro.obs.metrics import MALFORMED_DOCUMENTS
            MALFORMED_DOCUMENTS.labels("xmlcore", "nesting").inc()
            raise r.error(
                f"elements nested deeper than {MAX_ELEMENT_DEPTH} levels")
        self._parse_content(elem)
        self._depth -= 1
        # _parse_content consumed "</"; now the tag name must match.
        end_name = self._parse_name()
        if end_name != name:
            raise r.error(
                f"end tag </{end_name}> does not match start tag <{name}>")
        r.skip_whitespace()
        r.expect(">", "'>' closing end tag")
        return elem

    def _parse_attributes(self, elem: Element) -> None:
        r = self.reader
        while True:
            match = _PLAIN_ATTRIBUTE_RE.match(r.text, r.pos)
            if match is not None \
                    and not chars.NON_CHAR_RE.search(match.group(3)):
                r.pos = match.end()
                name, _quote, value = match.groups()
            else:  # the last one, or one to step through
                ws = r.skip_whitespace()
                nxt = r.peek()
                if nxt in (">", "/") or not nxt:
                    return
                if not ws:
                    raise r.error("whitespace required between attributes")
                name = self._parse_name()
                r.skip_whitespace()
                r.expect("=", f"'=' after attribute name {name!r}")
                r.skip_whitespace()
                value = self._parse_attribute_value()
            if name in elem.attributes:
                raise r.error(f"duplicate attribute {name!r}")
            elem.attributes[name] = Attr(name, value)

    def _parse_attribute_value(self) -> str:
        r = self.reader
        quote = r.peek()
        if quote not in ("'", '"'):
            raise r.error("attribute value must be quoted")
        r.next()
        out: list[str] = []
        while True:
            ch = r.next()
            if ch == quote:
                break
            if ch == "<":
                raise r.error("'<' not allowed in attribute value")
            if ch == "&":
                out.append(self._parse_reference(in_attribute=True))
            elif ch in "\t\n":
                out.append(" ")  # attribute-value normalization
            else:
                if not chars.is_xml_char(ch):
                    raise r.error(
                        f"illegal character U+{ord(ch):04X} in attribute")
                out.append(ch)
        return "".join(out)

    def _parse_reference(self, in_attribute: bool) -> str:
        """Parse an entity or character reference; '&' already consumed."""
        r = self.reader
        body = r.read_until(";", "entity reference")
        if not body:
            raise r.error("empty entity reference '&;'")
        if body.startswith("#"):
            return decode_char_reference(body)
        if not chars.is_name(body):
            raise r.error(f"malformed entity reference &{body};")
        try:
            expansion = self.entities.resolve(body)
        except XMLWellFormednessError as exc:
            raise r.error(str(exc)) from None
        # XML 1.0 section 3.1 ("No < in Attribute Values"): a general
        # entity whose replacement text contains a literal '<' cannot
        # be referenced in an attribute; the predefined &lt; is exempt
        # (its spec-defined replacement is itself escaped).
        from repro.xmlcore.entities import PREDEFINED_ENTITIES
        if in_attribute and "<" in expansion and \
                body not in PREDEFINED_ENTITIES:
            raise r.error(
                f"entity &{body}; expands to '<' inside an attribute value")
        return expansion

    def _parse_content(self, elem: Element) -> None:
        """Parse element content until the matching '</' is consumed."""
        r = self.reader
        text_parts: list[str] = []

        def flush() -> None:
            if text_parts:
                elem.append(Text("".join(text_parts)))
                text_parts.clear()

        while True:
            if r.at_end:
                raise r.error(f"unterminated element <{elem.tag}>")
            ch = r.peek()
            if ch == "<":
                if r.match("</"):
                    flush()
                    return
                if r.match("<!--"):
                    flush()
                    elem.append(self._finish_comment())
                elif r.match("<![CDATA["):
                    data = r.read_until("]]>", "CDATA section")
                    self._check_chars(data)
                    flush()
                    elem.append(CData(data))
                elif r.peek(2) == "<?":
                    flush()
                    elem.append(self._parse_pi())
                elif r.peek(2) == "<!":
                    raise r.error(
                        "markup declarations not allowed in content")
                else:
                    flush()
                    elem.append(self._parse_element())
            elif ch == "&":
                r.next()
                text_parts.append(self._parse_reference(in_attribute=False))
            else:
                chunk = self._scan_char_data()
                if "]]>" in chunk:
                    raise r.error("']]>' not allowed in character data")
                self._check_chars(chunk)
                text_parts.append(chunk)

    def _scan_char_data(self) -> str:
        """Consume the maximal run of plain character data."""
        r = self.reader
        match = _CHAR_DATA_RE.match(r.text, r.pos)
        r.pos = match.end()
        return match.group()

    def _check_chars(self, data: str) -> None:
        match = chars.NON_CHAR_RE.search(data)
        if match is not None:
            raise self.reader.error(
                f"illegal character U+{ord(match.group()):04X} in content")

    def _finish_comment(self) -> Comment:
        """Parse a comment body; '<!--' already consumed."""
        r = self.reader
        data = r.read_until("-->", "comment")
        if "--" in data or data.endswith("-"):
            raise r.error("'--' not allowed within a comment")
        self._check_chars(data)
        return Comment(data)

    def _parse_pi(self) -> ProcessingInstruction:
        r = self.reader
        r.expect("<?")
        target = self._parse_name()
        if target.lower() == "xml":
            raise r.error("processing-instruction target 'xml' is reserved")
        if r.match("?>"):
            return ProcessingInstruction(target, "")
        r.require_whitespace("after PI target")
        data = r.read_until("?>", "processing instruction")
        self._check_chars(data)
        return ProcessingInstruction(target, data)
