"""XML 1.0 parser: a scanner that reports what it reads as events.

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

The scanner reports what it reads as events (``start``/``end`` per
element, ``text`` per run of character data, ``node`` per comment,
CDATA section or processing instruction) through a
:class:`repro.xmlcore.namespaces.Resolver`, which resolves namespaces
in the stream.  :func:`parse` feeds them to a tree builder;
:func:`parse_events` to any handler, such as the schema front-end.
A plain start tag is one regex match plus one ``findall``, an end tag
one match.  Where the start-tag match stops (a value to normalise or
expand, a duplicate, a non-``Char``, a corrupt end), the stepping code
takes over after the last attribute it could keep, so every diagnostic
comes from the stepping code.
"""

from __future__ import annotations

import re

from repro.errors import XMLWellFormednessError
from repro.xmlcore import chars
from repro.xmlcore.dom import (
    Attr, CData, Comment, Document, Element, ProcessingInstruction, Text,
)
from repro.xmlcore.entities import (
    PREDEFINED_ENTITIES, EntityTable, decode_char_reference,
)
from repro.xmlcore.namespaces import Resolver
from repro.xmlcore.reader import Reader

_ENCODING_DECL_RE = re.compile(
    rb'^<\?xml[^>]*?encoding\s*=\s*["\']([A-Za-z][A-Za-z0-9._-]*)["\']')

_S, _NAME = chars.S, chars.NAME
#: an attribute value with nothing to normalise (tab, newline), expand
#: ('&') or reject ('<'; the caller checks for non-Char)
_PLAIN_VALUE = "[^<&\"'\t\n]*"
#: a start tag's name, the run of plain attributes after it (group 2,
#: which _TAG_ATTRIBUTE_RE splits) and, if it comes next, the tag's end
#: (group 3: '' or '/').  Each attribute can match in one way only, and
#: a missing end matches as nothing: the match is linear in the tag.
_START_TAG_RE = re.compile(
    f"<({_NAME})((?:{_S}+{_NAME}{_S}*={_S}*"
    f"(?:\"{_PLAIN_VALUE}\"|'{_PLAIN_VALUE}'))*)(?:{_S}*(/?)>)?")
_TAG_ATTRIBUTE_RE = re.compile(
    f"({_NAME}){_S}*={_S}*[\"']({_PLAIN_VALUE})")
_END_TAG_RE = re.compile(f"</({_NAME}){_S}*>")
_CHAR_DATA_RE = re.compile("[^<&]*")

#: The parser keeps open elements on a list, but walks of the tree it
#: builds (serializer, ``iter``, ``text_content``) recurse one frame per
#: level: a hostile document gets a typed error well inside the
#: interpreter's default 1000-frame limit, not a RecursionError.
MAX_ELEMENT_DEPTH = 320


def parse(text: str, *, namespaces: bool = True) -> Document:
    """Parse an XML document from a string into a :class:`Document`.

    With ``namespaces=True`` (default) the tree is namespace-resolved;
    pass ``False`` to get the raw prefixed tree.
    """
    tree = _TreeBuilder()
    _Parser(text, Resolver(tree, namespaces), tree.document).parse_document()
    return tree.document


def parse_bytes(data: bytes, *, namespaces: bool = True) -> Document:
    """Parse an XML document from bytes (see :func:`decode_document`)."""
    return parse(decode_document(data), namespaces=namespaces)


def parse_events(text: str, handler) -> None:
    """Parse *text* into *handler* as namespace-resolved events (see
    :class:`repro.xmlcore.namespaces.Resolver`), building no tree.
    Raises what :func:`parse` would, in the same order."""
    _Parser(text, Resolver(handler), Document()).parse_document()


def decode_document(data: bytes) -> str:
    """Decode document bytes, honouring BOMs and the ``encoding``
    pseudo-attribute of the XML declaration (defaulting to UTF-8 as the
    spec requires)."""
    if data.startswith(b"\xef\xbb\xbf"):
        return data[3:].decode("utf-8")
    if data.startswith(b"\xff\xfe"):
        return data[2:].decode("utf-16-le")
    if data.startswith(b"\xfe\xff"):
        return data[2:].decode("utf-16-be")
    match = _ENCODING_DECL_RE.match(data)
    encoding = match.group(1).decode("ascii") if match else "utf-8"
    try:
        return data.decode(encoding)
    except (LookupError, UnicodeDecodeError) as exc:
        raise XMLWellFormednessError(
            f"cannot decode document as {encoding!r}: {exc}") from None


class _TreeBuilder:
    """The DOM handler: parser events in, a :class:`Document` out."""

    def __init__(self) -> None:
        self.document = Document()
        self._open: list[Element | Document] = [self.document]

    def start(self, name: tuple, attrs: dict[str, str], scope) -> None:
        tag, namespace, prefix, local, attributes, declarations = name
        elem = Element(tag)
        elem.namespace, elem.prefix, elem.local_name = \
            namespace, prefix, local
        if declarations:
            elem.ns_declarations = dict(declarations)
        elem.attributes = {
            attr: Attr(attr, value, ans, aprefix, alocal)
            for (attr, ans, aprefix, alocal), value
            in zip(attributes, attrs.values())}
        self._open[-1].append(elem)
        self._open.append(elem)

    def end(self) -> None:
        self._open.pop()

    def text(self, data: str) -> None:
        self._open[-1].append(Text(data))

    def node(self, node) -> None:
        self._open[-1].append(node)


class _Parser:
    """One-shot parser; create per document.  The XML declaration and
    the DOCTYPE name go to *prolog*, everything else to *events*."""

    def __init__(self, text: str, events: Resolver,
                 prolog: Document) -> None:
        self.reader = Reader(text)
        self.entities = EntityTable()
        self.events = events
        self.prolog = prolog

    # ------------------------------------------------------------------
    # document structure
    # ------------------------------------------------------------------

    def parse_document(self) -> None:
        r = self.reader
        self._parse_xml_declaration()
        self._parse_misc(allow_doctype=True)
        if r.at_end or not r.peek():
            raise r.error("document has no root element")
        if r.peek() != "<":
            raise r.error("content not allowed before root element")
        self._parse_root()
        self._parse_misc(allow_doctype=False)
        if not r.at_end:
            raise r.error("content not allowed after root element")
        self.events.finish()

    def _parse_xml_declaration(self) -> None:
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
        version = self.prolog.xml_version = self._pseudo_value()
        if version not in ("1.0", "1.1"):
            raise r.error(f"unsupported XML version {version!r}")
        ws = r.skip_whitespace()
        if r.match("encoding"):
            if not ws:
                raise r.error("whitespace required before 'encoding'")
            self._pseudo_eq()
            self.prolog.encoding = self._pseudo_value()
            ws = r.skip_whitespace()
        if r.match("standalone"):
            if not ws:
                raise r.error("whitespace required before 'standalone'")
            self._pseudo_eq()
            value = self._pseudo_value()
            if value not in ("yes", "no"):
                raise r.error(f"standalone must be yes/no, got {value!r}")
            self.prolog.standalone = value == "yes"
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

    def _parse_misc(self, allow_doctype: bool) -> None:
        """Comments / PIs / whitespace (and at most one DOCTYPE)."""
        r = self.reader
        while True:
            r.skip_whitespace()
            if r.match("<!--"):
                self.events.node(self._finish_comment())
            elif r.peek(2) == "<?":
                self.events.node(self._parse_pi())
            elif r.peek(9) == "<!DOCTYPE":
                if not allow_doctype or self.prolog.doctype_name is not None:
                    raise r.error("misplaced DOCTYPE declaration")
                self._parse_doctype()
            else:
                return

    def _parse_doctype(self) -> None:
        r = self.reader
        r.expect("<!DOCTYPE")
        r.require_whitespace("after '<!DOCTYPE'")
        self.prolog.doctype_name = self._parse_name()
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

    def _parse_root(self) -> None:
        """The root element and everything in it, as events.  Open
        elements are a list, not interpreter frames."""
        r = self.reader
        text = r.text
        events = self.events
        open_tags: list[str] = []
        parts: list[str] = []  # character data not yet reported
        self._start_tag(open_tags)
        while open_tags:
            pos = r.pos
            match = _CHAR_DATA_RE.match(text, pos)
            if match.end() != pos:
                r.pos = pos = match.end()
                chunk = match.group()
                if "]]>" in chunk:
                    raise r.error("']]>' not allowed in character data")
                self._check_chars(chunk)
                parts.append(chunk)
            if pos >= len(text):
                raise r.error(f"unterminated element <{open_tags[-1]}>")
            if text[pos] == "&":
                r.pos = pos + 1
                parts.append(self._parse_reference(in_attribute=False))
                continue
            if parts:
                events.text("".join(parts))
                parts.clear()
            mark = text[pos + 1:pos + 2]
            if mark == "/":
                self._end_tag(open_tags)
            elif mark == "?":
                events.node(self._parse_pi())
            elif mark != "!":
                self._start_tag(open_tags)
            elif text.startswith("<!--", pos):
                r.pos = pos + 4
                events.node(self._finish_comment())
            elif text.startswith("<![CDATA[", pos):
                r.pos = pos + 9
                data = r.read_until("]]>", "CDATA section")
                self._check_chars(data)
                events.node(CData(data))
            else:
                raise r.error("markup declarations not allowed in content")

    def _start_tag(self, open_tags: list[str]) -> None:
        r = self.reader
        match = _START_TAG_RE.match(r.text, r.pos)
        if match is None:
            r.pos += 1
            self._parse_name()  # raises: no name after '<'
        tag, raw, empty = match.groups()
        found = _TAG_ATTRIBUTE_RE.findall(raw) if raw else ()
        attrs = dict(found)
        r.pos = match.end()
        if len(attrs) != len(found) or chars.NON_CHAR_RE.search(raw):
            # keep the attributes before the first duplicate or non-Char
            attrs, empty, r.pos = {}, None, match.start(2)
            for attr in _TAG_ATTRIBUTE_RE.finditer(raw):
                name, value = attr.groups()
                if name in attrs or chars.NON_CHAR_RE.search(value):
                    break
                attrs[name] = value
                r.pos = match.start(2) + attr.end() + 1  # past its quote
        if empty is None:  # step through the rest of the tag
            self._parse_attributes(attrs)
            empty = r.match("/>")
            if not empty:
                r.expect(">", "'>' closing start tag")
        self.events.start(tag, attrs)
        if empty:
            self.events.end()
            return
        open_tags.append(tag)
        if len(open_tags) > MAX_ELEMENT_DEPTH:
            from repro.obs.metrics import MALFORMED_DOCUMENTS
            MALFORMED_DOCUMENTS.labels("xmlcore", "nesting").inc()
            raise r.error(
                f"elements nested deeper than {MAX_ELEMENT_DEPTH} levels")

    def _end_tag(self, open_tags: list[str]) -> None:
        r = self.reader
        name = open_tags.pop()
        match = _END_TAG_RE.match(r.text, r.pos)
        if match is not None and match.group(1) == name:
            r.pos = match.end()
        else:  # step through it
            r.pos += 2
            end_name = self._parse_name()
            if end_name != name:
                raise r.error(
                    f"end tag </{end_name}> does not match start tag "
                    f"<{name}>")
            r.skip_whitespace()
            r.expect(">", "'>' closing end tag")
        self.events.end()

    def _parse_attributes(self, attrs: dict[str, str]) -> None:
        r = self.reader
        while True:
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
            if name in attrs:
                raise r.error(f"duplicate attribute {name!r}")
            attrs[name] = value

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
        if in_attribute and "<" in expansion and \
                body not in PREDEFINED_ENTITIES:
            raise r.error(
                f"entity &{body}; expands to '<' inside an attribute value")
        return expansion

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
