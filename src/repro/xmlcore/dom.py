"""A small DOM for parsed XML documents.

Modeled on the W3C DOM the paper's XMIT used (Xerces-C produced DOM
trees that XMIT traversed selectively), but with a Pythonic surface:
elements are iterable over child elements, attributes are a mapping,
and common traversals (``find``, ``find_all``, ``iter``) are methods.

Namespace handling: after the namespace-resolution pass each
:class:`Element` carries ``namespace`` (URI or ``None``), ``local_name``
and ``prefix`` in addition to the raw ``tag`` as written.  Attribute
lookup supports both raw names and ``(namespace, local)`` pairs via
:class:`Attr` entries.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Node:
    """Base class of every tree node."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional["Element | Document"] = None

    @property
    def document(self) -> Optional["Document"]:
        """The owning :class:`Document`, found by walking to the root."""
        node: Node | None = self
        while node is not None and not isinstance(node, Document):
            node = node.parent
        return node


class CharacterData(Node):
    """Common base for text-bearing leaf nodes."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = self.data if len(self.data) <= 32 else self.data[:29] + "..."
        return f"{type(self).__name__}({preview!r})"


class Text(CharacterData):
    """Character data appearing between markup."""

    __slots__ = ()


class CData(CharacterData):
    """A ``<![CDATA[...]]>`` section (text with verbatim serialization)."""

    __slots__ = ()


class Comment(CharacterData):
    """A ``<!-- ... -->`` comment."""

    __slots__ = ()


class ProcessingInstruction(Node):
    """A ``<?target data?>`` processing instruction."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str) -> None:
        super().__init__()
        self.target = target
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessingInstruction({self.target!r}, {self.data!r})"


class Attr:
    """A single attribute: raw name plus resolved namespace parts."""

    __slots__ = ("name", "value", "namespace", "prefix", "local_name")

    def __init__(self, name: str, value: str,
                 namespace: str | None = None,
                 prefix: str | None = None,
                 local_name: str | None = None) -> None:
        self.name = name
        self.value = value
        self.namespace = namespace
        self.prefix = prefix
        self.local_name = local_name if local_name is not None else name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Attr({self.name!r}={self.value!r})"


class Element(Node):
    """An XML element.

    ``tag`` is the name exactly as written (possibly prefixed);
    ``namespace``/``local_name``/``prefix`` are filled in by the
    namespace pass.  ``children`` holds all child nodes in document
    order; iteration yields child *elements* only, which is the common
    traversal for data documents.
    """

    __slots__ = ("tag", "namespace", "prefix", "local_name",
                 "attributes", "children", "ns_declarations")

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag
        self.namespace: str | None = None
        self.prefix: str | None = None
        self.local_name: str = tag.split(":", 1)[-1]
        self.attributes: dict[str, Attr] = {}
        self.children: list[Node] = []
        # prefix -> URI declarations made *on this element* (after the
        # namespace pass); "" key is the default namespace.
        self.ns_declarations: dict[str, str] = {}

    # -- construction -----------------------------------------------------

    def append(self, node: Node) -> Node:
        """Append *node* as the last child and return it."""
        node.parent = self
        self.children.append(node)
        return node

    def set(self, name: str, value: str) -> None:
        """Set attribute *name* to *value* (raw, namespace-unresolved)."""
        self.attributes[name] = Attr(name, value)

    # -- attribute access --------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return the value of attribute *name* (raw name) or *default*."""
        attr = self.attributes.get(name)
        return attr.value if attr is not None else default

    def get_ns(self, namespace: str | None, local: str,
               default: str | None = None) -> str | None:
        """Return an attribute value by (namespace URI, local name)."""
        for attr in self.attributes.values():
            if attr.local_name == local and attr.namespace == namespace:
                return attr.value
        return default

    # -- traversal ----------------------------------------------------------

    def __iter__(self) -> Iterator["Element"]:
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __bool__(self) -> bool:
        # ElementTree's classic footgun: with __len__ defined, leaf
        # elements would be falsy and `find(...) or default` silently
        # misbehaves.  An existing element is always truthy here.
        return True

    def iter(self, local_name: str | None = None,
             namespace: str | None = "*") -> Iterator["Element"]:
        """Depth-first iteration over this element and its descendants.

        ``local_name=None`` matches every element; ``namespace="*"``
        (default) matches any namespace.
        """
        if ((local_name is None or self.local_name == local_name)
                and (namespace == "*" or self.namespace == namespace)):
            yield self
        for child in self:
            yield from child.iter(local_name, namespace)

    def find(self, local_name: str,
             namespace: str | None = "*") -> Optional["Element"]:
        """First *direct child* element with the given local name."""
        for child in self:
            if child.local_name == local_name and (
                    namespace == "*" or child.namespace == namespace):
                return child
        return None

    def find_all(self, local_name: str,
                 namespace: str | None = "*") -> list["Element"]:
        """All *direct child* elements with the given local name."""
        return [c for c in self
                if c.local_name == local_name
                and (namespace == "*" or c.namespace == namespace)]

    # -- content -----------------------------------------------------------

    @property
    def text(self) -> str:
        """Concatenated character data of *direct* text/CDATA children."""
        return "".join(c.data for c in self.children
                       if isinstance(c, (Text, CData)))

    def text_content(self) -> str:
        """Concatenated character data of the whole subtree."""
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, (Text, CData)):
                parts.append(child.data)
            elif isinstance(child, Element):
                parts.append(child.text_content())
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Element(<{self.tag}> attrs={list(self.attributes)})"


class Document(Node):
    """The document node: prolog items plus exactly one root element."""

    __slots__ = ("children", "xml_version", "encoding", "standalone",
                 "doctype_name")

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []
        self.xml_version: str = "1.0"
        self.encoding: str | None = None
        self.standalone: bool | None = None
        self.doctype_name: str | None = None

    def append(self, node: Node) -> Node:
        node.parent = self
        self.children.append(node)
        return node

    @property
    def root(self) -> Element:
        """The single document element."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        raise ValueError("document has no root element")

    def iter(self, local_name: str | None = None,
             namespace: str | None = "*") -> Iterator[Element]:
        return self.root.iter(local_name, namespace)

    def unlink(self) -> None:
        """Drop every node's ``parent`` link, as minidom's ``unlink``.

        Parent links make a tree cyclic; without them dropping the
        document frees it by reference counting alone, leaving no work
        for the cyclic collector.  For an owner done with the tree:
        afterwards ``.parent`` and ``.document`` read ``None``.
        """
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            node.parent = None
            stack.extend(getattr(node, "children", ()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        try:
            root = f"<{self.root.tag}>"
        except ValueError:
            root = "(empty)"
        return f"Document(root={root})"
