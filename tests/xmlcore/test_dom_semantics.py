"""DOM value semantics that are easy to get wrong."""

from repro.xmlcore import parse
from repro.xmlcore.dom import Element, Text


class TestTruthiness:
    def test_leaf_elements_are_truthy(self):
        # the ElementTree footgun: __len__ == 0 must not make an
        # element falsy, or `find(x) or default` silently misfires
        doc = parse("<a><leaf>text</leaf></a>")
        leaf = doc.root.find("leaf")
        assert len(leaf) == 0
        assert bool(leaf) is True

    def test_find_or_default_pattern_works(self):
        doc = parse("<a><code>7</code></a>")
        found = doc.root.find("code") or Element("fallback")
        assert found.text == "7"


class TestTextAggregation:
    def test_text_vs_text_content(self):
        doc = parse("<a>x<b>y</b>z</a>")
        assert doc.root.text == "xz"
        assert doc.root.text_content() == "xyz"

    def test_append_returns_node(self):
        elem = Element("a")
        child = elem.append(Text("data"))
        assert child.parent is elem


class TestParentLinks:
    """Discovery unlinks the trees it parses once their schema is
    built; a tree a caller keeps is left alone."""

    def test_a_kept_document_walks_up(self):
        doc = parse("<a><b><c>text</c></b><!--note--></a>")
        c = doc.root.find("b").find("c")
        text, comment = c.children[0], doc.root.children[-1]
        assert c.parent.parent is doc.root
        assert doc.root.parent is doc
        assert c.document is doc
        assert text.document is doc and comment.document is doc

    def test_unlink_drops_every_parent_link(self):
        doc = parse("<a><b><c>text</c></b><!--note--></a>")
        root, b = doc.root, doc.root.find("b")
        doc.unlink()
        assert root.parent is None and b.parent is None
        assert b.find("c").document is None
        assert root.text_content() == "text"  # children are kept
