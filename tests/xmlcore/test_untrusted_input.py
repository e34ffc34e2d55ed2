"""Character-reference and truncated-entity handling on hostile input.

The metadata path parses XML fetched over the network, so the same
untrusted-input discipline applies: surrogate and out-of-range code
points in character references must be rejected with the typed
well-formedness error (never ``ValueError`` out of ``chr()``), a
document truncated mid-reference or mid-entity must fail cleanly, and
one nested past ``MAX_ELEMENT_DEPTH`` must get the typed error rather
than exhaust the interpreter's stack, and one whose entities expand past
``MAX_ENTITY_EXPANSION`` characters must get it before the text exists.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.errors import XMLWellFormednessError
from repro.xmlcore import parse
from repro.xmlcore.entities import (
    MAX_ENTITY_EXPANSION, EntityTable, decode_char_reference,
)
from repro.xmlcore.parser import MAX_ELEMENT_DEPTH


def reject(text: str) -> XMLWellFormednessError:
    with pytest.raises(XMLWellFormednessError) as info:
        parse(text)
    return info.value


class TestDecodeCharReference:
    """The decoder itself, without a parser in front of it."""

    @pytest.mark.parametrize("body,char", [
        ("#65", "A"), ("#x41", "A"), ("#X41", "A"),
        ("#x10FFFF", "\U0010FFFF"), ("#1114111", "\U0010FFFF"),
        ("#xD7FF", "퟿"), ("#xE000", ""),
    ])
    def test_legal(self, body, char):
        assert decode_char_reference(body) == char

    @pytest.mark.parametrize("body", [
        # the whole surrogate block, which chr() would happily accept
        "#xD800", "#xDABC", "#xDFFF", "#55296", "#57343",
    ])
    def test_surrogates_rejected(self, body):
        with pytest.raises(XMLWellFormednessError,
                           match="not a legal XML character"):
            decode_char_reference(body)

    @pytest.mark.parametrize("body", [
        "#x110000", "#1114112", "#x7FFFFFFF", "#xFFFFFFFFFFFF",
        "#99999999999999999999",  # would MemoryError a naive chr()
    ])
    def test_out_of_range_rejected(self, body):
        with pytest.raises(XMLWellFormednessError, match="out of range"):
            decode_char_reference(body)

    @pytest.mark.parametrize("body", [
        "#", "#x", "#xG", "#12x", "# 65", "#-65", "#x-41", "#+65",
        "#0x41", "#١٢",  # non-ASCII digits must not parse
    ])
    def test_malformed_rejected(self, body):
        with pytest.raises(XMLWellFormednessError):
            decode_char_reference(body)


class TestTruncatedReferences:
    """References and entities cut off by a short read."""

    @pytest.mark.parametrize("doc", [
        "<r>&#x41",      # char ref, no terminator, EOF
        "<r>&#x41</r>",  # char ref, no terminator, markup resumes
        "<r>&#",
        "<r>&amp",
        "<r>&a",
        "<r>&",
        '<r a="&#x41"/>',
        '<r a="&amp"></r>',
    ])
    def test_unterminated_reference(self, doc):
        reject(doc)

    def test_truncated_entity_declaration(self):
        reject('<!DOCTYPE r [<!ENTITY e "v>]><r>&e;</r>')
        reject('<!DOCTYPE r [<!ENTITY e ')

    def test_entity_replacement_with_bad_char_reference(self):
        reject('<!DOCTYPE r [<!ENTITY e "&#xD800;">]><r>&e;</r>')

    def test_truncated_document_after_entity(self):
        reject('<!DOCTYPE r [<!ENTITY e "v">]><r>&e;')


class TestEntityTableExpansion:
    def test_unterminated_reference_inside_replacement(self):
        table = EntityTable()
        table.declare("e", "head &amp tail")
        with pytest.raises(XMLWellFormednessError):
            table.resolve("e")

    def test_surrogate_inside_replacement(self):
        table = EntityTable()
        table.declare("e", "ok &#xDC00; bad")
        with pytest.raises(XMLWellFormednessError):
            table.resolve("e")


class TestNestingLimit:
    """The parser recurses per element level; a hostile document must
    get the typed error, with a position, not a ``RecursionError``."""

    @pytest.fixture(autouse=True)
    def _obs_on(self):
        from repro.obs import runtime
        saved = runtime.enabled
        runtime.enabled = True
        yield
        runtime.enabled = saved

    def test_deep_nesting_is_a_counted_well_formedness_error(self):
        from repro.obs.metrics import MALFORMED_DOCUMENTS
        series = MALFORMED_DOCUMENTS.labels("xmlcore", "nesting")
        before = series.value
        exc = reject("<a>" * 5000 + "</a>" * 5000)
        assert "nested deeper" in str(exc)
        assert exc.line == 1
        assert exc.column == 3 * (MAX_ELEMENT_DEPTH + 1) + 1
        assert series.value == before + 1

    def test_deep_nesting_across_lines_reports_the_line(self):
        exc = reject("<a>\n" * 5000)
        assert (exc.line, exc.column) == (MAX_ELEMENT_DEPTH + 1, 4)

    def test_the_limit_itself_parses(self):
        doc = parse("<a>" * MAX_ELEMENT_DEPTH + "</a>" * MAX_ELEMENT_DEPTH)
        depth, node = 1, doc.root
        while len(node):
            node = next(iter(node))
            depth += 1
        assert depth == MAX_ELEMENT_DEPTH

    def test_empty_elements_do_not_count_as_a_level(self):
        parse("<a>" * MAX_ELEMENT_DEPTH + "<a/>"
              + "</a>" * MAX_ELEMENT_DEPTH)


def laughs(levels: int, leaf: str, copies: int = 10) -> str:
    """*levels* entities, each *copies* references to the one before."""
    decls = f'<!ENTITY e0 "{leaf}">' + "".join(
        f'<!ENTITY e{i} "{f"&e{i - 1};" * copies}">'
        for i in range(1, levels))
    return f"<!DOCTYPE r [{decls}]><r>&e{levels - 1};</r>"


class TestExpansionLimit:
    """Depth alone does not bound what entities expand to; one budget
    per document does, charged while the text is being produced."""

    #: 381 bytes that expand to a 10 000 000-character text node
    DOC = laughs(7, "0123456789")

    @pytest.fixture(autouse=True)
    def _obs_on(self):
        from repro.obs import runtime
        saved = runtime.enabled
        runtime.enabled = True
        yield
        runtime.enabled = saved

    def test_ten_megabytes_fail_fast_counted_and_positioned(self):
        from repro.obs.metrics import MALFORMED_DOCUMENTS
        series = MALFORMED_DOCUMENTS.labels("xmlcore", "expansion")
        before = series.value
        assert len(self.DOC) < 512
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            exc = reject(self.DOC)
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.05
        assert f"exceeds {MAX_ENTITY_EXPANSION} characters" in str(exc)
        reference = self.DOC.index("&e6;")
        assert (exc.line, exc.column) == (1, reference + len("&e6;") + 1)
        assert series.value == before + 3

    def test_ten_megabytes_fail_in_under_a_mebibyte(self):
        tracemalloc.start()
        try:
            reject(self.DOC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_replacement_text_cannot_hide_the_work(self):
        # produces no characters at all, in 10**16 expansions
        assert "expansion exceeds" in str(reject(laughs(17, "")))

    def test_the_budget_itself_parses(self):
        decl = f'<!DOCTYPE r [<!ENTITY big "{"x" * MAX_ENTITY_EXPANSION}">]>'
        doc = parse(f"{decl}<r>&big;</r>")
        assert len(doc.root.text) == MAX_ENTITY_EXPANSION
        assert "expansion exceeds" in str(reject(f"{decl}<r>&big;&big;</r>"))

    def test_the_budget_is_per_document(self):
        half = "x" * (MAX_ENTITY_EXPANSION // 2)
        doc = f'<!DOCTYPE r [<!ENTITY half "{half}">]><r>&half;&half;</r>'
        for _ in range(2):  # a second document starts from a full budget
            assert len(parse(doc).root.text) == MAX_ENTITY_EXPANSION
        table = EntityTable()
        table.declare("half", half)
        table.resolve("half")
        table.resolve("half")
        with pytest.raises(XMLWellFormednessError, match="expansion"):
            table.resolve("half")


class TestLongStartTag:
    """A start tag's run of plain attributes is matched by one regex.
    Each attribute matches in one way only and a missing end matches as
    nothing, so the match is linear, and the stepping scan takes over
    only after the last attribute the match could keep."""

    ATTRS = "".join(f' a{i}="v{i}"' for i in range(10_000))

    def test_it_parses(self):
        assert len(parse(f"<r{self.ATTRS}/>").root.attributes) == 10_000

    @pytest.mark.parametrize("end", [" %>", ' a0="dup"/>', ' z="&bad"/>'])
    def test_a_corrupt_end_is_rejected_in_linear_time(self, end):
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            exc = reject(f"<r{self.ATTRS}{end}")
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.05
        assert exc.line == 1
