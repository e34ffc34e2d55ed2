"""The bulk scanner against three independent oracles.

The parser scans names, whitespace, attribute values and character
data with compiled regular expressions generated from the range tables
in ``repro.xmlcore.chars``.  Here: (1) the generated classes agree,
code point by code point, with the per-character predicates; (2) every
diagnostic the error and edge-case suites provoke is byte-identical to
the per-character scanner's (``error_golden.json``, generated from the
commit before the rewrite); (3) attribute values built from pieces
with a known meaning parse to that meaning, whether the one-match path
or the stepping fallback handles them.
"""

from __future__ import annotations

import re
import warnings

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import XMLWellFormednessError
from repro.xmlcore import Element, Text, chars, parse, serialize
from repro.xmlcore.parser import (
    _END_TAG_RE, _START_TAG_RE, _TAG_ATTRIBUTE_RE,
)
from tests.xmlcore import error_golden

#: every BMP code point (surrogates included: Python strings can hold
#: them), the astral boundaries of the tables, and a stride through
#: the rest
CODE_POINTS = [
    *range(0x10000),
    0x10000, 0x10001, 0xEFFFE, 0xEFFFF, 0xF0000, 0xF0001, 0x10FFFE,
    0x10FFFF,
    *range(0x10000, 0x110000, 0x1F3),
]


class TestGeneratedClasses:
    def test_patterns_compile_without_warnings(self):
        """A nested-set or bad-escape warning in a generated class is
        an error on some later interpreter; fail here instead."""
        patterns = [chars.WHITESPACE_RE, chars.NAME_RE,
                    chars.NON_CHAR_RE, _START_TAG_RE, _TAG_ATTRIBUTE_RE,
                    _END_TAG_RE]
        re.purge()  # compile them again, not from re's cache
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pattern in patterns:
                re.compile(pattern.pattern)

    def test_whitespace(self):
        for cp in CODE_POINTS:
            ch = chr(cp)
            assert (chars.WHITESPACE_RE.fullmatch(ch) is not None) \
                == chars.is_whitespace(ch), hex(cp)

    def test_name_start_char(self):
        for cp in CODE_POINTS:
            ch = chr(cp)
            assert (chars.NAME_RE.fullmatch(ch) is not None) \
                == chars.is_name_start_char(ch), hex(cp)

    def test_name_char(self):
        for cp in CODE_POINTS:
            ch = chr(cp)
            assert (chars.NAME_RE.fullmatch("a" + ch) is not None) \
                == chars.is_name_char(ch), hex(cp)

    def test_char(self):
        for cp in CODE_POINTS:
            ch = chr(cp)
            assert (chars.NON_CHAR_RE.fullmatch(ch) is None) \
                == chars.is_xml_char(ch), hex(cp)

    @pytest.mark.parametrize("quote", ['"', "'"])
    def test_plain_attribute_value(self, quote):
        """The one-match path takes every character but those the
        stepping loop treats specially (and the other quote); Char is
        the caller's check."""
        for cp in CODE_POINTS:
            ch = chr(cp)
            matched = _START_TAG_RE.fullmatch(
                f"<r a={quote}{ch}{quote}/>")
            assert (matched is not None) == (ch not in "<&\t\n\"'"), \
                hex(cp)

    def test_non_char_in_a_plain_looking_value_is_rejected(self):
        for cp in CODE_POINTS:
            ch = chr(cp)
            if chars.is_xml_char(ch):
                continue
            with pytest.raises(XMLWellFormednessError,
                               match=f"U\\+{cp:04X} in attribute"):
                parse(f"<r a='x{ch}y'/>")


@pytest.mark.parametrize(
    "case", error_golden.load(),
    ids=lambda case: ascii(case["doc"][:40]))
def test_outcome_matches_the_per_character_scanner(case):
    expected = {k: v for k, v in case.items()
                if k not in ("doc", "namespaces")}
    assert error_golden.outcome(case["doc"], case["namespaces"]) \
        == expected


# -- attribute values: fast path and fallback --------------------------------

#: (source text, parsed meaning) pieces an attribute value is built of
_plain = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="<&\"'\ufffe\uffff",
                  min_codepoint=0x20),
    min_size=1, max_size=8).map(lambda s: (s, s))
_pieces = st.one_of(
    _plain,
    st.sampled_from([
        ("\t", " "), ("\n", " "), ("\r\n", " "),     # normalised
        ("&amp;", "&"), ("&lt;", "<"), ("&quot;", '"'),
        ("&apos;", "'"), ("&gt;", ">"),              # expanded
        ("&#x9;", "\t"), ("&#xA;", "\n"), ("&#13;", "\r"),
        ("&#x41;", "A"), ("&#x10FFFF;", "\U0010FFFF"),
    ]))
_values = st.lists(_pieces, max_size=6)


def test_a_value_holding_the_other_quote_steps_through():
    root = parse("""<r a="it's" b='say "hi"' c = "plain"/>""").root
    assert [root.get(name) for name in "abc"] == \
        ["it's", 'say "hi"', "plain"]


@given(st.lists(st.tuples(st.sampled_from("\"'"), _values),
                min_size=1, max_size=5))
@example([('"', [("plain", "plain")])])                  # fast path only
@example([("'", [("a", "a"), ("\t", " "), ("&amp;", "&")])])  # fallback
@example([('"', []), ("'", [("&#x41;", "A")])])
def test_attribute_values_parse_to_their_meaning(attributes):
    source = "".join(
        f" a{i}={quote}{''.join(raw for raw, _ in value)}{quote}"
        for i, (quote, value) in enumerate(attributes))
    expected = Element("r")
    for i, (_quote, value) in enumerate(attributes):
        expected.set(f"a{i}", "".join(meaning for _, meaning in value))
    expected.append(Text("t"))
    parsed = parse(f"<r{source}>t</r>", namespaces=False)
    assert serialize(parsed.root) == serialize(expected)
    # and the serialized form is a fixed point of parse + serialize
    again = parse(serialize(parsed), namespaces=False)
    assert serialize(again) == serialize(parsed)
