"""The position-tracking reader."""

import pytest

from repro.errors import XMLWellFormednessError
from repro.xmlcore.reader import Reader, normalize_line_endings


class TestLineEndings:
    def test_crlf_and_cr_normalize(self):
        assert normalize_line_endings("a\r\nb\rc\nd") == "a\nb\nc\nd"

    def test_no_cr_is_untouched(self):
        text = "plain\ntext"
        assert normalize_line_endings(text) is text


class TestScanning:
    def test_peek_does_not_consume(self):
        r = Reader("abc")
        assert r.peek() == "a"
        assert r.peek(2) == "ab"
        assert r.pos == 0

    def test_next_consumes(self):
        r = Reader("ab")
        assert r.next() == "a"
        assert r.next() == "b"
        with pytest.raises(XMLWellFormednessError):
            r.next()

    def test_match_and_expect(self):
        r = Reader("<?xml rest")
        assert r.match("<?xml")
        assert not r.match("nope")
        r.expect(" rest")
        with pytest.raises(XMLWellFormednessError, match="expected"):
            r.expect("more")

    def test_skip_whitespace(self):
        r = Reader("  \t\n x")
        assert r.skip_whitespace() == 5
        assert r.peek() == "x"
        assert r.skip_whitespace() == 0

    def test_require_whitespace(self):
        r = Reader("x")
        with pytest.raises(XMLWellFormednessError, match="whitespace"):
            r.require_whitespace("here")

    def test_read_until(self):
        r = Reader("body-->after")
        assert r.read_until("-->", "comment") == "body"
        assert r.peek() == "a"

    def test_read_until_missing_terminator(self):
        r = Reader("never ends")
        with pytest.raises(XMLWellFormednessError, match="unterminated"):
            r.read_until("-->", "comment")


class TestLocation:
    def test_first_line(self):
        r = Reader("hello")
        r.pos = 3
        assert r.location() == (1, 4)

    def test_multiline(self):
        r = Reader("ab\ncd\nef")
        assert r.location(0) == (1, 1)
        assert r.location(3) == (2, 1)
        assert r.location(4) == (2, 2)
        assert r.location(6) == (3, 1)

    def test_error_carries_position(self):
        r = Reader("ab\ncd")
        r.pos = 4
        err = r.error("boom")
        assert err.line == 2 and err.column == 2
