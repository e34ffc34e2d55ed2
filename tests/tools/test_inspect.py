"""Format inspector."""

import pytest

from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.tools.inspect import describe_format


@pytest.fixture
def fmt():
    ctx = IOContext(format_server=FormatServer())
    return ctx.register_layout("Msg", [
        ("tag", "char"), ("count", "integer", 4),
        ("label", "string"), ("values", "float[count]", 4)])


class TestDescribeFormat:
    def test_field_table(self, fmt):
        text = describe_format(fmt)
        assert "format 'Msg'" in text
        assert "label" in text and "string" in text
        assert "float[count]" in text
        assert "record length" in text

    def test_nested_formats_shown(self):
        from repro.pbio.layout import field_list_for
        from repro.pbio.format import IOFormat
        point = field_list_for([("x", "double", 8)])
        fmt = IOFormat("T", field_list_for(
            [("p", "Point")], subformats={"Point": point}))
        text = describe_format(fmt)
        assert "subformat Point" in text

    def test_enums_shown(self):
        from repro.pbio.layout import field_list_for
        from repro.pbio.format import IOFormat
        fmt = IOFormat("T", field_list_for(
            [("mode", "enumeration", 4)]),
            {"mode": ("fast", "safe")})
        assert "['fast', 'safe']" in describe_format(fmt)
