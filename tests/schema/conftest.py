"""Every schema text a test in this directory parses also goes through
both ways into the front-end (``tests/schema/differential.py``), which
must agree on it."""

from __future__ import annotations

import pytest

from tests.schema.differential import checked_parse_schema_text


@pytest.fixture(autouse=True)
def _both_ways_in_agree(request, monkeypatch):
    if hasattr(request.module, "parse_schema_text"):
        monkeypatch.setattr(request.module, "parse_schema_text",
                            checked_parse_schema_text)
