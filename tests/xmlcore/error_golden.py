#!/usr/bin/env python
"""The parser's observable outcome on every document the parser-error
and edge-case tests feed it, pinned as a golden table.

``error_golden.json`` was generated from the commit *before* the
scanner moved from per-character loops to compiled-regex bulk scans
(ISSUE 20), so ``test_scanner_differential.py`` holds the rewritten
scanner to byte-identical error messages, lines and columns.

Usage::

    PYTHONPATH=src python tests/xmlcore/error_golden.py          # rewrite
    PYTHONPATH=src python tests/xmlcore/error_golden.py --check  # verify

Only rewrite after a change that is *meant* to alter a diagnostic, and
say so in the commit message.  To regenerate from another commit, put
that commit's ``src`` on ``PYTHONPATH`` instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("error_golden.json")
SOURCES = ("test_parser_errors.py", "test_parser_edge_cases.py",
           "test_namespaces.py")
#: the table stays reviewable: the few documents past this size are
#: the edge-case suite's bulk inputs, and they all parse
MAX_DOCUMENT_CHARS = 8192


def outcome(text: str, namespaces: bool) -> dict:
    """What ``parse`` does with *text*: the serialized tree, or the
    error's type, message and position."""
    from repro.errors import XMLError
    from repro.xmlcore import parse, serialize
    try:
        return {"ok": serialize(parse(text, namespaces=namespaces))}
    except XMLError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "line": getattr(exc, "line", None),
                "column": getattr(exc, "column", None)}


def collect() -> list[dict]:
    """Run the source test modules with ``parse`` recording its
    arguments; one entry per distinct (document, namespaces)."""
    import pytest

    import repro.xmlcore
    import repro.xmlcore.parser as parser_module

    real_parse = parser_module.parse
    seen: dict[tuple[str, bool], None] = {}

    def recording_parse(text, *, namespaces=True):
        if len(text) <= MAX_DOCUMENT_CHARS:
            seen.setdefault((text, namespaces))
        return real_parse(text, namespaces=namespaces)

    # the test modules bind ``parse`` at import, so patch first
    parser_module.parse = repro.xmlcore.parse = recording_parse
    try:
        here = Path(__file__).parent
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider",
             *(str(here / name) for name in SOURCES)])
    finally:
        parser_module.parse = repro.xmlcore.parse = real_parse
    if status != 0:
        raise SystemExit(f"source tests failed (pytest exit {status})")
    return [{"doc": text, "namespaces": namespaces,
             **outcome(text, namespaces)} for text, namespaces in seen]


def load() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    check = "--check" in (sys.argv[1:] if argv is None else argv)
    current = collect()
    if not check:
        GOLDEN_PATH.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {len(current)} outcomes to {GOLDEN_PATH}")
        return 0
    if current != load():
        print("error_golden.json is out of date", file=sys.stderr)
        return 1
    print(f"{len(current)} outcomes match")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    sys.exit(main())
