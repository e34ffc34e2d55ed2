"""Nothing the package reads — from disk or from a peer — is executed.

The plan cache used to ``marshal.loads`` + ``exec`` code objects out of
``REPRO_PLAN_CACHE_DIR``.  That path is gone; this pins it shut at the
source level: no module under ``src/repro`` imports ``marshal``, and the
only ``exec`` / ``eval`` call left is the fused-run emitter's, which
runs source the same function generated a few lines earlier.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), \
            ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_marshal():
    offenders = [
        name for name, tree in _modules() for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "marshal"
                    for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "marshal")]
    assert offenders == []


class _ExecCalls(ast.NodeVisitor):
    """Names of the functions that call ``exec`` / ``eval``."""

    def __init__(self) -> None:
        self.stack: list[str] = ["<module>"]
        self.callers: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node) -> None:
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("exec", "eval"):
            self.callers.append(self.stack[-1])
        self.generic_visit(node)


def test_the_only_exec_is_the_fused_run_emitter():
    calls = []
    for name, tree in _modules():
        finder = _ExecCalls()
        finder.visit(tree)
        calls += [(name, caller) for caller in finder.callers]
    assert calls == [("pbio/encode.py", "_compile_fused_run")]
