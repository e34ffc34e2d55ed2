"""Counting has one mechanism, pinned at the source level.

Five ``*Stats`` classes each used to carry their own lock, class-wide
totals and collector glue.  They are declarations over
:class:`repro.obs.registry.Tally` now; this keeps a sixth mechanism
from growing back, and keeps the metric catalog in
``docs/OBSERVABILITY.md`` from drifting behind the code.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro
import repro.obs

PACKAGE = Path(repro.__file__).resolve().parent
CATALOG = PACKAGE.parents[1] / "docs" / "OBSERVABILITY.md"


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), \
            ast.parse(path.read_text(), filename=str(path))


def _stats_classes():
    for name, tree in _modules():
        metrics_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.obs.metrics"
            for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name.endswith("Stats"):
                yield name, node, metrics_names


def test_every_stats_class_is_a_tally_declaration():
    found = {}
    for module, cls, metrics_names in _stats_classes():
        assert [ast.unparse(base) for base in cls.bases] == ["Tally"], \
            f"{module}:{cls.name} counts some other way"
        for node in ast.walk(cls):
            # no lock of its own
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func).split(".")[-1]
                assert called not in ("Lock", "RLock"), \
                    f"{module}:{cls.name} owns a lock"
            # no inline mirror into a declared series
            if isinstance(node, ast.Name):
                assert node.id not in metrics_names, \
                    f"{module}:{cls.name} references {node.id}"
        for node in cls.body:
            # no class-wide totals ({name: 0, ...}); a str -> str
            # declaration such as _HIGH_WATER is fine
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    isinstance(node.value, (ast.Dict, ast.DictComp)):
                values = (node.value.values
                          if isinstance(node.value, ast.Dict)
                          else [node.value.value])
                assert all(isinstance(v, ast.Constant)
                           and isinstance(v.value, str)
                           for v in values), \
                    f"{module}:{cls.name} keeps class-level totals"
            # the cells themselves live in Tally only
            if isinstance(node, ast.FunctionDef):
                assert node.name not in (
                    "row", "count", "mark", "as_dict", "snapshot",
                    "__getattr__"), \
                    f"{module}:{cls.name} reimplements {node.name}"
        found[cls.name] = module
    assert found == {
        "BroadcastStats": "transport/broadcast.py",
        "BulkStats": "pbio/encode.py",
        "ComponentStats": "hydrology/components.py",
        "ContextStats": "pbio/context.py",
        "DiscoveryStats": "http/retry.py",
    }


def test_atomic_counter_is_gone():
    defined = [module for module, tree in _modules()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name == "AtomicCounter"]
    assert defined == []
    assert "AtomicCounter" not in repro.obs.__all__
    assert not hasattr(repro.obs, "AtomicCounter")


def test_the_catalog_knows_no_stats_class_and_one_tally_collector():
    collectors = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if module == "obs/metrics.py" and \
                    isinstance(node, ast.ImportFrom):
                assert node.module not in (
                    "repro.pbio.context", "repro.transport.broadcast")
            if isinstance(node, ast.Call) and ast.unparse(
                    node.func).endswith(".register_collector"):
                collectors.append(
                    (module, ast.unparse(node.args[0])))
    assert sorted(collectors) == [
        ("obs/registry.py", "_collect_tallies"),       # every tally
        ("transport/eventloop.py", "self._obs_collect"),
    ]


def test_every_live_metric_is_in_the_documented_catalog():
    from repro.hydrology.pipeline import run_publisher_pipeline
    run_publisher_pipeline(subscribers=2, timesteps=2, grid=8)
    documented = {
        name for row in CATALOG.read_text().splitlines()
        if row.startswith("| `repro_")
        for name in re.findall(r"`(repro_\w+)`", row.split("|")[1])}
    missing = sorted(set(repro.obs.snapshot()) - documented)
    assert missing == []
