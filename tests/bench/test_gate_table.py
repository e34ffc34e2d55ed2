"""The benchmark gate table, ``benchmarks/check_gates.py``.

The committed ``BENCH_*.json`` pass every row; each row fails when its
number is pushed across its bar, and no row fails that does not read
the pushed number; a missing file fails the run and names the
benchmark that writes it, and a row that reads nothing fails.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager
from pathlib import Path

import pytest

from benchmarks import check_gates as gates

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def copy_dir(tmp_path_factory) -> Path:
    """A directory holding a copy of every committed BENCH file."""
    root = tmp_path_factory.mktemp("bench")
    for name in gates.WRITERS:
        shutil.copy(ROOT / name, root / name)
    return root


def _failing_rows(root: Path) -> list:
    return [row for row, _ in gates.run(root)]


def _recorded(name: str):
    return json.loads((ROOT / name).read_text())


@contextmanager
def _rewritten(root: Path, name: str, data):
    """*root*'s copy of *name* holds *data* for the block."""
    path = root / name
    original = path.read_text()
    path.write_text(json.dumps(data))
    try:
        yield
    finally:
        path.write_text(original)


def _crossing(op: str, bar):
    """A value on the wrong side of *bar*."""
    if op == ">=":
        return bar - 1 if isinstance(bar, int) else bar / 2
    if op == "<=":
        return bar + 1 if isinstance(bar, int) else bar * 2
    if op == "==":
        return bar + 1
    return bar  # ">"


def _set(data, name: str, value) -> None:
    *parents, last = name.split(".")
    for key in parents:
        data = data[key]
    data[last] = value


def test_committed_files_pass():
    assert gates.run(ROOT) == []


@pytest.mark.parametrize(
    "row", gates.GATES,
    ids=[f"{row.file}:{row.path}{row.op}" for row in gates.GATES])
def test_row_fails_alone_across_its_bar(row, copy_dir):
    # the first match whose number moves the row's value alone (the
    # N=1 fan-out entry is its own flatness base: it cannot cross)
    for keys in gates.matches(row, _recorded(row.file)):
        data = _recorded(row.file)
        _, value = gates._value(data, row.path, keys)
        _, bar = gates._bar(data, row.bar, keys)
        leaf, number = gates._read(data, row.path.split(" / ")[0], keys)
        target = _crossing(row.op, bar)
        _set(data, leaf, target if " / " not in row.path
             else number * target / value)
        with _rewritten(copy_dir, row.file, data):
            failures = gates.run(copy_dir)
        if any(failed == row for failed, _ in failures):
            break
    else:
        pytest.fail(f"no match of {row.path} could cross {row.bar}")
    assert all(failed == row or leaf in text
               for failed, text in failures), failures


def test_missing_file_names_its_writer(copy_dir):
    kept = copy_dir / "BENCH_obs.json.kept"
    (copy_dir / "BENCH_obs.json").rename(kept)
    try:
        failures = gates.run(copy_dir)
    finally:
        kept.rename(copy_dir / "BENCH_obs.json")
    assert [row for row, _ in failures] == [None]
    assert "BENCH_obs.json missing" in failures[0][1]
    assert gates.WRITERS["BENCH_obs.json"][0] in failures[0][1]


@pytest.mark.parametrize("data", [{}, {"sender": {}}],
                         ids=["missing", "empty"])
def test_row_reading_nothing_fails(data, copy_dir):
    with _rewritten(copy_dir, "BENCH_evolution.json", data):
        failing = _failing_rows(copy_dir)
    assert failing == [row for row in gates.GATES
                       if row.file == "BENCH_evolution.json"]


def test_missing_key_fails_its_row(copy_dir):
    name = "BENCH_fanout_sharded.json"
    data = _recorded(name)
    del data["matrix"][max(data["matrix"], key=int)]["2"]
    with _rewritten(copy_dir, name, data):
        failing = _failing_rows(copy_dir)
    assert [row.path for row in failing] == [
        "matrix.*max.1.total_s / matrix.*max.2.total_s"]


def test_ungated_entry_is_not_checked(copy_dir):
    data = _recorded("BENCH_bulk.json")
    assert data["encode"]["1024"]["gate"] is False
    data["encode"]["1024"]["speedup"] = 0.1
    with _rewritten(copy_dir, "BENCH_bulk.json", data):
        assert _failing_rows(copy_dir) == []


def test_sharded_speedup_bar_follows_recorded_cpus(copy_dir):
    name = "BENCH_fanout_sharded.json"
    data = _recorded(name)
    rows = data["matrix"][max(data["matrix"], key=int)]
    rows["2"]["total_s"] = rows["1"]["total_s"] / 1.5
    rows["4"]["total_s"] = rows["1"]["total_s"] / 2.4
    speedups = [row for row in gates.GATES
                if row.file == name and isinstance(row.bar, gates.Tiers)]
    for cpus, failing in ((2, []), (4, speedups[:1]), (8, speedups)):
        data["cpus"] = cpus
        with _rewritten(copy_dir, name, data):
            assert _failing_rows(copy_dir) == failing, cpus


def test_ci_runs_every_writer():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for nodes in gates.WRITERS.values():
        for node in nodes:
            assert node in ci
