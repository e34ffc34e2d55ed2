"""Everything that listens is an EventLoopServer handler, pinned at
the source level.

``http/server.py`` and ``pbio/remote_server.py`` each used to run a
private thread-per-connection accept loop beside the event loop, and
``sharded.py`` re-typed the broadcast publisher's publish front.  This
keeps a second accept loop, a second publish front or a second frame
reassembler from growing back.
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


def _modules_calling(matches) -> set[str]:
    return {name for name, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and matches(node.func)}


def test_threads_are_started_in_four_modules():
    def is_thread(func) -> bool:
        return ast.unparse(func) in ("threading.Thread", "Thread")
    assert _modules_calling(is_thread) == {
        "transport/eventloop.py",   # the one loop thread per server
        "transport/sharded.py",     # control readers, fdpass acceptor
        "rpc/endpoints.py",
        "hydrology/pipeline.py",
    }


def test_connections_are_accepted_in_three_modules():
    def is_accept(func) -> bool:
        return isinstance(func, ast.Attribute) and func.attr == "accept"
    assert _modules_calling(is_accept) == {
        "transport/eventloop.py",
        "transport/tcp.py",       # TCPListener: one blocking channel
        # the fdpass acceptor only hands each fd to a shard's loop
        # (ShardedBroadcastServer._pass_connections); it serves nobody
        "transport/sharded.py",
    }


def test_services_own_no_socket_thread_or_stop_event():
    for module in ("http/server.py", "pbio/remote_server.py",
                   "testing/faults.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                assert called not in (
                    "socket.socket", "threading.Thread",
                    "threading.Event", "TCPListener"), \
                    f"{module} constructs its own {called}"


def test_the_sharded_server_inherits_its_publish_front():
    tree = ast.parse((PACKAGE / "transport/sharded.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"publish", "publish_many", "publish_encoded",
                          "_format", "_version_format"}
    (server,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and node.name == "ShardedBroadcastServer"]
    assert [ast.unparse(base) for base in server.bases] == \
        ["PublishFront"]


def test_the_event_loop_reassembles_frames_in_one_place():
    tree = ast.parse((PACKAGE / "transport/eventloop.py").read_text())
    unpackers = [
        function.name for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("unpack", "unpack_from")]
    assert unpackers == ["iter_frames"]


def test_a_shard_is_entered_one_way():
    """The fdpass acceptor is the only way a subscriber reaches a
    shard: no worker binds a shared port and no loop takes a listener
    built elsewhere."""
    for path in sorted((PACKAGE / "transport").rglob("*.py")):
        text = path.read_text()
        for word in ("SO_REUSEPORT", "listener_socket"):
            assert word not in text, f"transport/{path.name}: {word}"
