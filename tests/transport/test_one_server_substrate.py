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
    assert not defined & {"publish", "publish_encoded", "_format",
                          "_version_format"}
    (server,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and node.name == "ShardedBroadcastServer"]
    assert [ast.unparse(base) for base in server.bases] == \
        ["PublishFront"]


#: struct formats a frame-length prefix is read with: the length alone,
#: or the length and the type byte
PREFIX_FORMATS = (">I", ">IB")
#: names a frame length is checked against (a record length inside a
#: batch payload is bounded by the payload instead)
FRAME_CAPS = {"frame_length_error", "FrameTooLargeError", "MAX_FRAME",
              "max_frame_len", "_MAX_CTL_FRAME"}


def _length_prefix_readers(tree) -> list[str]:
    """Top-level functions and classes of *tree* that unpack a
    big-endian u32 into a name ``length`` and check it against a frame
    cap: a frame-length prefix."""
    structs = {target.id for node in tree.body
               if isinstance(node, ast.Assign)
               and ast.unparse(node.value).startswith("struct.Struct(")
               and ast.literal_eval(node.value.args[0]) in PREFIX_FORMATS
               for target in node.targets if isinstance(target, ast.Name)}

    def reads_prefix(node) -> bool:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("unpack", "unpack_from")):
            return False
        owner = ast.unparse(node.value.func.value)
        if owner == "struct":
            first = node.value.args[0]
            unpacks_u32 = (isinstance(first, ast.Constant)
                           and first.value in PREFIX_FORMATS)
        else:
            unpacks_u32 = owner in structs
        return unpacks_u32 and any(
            isinstance(name, ast.Name) and name.id == "length"
            for target in node.targets for name in ast.walk(target))

    def names(top) -> set[str]:
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))}

    return [top.name for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(reads_prefix(node) for node in ast.walk(top))
            and names(top) & FRAME_CAPS]


def test_the_transport_reassembles_frames_in_one_place():
    readers = [f"{name}:{reader}" for name, tree in _modules()
               for reader in _length_prefix_readers(tree)]
    assert readers == ["transport/messages.py:FrameReader"]
    for module in ("transport/eventloop.py", "transport/sharded.py"):
        text = (PACKAGE / module).read_text()
        for call in ("client.sock.recv(", "socket.recv_fds(",
                     "iter_frames"):
            assert call not in text, f"{module}: {call}"


def test_a_shard_is_entered_one_way():
    """The fdpass acceptor is the only way a subscriber reaches a
    shard: no worker binds a shared port and no loop takes a listener
    built elsewhere."""
    for path in sorted((PACKAGE / "transport").rglob("*.py")):
        text = path.read_text()
        for word in ("SO_REUSEPORT", "listener_socket"):
            assert word not in text, f"transport/{path.name}: {word}"
