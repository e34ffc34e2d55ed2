"""Span tracing from outside the program.

The tracer replaces *instance attributes* of objects the benchmark
built (``conn.send``, ``ctx.encode``, ``channel.recv`` …) with timing
wrappers.  The library's composite calls look those attributes up on
``self``, so the real call graph runs and spans nest by themselves:
``transport.connection.send`` contains ``pbio.context.encode`` and
``transport.tcp.send``.  No file under ``src/`` is touched.

A wrapper costs two clock reads and one list append — a wrapper that
kept a span stack cost 1.2 us a span and a third of ``stream_small``'s
latency.  So while running only ``(name, start_ns, end_ns)`` is kept,
in memory; :meth:`Tracer.spans` rebuilds the rest afterwards from
interval containment (one driver thread, so spans nest properly):
``[name, start_ns, end_ns, parent_index, seq]``, ``seq`` numbering
the root spans — one per message — in order.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: appended when a span ENDS, so children precede parents
        self.events: list[tuple[str, int, int]] = []
        self._owner = threading.get_ident()
        self._wrapped: list[tuple[object, str, object]] = []

    def wrap(self, obj, attr: str, name: str, *,
             owner_only: bool = False) -> None:
        """Time every call of ``obj.attr``.  *owner_only* skips calls
        from other threads: the event-loop thread also calls
        ``EventLoopServer.enqueue`` (HELLO on connect) and its spans
        would not nest in the driver's."""
        inner = getattr(obj, attr)
        record, clock = self.events.append, perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            result = inner(*args, **kwargs)
            record((name, start, clock()))
            return result

        if owner_only:
            owner, get_ident = self._owner, threading.get_ident
            fast = traced

            def traced(*args, **kwargs):
                if get_ident() != owner:
                    return inner(*args, **kwargs)
                return fast(*args, **kwargs)

        self._wrapped.append((obj, attr, traced))
        setattr(obj, attr, traced)

    def detach(self) -> None:
        """Take the wrappers off again (the class's own methods show
        through), so untraced and traced blocks can alternate."""
        for obj, attr, _traced in self._wrapped:
            vars(obj).pop(attr, None)

    def attach(self) -> None:
        for obj, attr, traced in self._wrapped:
            setattr(obj, attr, traced)

    def span(self, name: str) -> "_Manual":
        """A span around benchmark code (message root, waits, layers
        the benchmark calls directly)."""
        return _Manual(self.events, name)

    def spans(self) -> list[list]:
        order = sorted(self.events, key=lambda e: (e[1], -e[2]))
        out: list[list] = []
        stack: list[int] = []
        seq = -1
        for name, start, end in order:
            while stack and out[stack[-1]][2] < start:
                stack.pop()
            if not stack:
                seq += 1
            out.append([name, start, end, stack[-1] if stack else -1, seq])
            stack.append(len(out) - 1)
        return out


class _Manual:
    __slots__ = ("_events", "_name", "_start")

    def __init__(self, events: list, name: str) -> None:
        self._events = events
        self._name = name

    def __enter__(self) -> None:
        self._start = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self._events.append((self._name, self._start, perf_counter_ns()))


def span_cost_ns(calls: int = 20_000) -> float:
    """What one wrapper adds to the spans around it, calibrated on a
    no-op method in this process (about 0.5 us here).  The ledger
    subtracts it per nested span; the layer metrics stay as measured."""
    class Noop:
        def call(self, a, b=None):
            return a

    target = Noop()

    def per_call() -> float:
        t0 = perf_counter_ns()
        for _ in range(calls):
            target.call(1, b=2)
        return (perf_counter_ns() - t0) / calls

    bare = min(per_call() for _ in range(5))
    Tracer().wrap(target, "call", "noop")
    return min(per_call() for _ in range(5)) - bare


def dump(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start_ns", "end_ns", "parent",
                               "seq"], "spans": spans}, fh)


def self_times(spans: list[list]) -> list[int]:
    """Self time per span: duration minus the part its children cover."""
    out = [end - start for _name, start, end, _parent, _seq in spans]
    for _name, start, end, parent, _seq in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_message(spans: list[list], values: list[int]) -> dict[str, list[int]]:
    """Sum *values* (durations or self times) by span name within each
    message: ``{name: [ns in message 0, ns in message 1, ...]}``.  A
    message that never entered a layer contributes nothing to it."""
    sums: dict[tuple[str, int], int] = {}
    for (name, _s, _e, _p, seq), value in zip(spans, values):
        key = (name, seq)
        sums[key] = sums.get(key, 0) + value
    out: dict[str, list[int]] = {}
    for (name, _seq), total in sums.items():
        out.setdefault(name, []).append(total)
    return out
