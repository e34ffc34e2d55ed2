"""Fault injection for the discovery path.

Two injection points, matching the two layers a real deployment can
fail at:

* :class:`FaultInjectingResolver` — a URL resolver (installed with
  :func:`repro.http.urls.register_resolver`) that serves a scripted
  sequence of faults before (or instead of) the healthy document.
  This is the zero-network harness: every fault the retry policy must
  classify can be produced deterministically, and every access is
  counted.
* :class:`FaultyHTTPServer` — a :class:`~repro.http.server
  .MetadataHTTPServer` whose responses consume the same fault script
  at the socket level: drop the connection, truncate the body below
  Content-Length, answer 5xx, stall, or emit bytes that are not HTTP
  at all.

A fault script is a sequence of the constants below; once exhausted
the target behaves healthily (append ``repeat=True`` to
:meth:`FaultScript.extend` or pass ``repeat_last=True`` to keep the
final fault forever — that is how "permanently dead" is modeled).
"""

from __future__ import annotations

import threading
import time

from repro.errors import DiscoveryError, HTTPError
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import ParsedURL, register_resolver
from repro.obs import runtime as _obs
from repro.obs.metrics import FAULTS_INJECTED

#: fault kinds understood by both harnesses
FAIL = "fail"            # connection-level failure (DiscoveryError/drop)
DROP = "drop"            # close the connection without a byte
HTTP_500 = "http-500"    # well-formed 500 response
HTTP_404 = "http-404"    # well-formed 404 response (non-retryable)
TRUNCATE = "truncate"    # body shorter than the declared length
GARBAGE = "garbage"      # bytes that are not HTTP / not the document
SLOW = "slow"            # stall, then serve healthily
OK = "ok"                # serve healthily

_KINDS = {FAIL, DROP, HTTP_500, HTTP_404, TRUNCATE, GARBAGE, SLOW, OK}


class FaultScript:
    """A thread-safe, consumable sequence of fault kinds.

    ``pop()`` returns the next scripted fault, or :data:`OK` once the
    script is exhausted.  With ``repeat_last=True`` the final entry is
    served forever (a permanently dead URL is ``[FAIL]`` repeated).
    """

    def __init__(self, faults: tuple[str, ...] | list[str] = (), *,
                 repeat_last: bool = False) -> None:
        for fault in faults:
            if fault not in _KINDS:
                raise ValueError(f"unknown fault kind {fault!r} "
                                 f"(known: {sorted(_KINDS)})")
        self._lock = threading.Lock()
        self._queue: list[str] = list(faults)
        self._repeat_last = repeat_last
        self.history: list[str] = []

    def pop(self) -> str:
        with self._lock:
            if not self._queue:
                fault = OK
            elif len(self._queue) == 1 and self._repeat_last:
                fault = self._queue[0]
            else:
                fault = self._queue.pop(0)
            self.history.append(fault)
        if fault != OK and _obs.enabled:
            FAULTS_INJECTED.labels(kind=fault).inc()
        return fault

    def extend(self, faults, *, repeat_last: bool | None = None) -> None:
        with self._lock:
            self._queue.extend(faults)
            if repeat_last is not None:
                self._repeat_last = repeat_last

    @property
    def pending(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._queue)


class FaultInjectingResolver:
    """A scheme resolver serving scripted faults, then health.

    Usage::

        resolver = FaultInjectingResolver("fault")
        url = resolver.publish("doc.xsd", xsd_text,
                               faults=[FAIL, FAIL])
        resolver.install()        # register_resolver("fault", ...)
        XMIT().load_url(url)      # fails twice, succeeds on attempt 3
    """

    def __init__(self, scheme: str = "fault", *,
                 slow_delay: float = 0.05) -> None:
        self.scheme = scheme
        self.slow_delay = slow_delay
        self._lock = threading.Lock()
        self._documents: dict[str, bytes] = {}
        self._scripts: dict[str, FaultScript] = {}
        self.calls: dict[str, int] = {}

    # -- setup ---------------------------------------------------------------

    def install(self) -> "FaultInjectingResolver":
        register_resolver(self.scheme, self)
        return self

    def publish(self, name: str, content: str | bytes, *,
                faults=(), repeat_last: bool = False) -> str:
        data = (content.encode("utf-8") if isinstance(content, str)
                else bytes(content))
        with self._lock:
            self._documents[name] = data
            self._scripts[name] = FaultScript(tuple(faults),
                                              repeat_last=repeat_last)
            self.calls.setdefault(name, 0)
        return f"{self.scheme}:{name}"

    def set_faults(self, name: str, faults, *,
                   repeat_last: bool = False) -> None:
        with self._lock:
            self._scripts[name] = FaultScript(tuple(faults),
                                              repeat_last=repeat_last)

    def script_for(self, name: str) -> FaultScript:
        with self._lock:
            return self._scripts[name]

    # -- the resolver itself -------------------------------------------------

    def __call__(self, url: ParsedURL) -> bytes:
        name = url.path
        with self._lock:
            if name not in self._documents:
                raise DiscoveryError(
                    f"no document published at {self.scheme}:{name}")
            self.calls[name] = self.calls.get(name, 0) + 1
            data = self._documents[name]
            script = self._scripts[name]
        fault = script.pop()
        if fault == OK:
            return data
        if fault == SLOW:
            time.sleep(self.slow_delay)
            return data
        if fault in (FAIL, DROP):
            raise DiscoveryError(
                f"injected transient failure for {self.scheme}:{name}")
        if fault == HTTP_500:
            raise HTTPError(
                f"injected 500 for {self.scheme}:{name}", status=500)
        if fault == HTTP_404:
            raise HTTPError(
                f"injected 404 for {self.scheme}:{name}", status=404)
        if fault == TRUNCATE:
            raise HTTPError(
                f"injected truncated body for {self.scheme}:{name} "
                f"({len(data) // 2} of {len(data)} bytes)")
        if fault == GARBAGE:
            return b"\x00\xffthis is not the document you published"
        raise AssertionError(fault)  # pragma: no cover


class FaultyHTTPServer(MetadataHTTPServer):
    """A metadata HTTP server that misbehaves on cue, at socket level.

    Each request consumes one fault from the script and gets that
    fault's bytes in place of the healthy response; an exhausted
    script serves normally, so ``faults=[DROP, HTTP_500]`` models a
    server that heals on the third request.
    """

    def __init__(self, store: DocumentStore, *,
                 faults=(), repeat_last: bool = False,
                 slow_delay: float = 0.05, **kwargs) -> None:
        self.faults = FaultScript(tuple(faults),
                                  repeat_last=repeat_last)
        self.slow_delay = slow_delay
        super().__init__(store, **kwargs)

    def _response(self, request) -> bytes:
        fault = self.faults.pop()
        if fault == SLOW:
            # on the loop thread: the stall is this server's, whole
            time.sleep(self.slow_delay)
            fault = OK
        if fault == OK:
            return super()._response(request)
        if fault in (FAIL, DROP):
            return b""  # the connection closes without a byte
        if fault == GARBAGE:
            return b"\x00\xde\xadNOT HTTP AT ALL\r\n"
        if fault == HTTP_500:
            return self._render(500, b"injected server error")
        if fault == HTTP_404:
            return self._render(404, b"injected not found")
        if fault == TRUNCATE:
            doc = (self.store.get(request[1])
                   if request is not None else None) or b"??"
            whole = self._render(200, doc)
            return whole[:len(whole) - len(doc) + len(doc) // 2]
        raise AssertionError(fault)  # pragma: no cover
