"""Minimal HTTP/1.0 GET client over raw sockets.

Speaks just enough HTTP for metadata retrieval from
:class:`repro.http.server.MetadataHTTPServer` (or any HTTP server
serving small documents): one GET, ``Connection: close``, status line +
headers + body.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field

from repro.errors import HTTPError, ResponseTooLargeError
from repro.http.retry import RetryPolicy, call_with_retry
from repro.obs import runtime as _obs
from repro.obs.metrics import MALFORMED_DOCUMENTS

_MAX_HEADER_BYTES = 64 * 1024
#: far above any schema document or metrics scrape this system serves
_MAX_BODY_BYTES = 64 * 1024 * 1024
_RECV_CHUNK = 64 * 1024


@dataclass
class HTTPResponse:
    """A parsed HTTP response."""

    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


def http_get(host: str, port: int, path: str, *,
             timeout: float = 10.0,
             retry: RetryPolicy | None = None) -> HTTPResponse:
    """Issue ``GET path`` and return the parsed response.

    With *retry*, connection-level failures (refused, dropped,
    truncated, malformed response) are retried under the policy, whose
    per-attempt ``timeout`` overrides *timeout*.  Status codes are
    returned, not raised — 5xx retry lives in the resolver layer
    (:func:`repro.http.urls.fetch`).
    """
    if retry is not None:
        return call_with_retry(
            lambda: _http_get_once(host, port, path,
                                   timeout=retry.timeout),
            retry)
    return _http_get_once(host, port, path, timeout=timeout)


def _http_get_once(host: str, port: int, path: str, *,
                   timeout: float) -> HTTPResponse:
    if not path.startswith("/"):
        path = "/" + path
    request = (f"GET {path} HTTP/1.0\r\n"
               f"Host: {host}:{port}\r\n"
               f"User-Agent: repro-xmit/1.0\r\n"
               f"Connection: close\r\n"
               f"\r\n").encode("ascii")
    try:
        with socket.create_connection((host, port),
                                      timeout=timeout) as sock:
            sock.sendall(request)
            return _read_response(sock, f"{host}:{port}{path}")
    except OSError as exc:
        raise HTTPError(
            f"GET http://{host}:{port}{path} failed: {exc}") from None


def _too_large(reason: str, message: str) -> ResponseTooLargeError:
    if _obs.enabled:
        MALFORMED_DOCUMENTS.labels("http", reason).inc()
    return ResponseTooLargeError(message)


def _read_response(sock: socket.socket, where: str) -> HTTPResponse:
    """Read one response, both caps enforced as the bytes arrive: a
    hostile endpoint can make this hold at most ``_MAX_HEADER_BYTES``
    of head plus ``_MAX_BODY_BYTES`` of body (one chunk over each)."""
    data = bytearray()
    end = -1
    while end < 0 and len(data) <= _MAX_HEADER_BYTES + 3:
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            raise HTTPError(
                f"malformed HTTP response from {where} "
                "(no header terminator)")
        data += chunk
        end = data.find(b"\r\n\r\n")
    if not 0 <= end <= _MAX_HEADER_BYTES:
        raise _too_large("oversized_head",
                         f"HTTP response headers from {where} too large")
    response, expected = _parse_head(bytes(data[:end]), where)
    if expected is not None and expected > _MAX_BODY_BYTES:
        raise _too_large(
            "oversized_body",
            f"{where} declares a {expected}-byte body "
            f"(limit {_MAX_BODY_BYTES})")
    del data[:end + 4]
    # a declared length is all that is read; without one, up to EOF
    want = _MAX_BODY_BYTES + 1 if expected is None else expected
    while len(data) < want:
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            break
        data += chunk
    if expected is None:
        if len(data) > _MAX_BODY_BYTES:
            raise _too_large(
                "oversized_body",
                f"body from {where} exceeds {_MAX_BODY_BYTES} bytes")
    elif len(data) < expected:
        raise HTTPError(
            f"truncated body: {len(data)} of {expected} bytes")
    response.body = bytes(data[:expected])
    return response


def _parse_head(head: bytes, where: str) \
        -> tuple[HTTPResponse, int | None]:
    """The status line and headers, plus the declared Content-Length
    (None when the response carries none)."""
    lines = head.decode("latin-1").split("\r\n")
    status_parts = lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[0].startswith("HTTP/"):
        raise HTTPError(f"malformed status line {lines[0]!r}")
    try:
        status = int(status_parts[1])
    except ValueError:
        raise HTTPError(f"malformed status code in {lines[0]!r}") from None
    reason = status_parts[2] if len(status_parts) > 2 else ""
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    expected = None
    declared = headers.get("content-length")
    if declared is not None:
        try:
            expected = int(declared)
            if expected < 0:
                raise ValueError(declared)
        except ValueError:
            raise HTTPError(
                f"malformed Content-Length header {declared!r} from "
                f"{where}") from None
    return HTTPResponse(status=status, reason=reason,
                        headers=headers), expected
