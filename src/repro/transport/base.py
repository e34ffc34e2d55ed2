"""The channel abstraction.

A :class:`Channel` moves whole frames between exactly two endpoints, in
order, reliably — the service TCP provides and the in-process pair
simulates.  Everything above (connections, components, the Hydrology
pipeline) is written against this interface, so swapping loopback TCP
for in-process queues changes nothing but the constructor.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import TransportError
from repro.transport.messages import Frame


class Channel(ABC):
    """Reliable, ordered, framed, bidirectional byte transport."""

    @abstractmethod
    def send(self, frame: Frame) -> None:
        """Send one frame; raises :class:`TransportError` when closed."""

    def send_many(self, frames: Iterable[Frame]) -> None:
        """Send several frames back to back.

        The base implementation loops over :meth:`send`; transports
        with per-call costs (TCP's syscall per ``sendall``) override
        it to coalesce the writes.
        """
        for frame in frames:
            self.send(frame)

    def fileno(self) -> int:
        """The OS-level descriptor, for event-loop registration.

        Only socket-backed channels have one; others raise so callers
        fall back to thread-per-channel servicing.
        """
        raise TransportError(
            f"{type(self).__name__} has no pollable descriptor")

    @abstractmethod
    def recv(self, timeout: float | None = None) -> Frame | None:
        """Receive the next frame.

        Returns None on orderly close.  Raises
        :class:`TransportError` on timeout or broken transport.
        """

    @abstractmethod
    def close(self) -> None:
        """Close this endpoint; the peer's recv() returns None."""
