"""Message transport with on-demand format negotiation.

PBIO records carry only an 8-byte format ID; when a receiver sees an ID
it cannot resolve it asks the peer for the metadata, imports it into
its local format server, and proceeds — after which every further
record in that format decodes without negotiation.  That is the
"connection establishment" cost the paper describes as the only place
XMIT/PBIO pay overhead ("Small 'startup' overheads are incurred only
during 'connection establishment'").

Layers:

* :mod:`repro.transport.base`       -- framed :class:`Channel` interface;
* :mod:`repro.transport.inproc`     -- queue-backed channel pair;
* :mod:`repro.transport.tcp`        -- socket channel + listener;
* :mod:`repro.transport.messages`   -- frame encoding;
* :mod:`repro.transport.connection` -- :class:`Connection`: records in,
  records out, metadata fetched on demand;
* :mod:`repro.transport.eventloop`  -- one-thread ``selectors`` server
  for many concurrent clients;
* :mod:`repro.transport.broadcast`  -- encode-once fan-out publisher
  with bounded per-client write queues;
* :mod:`repro.transport.sharded`    -- multi-process sharded broadcast:
  one marshaling publisher, N event-loop worker processes.
"""

from repro.transport.base import Channel
from repro.transport.broadcast import (
    BackpressurePolicy, BroadcastPublisher, BroadcastStats,
)
from repro.transport.connection import Connection, ReceivedMessage
from repro.transport.eventloop import (
    ClientHandle, EventLoopServer, Poller,
)
from repro.transport.inproc import InProcChannel, channel_pair
from repro.transport.messages import Frame, FrameType, frame_bytes
from repro.transport.sharded import ShardedBroadcastServer, WorkerConfig
from repro.transport.tcp import TCPChannel, TCPListener, tcp_pair

__all__ = [
    "BackpressurePolicy",
    "BroadcastPublisher",
    "BroadcastStats",
    "Channel",
    "ClientHandle",
    "Connection",
    "EventLoopServer",
    "Frame",
    "FrameType",
    "InProcChannel",
    "Poller",
    "ReceivedMessage",
    "ShardedBroadcastServer",
    "TCPChannel",
    "TCPListener",
    "WorkerConfig",
    "channel_pair",
    "frame_bytes",
    "tcp_pair",
]
