"""The PBIO format server.

Formats are registered once and referenced by 8-byte IDs on the wire;
any endpoint holding an ID can fetch the full metadata on demand.  The
paper's deployment ran a network format server; ours is an in-process
registry (optionally shared through the transport layer's negotiation
messages), which preserves the behaviour that matters for the
experiments: registration is a distinct, amortizable step, and record
transmission carries only the ID.

Because :class:`~repro.pbio.format.FormatID` is a digest of the
canonical metadata, registration is idempotent and collision-checked.
"""

from __future__ import annotations

import threading

from repro.errors import FormatRegistrationError, UnknownFormatError
from repro.pbio.format import FormatID, IOFormat, deserialize_format
from repro.pbio.lineage import LineageRegistry


class FormatServer:
    """Thread-safe ID -> metadata registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: dict[FormatID, bytes] = {}
        self._registrations = 0
        self._lookups = 0
        #: digest chains per format name (rolling-evolution support);
        #: grown via register_evolution, queried by the lineage-aware
        #: handshake
        self.lineages = LineageRegistry()

    def register(self, fmt: IOFormat) -> FormatID:
        """Register *fmt*; returns its (digest-derived) format ID.

        Registering an identical format again is a no-op returning the
        same ID; a digest collision between different metadata raises.
        """
        canonical = fmt.canonical_bytes()
        fid = fmt.format_id
        with self._lock:
            self._registrations += 1
            existing = self._by_id.get(fid)
            if existing is None:
                self._by_id[fid] = canonical
            elif existing != canonical:
                raise FormatRegistrationError(
                    f"format id collision on {fid}")
        return fid

    def lookup(self, fid: FormatID) -> IOFormat:
        """Fetch and reconstruct the format registered under *fid*."""
        with self._lock:
            self._lookups += 1
            try:
                canonical = self._by_id[fid]
            except KeyError:
                raise UnknownFormatError(
                    f"no format registered under id {fid}") from None
        fmt = deserialize_format(canonical)
        if fmt.format_id != fid:
            raise UnknownFormatError(
                f"metadata integrity failure for id {fid}")
        return fmt

    def lookup_bytes(self, fid: FormatID) -> bytes:
        """Fetch raw canonical metadata (what the transport ships)."""
        with self._lock:
            try:
                return self._by_id[fid]
            except KeyError:
                raise UnknownFormatError(
                    f"no format registered under id {fid}") from None

    def import_bytes(self, canonical: bytes) -> FormatID:
        """Register metadata received from a peer (transport path)."""
        fmt = deserialize_format(canonical)
        return self.register(fmt)

    # -- lineages ------------------------------------------------------------

    def register_evolution(self, old: IOFormat,
                           new: IOFormat) -> FormatID:
        """Register *new* as the next version of *old*'s lineage.

        Both formats end up registered (ID -> metadata) and the name's
        digest chain grows by one validated link.  Returns *new*'s ID.
        """
        self.register(old)
        self.lineages.append(old, new)
        return self.register(new)

    def lineage(self, name: str) -> tuple[FormatID, ...]:
        """The digest chain for *name*, oldest first (() if none)."""
        return self.lineages.chain(name)

    def negotiate(self, name: str, offered) -> FormatID | None:
        """The newest version of *name* this server knows that the
        peer's *offered* digests also cover (None: nothing shared).

        Falls back to a single-version chain when the name was
        registered without explicit lineage calls: any registered
        format whose digest the peer offers is mutually decodable.
        """
        offered = list(offered)
        chosen = self.lineages.highest_common(name, offered)
        if chosen is not None:
            return chosen
        # no recorded lineage: accept the newest offered digest we can
        # serve (peers list their versions oldest first)
        known = set(self.known_ids())
        for fid in reversed(offered):
            if fid in known and self.lookup(fid).name == name:
                return fid
        return None

    def known_ids(self) -> tuple[FormatID, ...]:
        with self._lock:
            return tuple(self._by_id)

    def handle_frame(self, ftype: int, payload: bytes) \
            -> tuple[int, bytes] | None:
        """Serve one metadata-protocol frame; returns the reply
        ``(frame type, payload)`` or None when no reply is due.

        This is the transport-agnostic half of the network format
        server: :class:`~repro.pbio.remote_server.FormatServerService`
        and the broadcast event loop
        (:class:`~repro.transport.broadcast.BroadcastPublisher`) both
        feed frames here, so format metadata is served from whatever
        loop already owns the socket.  Imported lazily to keep this
        module free of transport dependencies.
        """
        from repro.transport.messages import FrameType
        try:
            if ftype == FrameType.FMT_REG:
                fid = self.import_bytes(bytes(payload))
                return FrameType.FMT_ACK, fid.to_bytes()
            if ftype == FrameType.FMT_REQ:
                fid = FormatID.from_bytes(payload)
                metadata = self.lookup_bytes(fid)
                return FrameType.FMT_RSP, fid.to_bytes() + metadata
            if ftype == FrameType.HELLO:
                return None
            return (FrameType.FMT_ERR,
                    f"unexpected frame type {ftype}".encode())
        except (UnknownFormatError, FormatRegistrationError) as exc:
            return FrameType.FMT_ERR, str(exc).encode()

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"registrations": self._registrations,
                    "lookups": self._lookups,
                    "formats": len(self._by_id)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __bool__(self) -> bool:
        # or ``server or FormatServer()`` un-shares an empty shared one
        return True


_GLOBAL = FormatServer()


def global_format_server() -> FormatServer:
    """The process-wide default server used by contexts unless one is
    passed explicitly."""
    return _GLOBAL
