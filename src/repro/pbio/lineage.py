"""Format lineages: digest chains for restricted evolution.

The paper's restricted evolution (section 5) lets senders append
fields without breaking old receivers, but says nothing about how a
*fleet* knows which versions of a format exist or which one a given
peer can decode.  A :class:`LineageRegistry` supplies that missing
bookkeeping: for each format **name** it keeps the ordered chain of
:class:`~repro.pbio.format.FormatID` digests the name has evolved
through, validated link by link with
:func:`~repro.pbio.evolution.can_evolve` so every entry is a legal
restricted evolution of its predecessor.

The chain is what the lineage-aware handshake
(:mod:`repro.transport.messages` LIN_REQ/LIN_RSP) ships: a subscriber
announces the digests it holds native bindings for, the publisher
answers with the highest version both sides can decode
(:meth:`highest_common`), and every older subscriber keeps decoding
via cached down-conversion (:mod:`repro.pbio.evolution`).
"""

from __future__ import annotations

import threading

from repro.errors import FormatRegistrationError
from repro.pbio.format import FormatID, IOFormat


def _count_event(event: str) -> None:
    from repro.obs import runtime as _obs
    if _obs.enabled:
        from repro.obs.metrics import EVOLUTION_EVENTS
        EVOLUTION_EVENTS.labels(event).inc()


class LineageRegistry:
    """Thread-safe name -> ordered digest chain registry.

    Chains only ever grow at the tail (:meth:`append`), mirroring the
    restriction on the formats themselves: the newest version must be
    a legal evolution of the one before it.  Reads return immutable
    tuples, so callers can hold them without the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._chains: dict[str, list[FormatID]] = {}

    # -- growth -------------------------------------------------------------

    def append(self, old: IOFormat, new: IOFormat) -> FormatID:
        """Record *new* as the next version after *old*.

        Both formats must share a name, *new* must be a legal
        restricted evolution of *old* (fields only appended, shared
        fields convertible), and *old* must be the current chain tail
        (lineages are linear, not trees).  Re-recording a link the
        chain already holds — as a second context sharing the format
        server will do — is an idempotent no-op, and so is an *old* equal
        to *new*, which starts the lineage at it if the name is unseen
        (an established root never moves).  Returns *new*'s digest.
        """
        from repro.pbio.evolution import evolution_report
        if old.name != new.name:
            raise FormatRegistrationError(
                f"evolution must keep the format name: "
                f"{old.name!r} != {new.name!r}")
        old_id, new_id = old.format_id, new.format_id
        if old_id == new_id:
            with self._lock:
                self._chains.setdefault(old.name, [old_id])
            return new_id
        report = evolution_report(old, new)
        if not report.compatible:
            raise FormatRegistrationError(
                f"{new.name!r} is not a restricted evolution of its "
                f"previous version: removed={list(report.removed)} "
                f"incompatible={list(report.incompatible)}")
        with self._lock:
            chain = self._chains.setdefault(new.name, [old_id])
            if new_id in chain:
                index = chain.index(new_id)
                if index > 0 and chain[index - 1] == old_id:
                    return new_id  # link already recorded
                raise FormatRegistrationError(
                    f"{new.name!r} version {new_id} is already in "
                    f"the lineage with a different predecessor; "
                    f"chains only grow")
            if chain[-1] != old_id:
                raise FormatRegistrationError(
                    f"can only evolve the latest version of "
                    f"{new.name!r}: chain tail is {chain[-1]}, "
                    f"got {old_id}")
            chain.append(new_id)
        _count_event("lineage_appended")
        return new_id

    # -- queries ------------------------------------------------------------

    def chain(self, name: str) -> tuple[FormatID, ...]:
        """The digest chain for *name*, oldest first (() if unseen)."""
        with self._lock:
            return tuple(self._chains.get(name, ()))

    def highest_common(self, name: str, offered) -> FormatID | None:
        """The newest digest in *name*'s chain that *offered* (any
        iterable of :class:`FormatID`) also contains, or None when the
        chains share nothing — the negotiation core."""
        offered = set(offered)
        for fid in reversed(self.chain(name)):
            if fid in offered:
                return fid
        return None
