"""Restricted format evolution.

The paper (section 5): "PBIO supports a form of restricted evolution in
message formats in which elements may be added to message formats
without causing receivers of previous versions of the message to fail."

:func:`can_evolve` answers whether *new* is a legal evolution of *old*
under that rule; :func:`evolution_report` details the differences.  The
receiver-side runtime behaviour (dropping added fields / defaulting
missing ones) lives in :mod:`repro.pbio.convert`.

:class:`DownConverter` is the *sender-side* half a rolling fleet
upgrade needs: an upgraded publisher marshals once at the new version,
then produces — through one cached plan per ``(new, old)`` digest pair
— frames a subscriber pinned to an older version decodes natively.
:func:`down_converter` is the process-wide cache in front of it, so
every publisher and connection converting between the same two
versions shares one compiled plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConversionError
from repro.pbio.convert import _check_compatible, plan_conversion
from repro.pbio.decode import decoder_for_format
from repro.pbio.encode import (
    HEADER_LEN, encoder_for_format, parse_header,
)
from repro.pbio.format import IOFormat
from repro.pbio.plancache import PlanFrontEnd


@dataclass(frozen=True)
class EvolutionReport:
    """Field-level diff between two versions of a format."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    incompatible: tuple[str, ...]

    @property
    def compatible(self) -> bool:
        """True if old receivers keep working when sent the new format
        (fields only added, shared fields convertible)."""
        return not self.removed and not self.incompatible


def evolution_report(old: IOFormat, new: IOFormat) -> EvolutionReport:
    """Diff *new* against *old* under the restricted-evolution rule."""
    old_fields = {f.name: f for f in old.field_list}
    new_fields = {f.name: f for f in new.field_list}
    added = tuple(sorted(set(new_fields) - set(old_fields)))
    removed = tuple(sorted(set(old_fields) - set(new_fields)))
    incompatible: list[str] = []
    for name in sorted(set(old_fields) & set(new_fields)):
        try:
            # New senders must decode into old receivers: wire=new,
            # native=old.
            _check_compatible(new_fields[name].field_type,
                              old_fields[name].field_type,
                              new.field_list, old.field_list, name)
        except ConversionError:
            incompatible.append(name)
    return EvolutionReport(added=added, removed=removed,
                           incompatible=tuple(incompatible))


def can_evolve(old: IOFormat, new: IOFormat) -> bool:
    """True if *new* is a legal restricted evolution of *old*."""
    return evolution_report(old, new).compatible


def _count_event(event: str, n: int = 1) -> None:
    from repro.obs import runtime as _obs
    if _obs.enabled:
        from repro.obs.metrics import EVOLUTION_EVENTS
        EVOLUTION_EVENTS.labels(event).inc(n)


class DownConverter:
    """Cached new-version -> old-version record/wire converter.

    Holds the compiled pieces the steady state needs: the new
    version's decoder (for wire input), the projection plan (drop the
    appended fields), and the old version's encoder.  The cheap path
    is :meth:`encode_record` — a publisher that already holds the
    in-memory record pays only a dict projection plus one old-version
    encode per *version*, amortized over every subscriber pinned to
    it.  :meth:`convert_wire` covers relays that only hold bytes.
    """

    def __init__(self, new: IOFormat, old: IOFormat) -> None:
        if old.name != new.name:
            raise ConversionError(
                f"down-conversion must stay inside one lineage: "
                f"{new.name!r} -> {old.name!r}")
        report = evolution_report(old, new)
        if not report.compatible:
            raise ConversionError(
                f"{new.name!r} cannot down-convert to its older "
                f"version: removed={list(report.removed)} "
                f"incompatible={list(report.incompatible)}")
        self.new = new
        self.old = old
        self.report = report
        self._decoder = decoder_for_format(new)
        self._plan = plan_conversion(new, old)
        self._encoder = encoder_for_format(old)

    @property
    def is_identity(self) -> bool:
        return self.new.format_id == self.old.format_id

    def convert_record(self, record: dict) -> dict:
        """Project a new-version record onto the old field set.

        Accepts both decoded wire records and user records headed for
        the encoder — the latter may omit dynamic-array sizing fields
        (the encoder computes them), so projection keeps whatever
        shared fields are present rather than requiring all of them.
        """
        plan = self._plan
        if plan.is_identity:
            return record
        out = {name: record[name] for name in plan.matched
               if name in record}
        out.update(plan.defaulted)
        return out

    def encode_record(self, record: dict) -> bytes:
        """Old-version wire bytes (header + body) from a new-version
        record — the publisher fan-out path."""
        _count_event("records_down_converted")
        return self._encoder.encode_wire(self.convert_record(record))

    def encode_record_parts(self, record: dict) -> tuple:
        """Wire parts ``(header, piece, ...)`` like
        :meth:`~repro.pbio.encode.RecordEncoder.encode_wire_parts`."""
        _count_event("records_down_converted")
        return self._encoder.encode_wire_parts(
            self.convert_record(record))

    def encode_batch(self, records) -> bytes:
        """Old-version shared-header batch from new-version records."""
        records = [self.convert_record(r) for r in records]
        _count_event("records_down_converted", len(records))
        return self._encoder.encode_batch(records)

    def convert_wire(self, wire: bytes) -> bytes:
        """Old-version wire bytes from a new-version wire record —
        the relay path (no in-memory record available)."""
        fid, body_len = parse_header(wire, require_body=True)
        if fid != self.new.format_id:
            raise ConversionError(
                f"wire record is format {fid}, converter expects "
                f"{self.new.format_id} ({self.new.name})")
        record = self._decoder.decode(wire[HEADER_LEN:HEADER_LEN
                                           + body_len])
        return self.encode_record(record)


#: process-wide plan cache: (new digest, old digest) -> DownConverter
CONVERTERS = PlanFrontEnd("down_converter", lambda outcome: _count_event(
    "plan_cache_hits" if outcome == "hit" else "plans_compiled"))


def down_converter(new: IOFormat, old: IOFormat) -> DownConverter:
    """The shared :class:`DownConverter` for this version pair.

    Plans are digest-keyed and process-wide, like the compiled codec
    plan caches: a fleet publisher serving three subscriber versions
    compiles exactly two plans, once, no matter how many records or
    publishers flow through them.
    """
    return CONVERTERS.get((new.format_id, old.format_id),
                          lambda: DownConverter(new, old))
