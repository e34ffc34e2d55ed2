"""Seeded malformed-frame fuzzing for the PBIO wire path.

The decode layer promises that *any* byte string off a socket either
decodes to a well-formed record or raises a typed
:class:`~repro.errors.DecodeError`/:class:`~repro.errors.ProtocolError`
— never a stray ``struct.error``, never a silent misdecode, never an
allocation the frame's own length cannot justify.  This module turns
that promise into an executable oracle:

* :class:`FrameMutator` — a deterministic (seeded) corpus-driven
  mutator: byte/bit flips, truncations, extensions, pointer and count
  smashing at every offset, zero/0xFF runs, header splicing and
  cross-frame crossover.  The lineage handshake adds two kinds of its
  own (u8 length/count smashing, digest splicing) that campaigns opt
  into via :data:`HANDSHAKE_KINDS`.
* :class:`WireOracle` — the differential judge.  Every mutated frame
  must either (a) raise an allowed typed error, or (b) decode — in
  which case the fused and per-field decode plans must agree, the
  decoded value's size must be bounded by the frame's own length, and
  re-encoding (when the value is still encodable) must round-trip to
  an equal record.
* :class:`HandshakeOracle` — the same contract for LIN_REQ/LIN_RSP
  frame bodies: reject with a typed
  :class:`~repro.errors.ProtocolError` or decode to a payload whose
  canonical re-encode is byte-identical (the handshake layout has no
  padding or alternate spellings, so decode∘encode must be the
  identity on everything that decodes).
* :func:`run_fuzz` — drive N seeded mutations over a corpus and
  return a :class:`FuzzReport`; ``report.raise_for_failures()`` is the
  CI smoke assertion.

Everything is deterministic for a given ``(corpus, seed, iterations)``
triple, so a CI failure reproduces locally and a minimized frame can
be committed as a regression vector (``tests/golden/malformed/``).
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field

from repro.errors import DecodeError, EncodeError, ProtocolError
from repro.pbio.decode import (
    RecordDecoder, decoder_for_format, materialize_record,
)
from repro.pbio.encode import HEADER_LEN, encoder_for_format, parse_header
from repro.pbio.format import IOFormat

#: decoded cells allowed per wire byte — a valid PBIO record cannot
#: yield more values than it has bytes, so anything past this slack is
#: an allocation the frame's length does not justify
_CELLS_PER_BYTE = 2
_CELL_SLACK = 256

#: hard ceiling regardless of frame size (the ISSUE's 64 MiB cap,
#: counted conservatively at 16 bytes per decoded cell)
_MAX_CELLS = (64 * 1024 * 1024) // 16

_U32 = struct.Struct(">I")

#: values a hostile sender would aim a pointer or counter at
_SMASH_VALUES = (0, 1, 2, 3, 4, 7, 8, 15, 16, 0x7F, 0xFF, 0x100,
                 0xFFFF, 0x10000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE,
                 0xFFFFFFFF)

#: single-byte boundary values for the u8 fields that structure a
#: lineage-handshake payload (name length, digest counts, ok flag)
_SMASH_U8_VALUES = (0, 1, 2, 3, 7, 8, 0x7F, 0x80, 0xFE, 0xFF)

#: the default mutation set plus the handshake-specific kinds; the
#: default :attr:`FrameMutator.kinds` tuple must NOT grow (existing
#: seeded campaigns replay byte for byte), so handshake fuzz opts in
HANDSHAKE_KINDS = ("flip_byte", "flip_bit", "truncate", "extend",
                   "smash_u32", "zero_run", "ff_run", "duplicate_run",
                   "splice_header", "crossover", "smash_u8",
                   "splice_digest")

#: the default set plus the bulk-array kinds (same opt-in rule):
#: element-count smashing at aligned body slots in either byte order,
#: stride misalignment behind a re-declared envelope length, and
#: in-range pointer splicing into the bulk payload region — the three
#: ways a hostile sender attacks the zero-copy array fast path
BULK_KINDS = ("flip_byte", "flip_bit", "truncate", "extend",
              "smash_u32", "zero_run", "ff_run", "duplicate_run",
              "splice_header", "crossover", "smash_array_len",
              "misalign_stride", "splice_bulk_ptr")


class InvariantViolation(Exception):
    """A mutated frame broke the decode contract (wrong exception
    type, unbounded allocation, fused/unfused divergence, lossy
    re-encode)."""


@dataclass
class FuzzFailure:
    """One contract violation, with everything needed to replay it."""

    case: str
    iteration: int
    mutations: tuple[str, ...]
    frame_hex: str
    error: str

    def frame(self) -> bytes:
        return bytes.fromhex(self.frame_hex)


@dataclass
class FuzzReport:
    """Outcome counts for one :func:`run_fuzz` drive."""

    iterations: int = 0
    decoded_ok: int = 0
    rejected: int = 0
    reencoded_ok: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_for_failures(self) -> None:
        if self.failures:
            first = self.failures[0]
            raise InvariantViolation(
                f"{len(self.failures)} invariant violation(s) in "
                f"{self.iterations} mutations; first: case "
                f"{first.case!r} iteration {first.iteration} "
                f"mutations {first.mutations}: {first.error} "
                f"[frame {first.frame_hex}]")


class FrameMutator:
    """Deterministic frame corruption driven by one seeded RNG.

    Mutation kinds deliberately mirror how real frames go wrong:
    single flipped bits/bytes (line noise), truncation and padding
    (short reads, framing bugs), 32-bit pointer/count smashing at
    arbitrary offsets (the attack the bounds checks exist for), runs
    of zeros/0xFF (cleared or freed buffers), and header splicing
    between corpus frames (one format's header on another's body).
    """

    def __init__(self, rng: random.Random,
                 corpus_frames: list[bytes] | None = None,
                 kinds: tuple[str, ...] | None = None) -> None:
        self.rng = rng
        self.corpus_frames = corpus_frames or []
        #: the historical default set; seeded campaigns replay against
        #: it, so it never changes — pass *kinds* (e.g.
        #: :data:`HANDSHAKE_KINDS`) to widen a new campaign instead
        self.kinds = tuple(kinds) if kinds is not None else (
            "flip_byte", "flip_bit", "truncate", "extend",
            "smash_u32", "zero_run", "ff_run",
            "duplicate_run", "splice_header", "crossover")

    def mutate(self, frame: bytes,
               rounds: int | None = None) -> tuple[bytes, tuple[str, ...]]:
        """Apply 1..3 random mutations; returns (frame, kinds used)."""
        rng = self.rng
        if rounds is None:
            rounds = rng.randint(1, 3)
        applied: list[str] = []
        data = bytearray(frame)
        for _ in range(rounds):
            kind = rng.choice(self.kinds)
            data = getattr(self, "_" + kind)(data)
            applied.append(kind)
        return bytes(data), tuple(applied)

    # -- individual mutations (each takes and returns a bytearray) ----------

    def _flip_byte(self, data: bytearray) -> bytearray:
        if data:
            i = self.rng.randrange(len(data))
            data[i] = self.rng.randrange(256)
        return data

    def _flip_bit(self, data: bytearray) -> bytearray:
        if data:
            i = self.rng.randrange(len(data))
            data[i] ^= 1 << self.rng.randrange(8)
        return data

    def _truncate(self, data: bytearray) -> bytearray:
        if data:
            return data[:self.rng.randrange(len(data))]
        return data

    def _extend(self, data: bytearray) -> bytearray:
        n = self.rng.randint(1, 64)
        data.extend(self.rng.randrange(256) for _ in range(n))
        return data

    def _smash_u32(self, data: bytearray) -> bytearray:
        """Overwrite 4 bytes with a boundary value — when it lands on
        a pointer or counter slot this is the classic exploit input."""
        if len(data) >= 4:
            at = self.rng.randrange(len(data) - 3)
            value = self.rng.choice(_SMASH_VALUES + (len(data),
                                                     len(data) - 1))
            data[at:at + 4] = _U32.pack(value & 0xFFFFFFFF)
        return data

    def _zero_run(self, data: bytearray) -> bytearray:
        return self._fill_run(data, 0)

    def _ff_run(self, data: bytearray) -> bytearray:
        return self._fill_run(data, 0xFF)

    def _fill_run(self, data: bytearray, value: int) -> bytearray:
        if data:
            at = self.rng.randrange(len(data))
            n = min(self.rng.randint(1, 16), len(data) - at)
            data[at:at + n] = bytes([value]) * n
        return data

    def _duplicate_run(self, data: bytearray) -> bytearray:
        if data:
            at = self.rng.randrange(len(data))
            n = min(self.rng.randint(1, 32), len(data) - at)
            data[at:at] = data[at:at + n]
        return data

    def _splice_header(self, data: bytearray) -> bytearray:
        """Put another corpus frame's header (format id, flags, body
        length) on this frame's body."""
        if self.corpus_frames and len(data) >= HEADER_LEN:
            other = self.rng.choice(self.corpus_frames)
            data[:HEADER_LEN] = other[:HEADER_LEN]
        return data

    def _crossover(self, data: bytearray) -> bytearray:
        if self.corpus_frames and data:
            other = self.rng.choice(self.corpus_frames)
            if other:
                at = self.rng.randrange(len(data))
                start = self.rng.randrange(len(other))
                n = self.rng.randint(1, 48)
                data[at:at + n] = other[start:start + n]
        return data

    # -- handshake-specific kinds (opt-in via HANDSHAKE_KINDS) --------------

    def _smash_u8(self, data: bytearray) -> bytearray:
        """Overwrite one byte with a boundary value — the handshake
        payload is structured entirely by u8 fields (name length,
        digest counts, ok flag), so this is its count-smash."""
        if data:
            at = self.rng.randrange(len(data))
            data[at] = self.rng.choice(
                _SMASH_U8_VALUES + (len(data) & 0xFF,))
        return data

    def _splice_digest(self, data: bytearray) -> bytearray:
        """Overwrite an 8-byte run with a forged digest: zeros, 0xFF,
        or eight bytes lifted from another corpus frame — the wrong-
        lineage / zeroed-chosen attack on digest slots."""
        if not data:
            return data
        at = self.rng.randrange(len(data))
        which = self.rng.randrange(3)
        if which == 0:
            digest = b"\x00" * 8
        elif which == 1:
            digest = b"\xff" * 8
        else:
            pool = self.rng.choice(self.corpus_frames) \
                if self.corpus_frames else bytes(data)
            if len(pool) < 8:
                pool = bytes(pool) + b"\x00" * 8
            start = self.rng.randrange(len(pool) - 7)
            digest = bytes(pool[start:start + 8])
        data[at:at + 8] = digest
        return data

    # -- bulk-array kinds (opt-in via BULK_KINDS) ---------------------------

    def _smash_array_len(self, data: bytearray) -> bytearray:
        """Overwrite a 4-aligned body slot with a boundary element
        count in either byte order — aimed where array length
        prefixes and sizing fields actually live, unlike the
        anywhere-goes ``smash_u32``."""
        if len(data) >= HEADER_LEN + 4:
            slots = (len(data) - HEADER_LEN) // 4
            at = HEADER_LEN + 4 * self.rng.randrange(slots)
            value = self.rng.choice(
                _SMASH_VALUES + (len(data) - HEADER_LEN,))
            code = self.rng.choice((">I", "<I"))
            struct.pack_into(code, data, at, value & 0xFFFFFFFF)
        return data

    def _misalign_stride(self, data: bytearray) -> bytearray:
        """Insert or delete 1..7 bytes inside the body, then
        re-declare the header length to match: the frame stays
        well-framed, but every pointer past the edit lands stride-
        misaligned inside what used to be a bulk payload."""
        if len(data) > HEADER_LEN + 8:
            at = self.rng.randrange(HEADER_LEN, len(data))
            n = self.rng.randint(1, 7)
            if self.rng.randrange(2):
                data[at:at] = bytes(self.rng.randrange(256)
                                    for _ in range(n))
            else:
                del data[at:at + n]
            _U32.pack_into(data, 12,
                           (len(data) - HEADER_LEN) & 0xFFFFFFFF)
        return data

    def _splice_bulk_ptr(self, data: bytearray) -> bytearray:
        """Overwrite an aligned 4- or 8-byte slot with an offset that
        is *inside* the record — a pointer spliced into the bulk
        region passes any naive length check and is exactly what the
        per-field pointer/bounds discipline must catch."""
        body_len = len(data) - HEADER_LEN
        if body_len >= 8:
            width = self.rng.choice((4, 8))
            slots = (body_len - width) // width + 1
            at = HEADER_LEN + width * self.rng.randrange(slots)
            value = self.rng.randrange(body_len + 1)
            code = self.rng.choice((">", "<")) + (
                "I" if width == 4 else "Q")
            struct.pack_into(code, data, at, value)
        return data


def records_equal(a, b) -> bool:
    """Structural equality with NaN == NaN (mutated floats routinely
    decode to NaN, which would break plain ``==`` comparison)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(records_equal(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(records_equal(x, y) for x, y in zip(a, b)))
    return a == b


def _cell_count(value) -> int:
    """Decoded-value size in cells, for the allocation bound."""
    if isinstance(value, dict):
        return 1 + sum(_cell_count(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 1 + sum(_cell_count(v) for v in value)
    if isinstance(value, (str, bytes)):
        return 1 + len(value)
    return 1


class WireOracle:
    """Differential decode judge over a set of known formats.

    Holds, per format id, the validated fused, per-field and
    zero-copy (``arrays="view"``) decode plans plus the encoder, and
    checks one (possibly mutated) frame against the decode contract.  Frames referencing format ids
    outside the known set are treated as rejected (a live receiver
    would issue a FMT_REQ for them; there is nothing to decode
    against).
    """

    def __init__(self, formats) -> None:
        self._by_id: dict = {}
        for fmt in formats:
            self.add_format(fmt)

    def add_format(self, fmt: IOFormat) -> None:
        self._by_id[fmt.format_id] = (
            fmt,
            decoder_for_format(fmt),
            RecordDecoder(fmt, fuse=False),
            decoder_for_format(fmt, arrays="view"),
            encoder_for_format(fmt),
        )

    # -- the contract -------------------------------------------------------

    def check(self, wire: bytes) -> dict:
        """Judge one frame.

        Returns ``{"decoded": int, "reencoded": int}`` on success,
        raises :class:`~repro.errors.DecodeError` (the allowed
        rejection) or :class:`InvariantViolation` (a contract breach;
        unexpected exception types propagate as themselves and are
        classified by :func:`run_fuzz`).
        """
        fid, body_len = parse_header(wire, require_body=True)
        entry = self._entry(fid)
        body = wire[HEADER_LEN:HEADER_LEN + body_len]
        ok = self._check_body(entry, body, len(wire))
        return {"decoded": 1, "reencoded": int(ok)}

    def _entry(self, fid):
        try:
            return self._by_id[fid]
        except KeyError:
            raise DecodeError(
                f"frame references unknown format id {fid}") from None

    def _check_body(self, entry, body: bytes, wire_len: int) -> bool:
        """Decode one record body and check every invariant; returns
        True when the value also re-encoded losslessly."""
        fmt, fused, unfused, viewer, encoder = entry
        record = fused.decode(body)

        cells = _cell_count(record)
        if cells > min(wire_len * _CELLS_PER_BYTE + _CELL_SLACK,
                       _MAX_CELLS):
            raise InvariantViolation(
                f"{fmt.name}: decoded {cells} cells from a "
                f"{wire_len}-byte frame (allocation unbounded by "
                f"input size)")

        baseline = unfused.decode(body)
        if not records_equal(record, baseline):
            raise InvariantViolation(
                f"{fmt.name}: fused and per-field decode plans "
                f"disagree: {record!r} != {baseline!r}")

        # the zero-copy view decode must see the exact same values the
        # copying plan does, and must reject exactly what it rejects —
        # a frame only one of them throws on is a contract breach, so
        # let any DecodeError here propagate as InvariantViolation
        try:
            viewed = viewer.decode(body)
        except DecodeError as exc:
            raise InvariantViolation(
                f"{fmt.name}: view decode rejected a frame the "
                f"copying plan accepted: {exc}") from exc
        if not records_equal(materialize_record(viewed), record):
            raise InvariantViolation(
                f"{fmt.name}: zero-copy view decode diverged from "
                f"the copying plan")

        # re-encode when the decoded value is still encodable (a
        # mutated frame can decode to values outside the format's
        # encode domain, e.g. a replacement char overflowing char[n];
        # a typed EncodeError there is an acceptable outcome) — but a
        # successful re-encode must round-trip to an equal record
        try:
            wire2 = encoder.encode_wire(record)
        except EncodeError:
            return False
        except Exception as exc:
            raise InvariantViolation(
                f"{fmt.name}: re-encode raised "
                f"{type(exc).__name__}: {exc}") from exc
        _fid2, body_len2 = parse_header(wire2, require_body=True)
        record2 = fused.decode(wire2[HEADER_LEN:HEADER_LEN + body_len2])
        if not records_equal(record, record2):
            raise InvariantViolation(
                f"{fmt.name}: decode -> encode -> decode drifted: "
                f"{record!r} != {record2!r}")
        return True


class HandshakeOracle:
    """Decode judge for lineage-handshake frame bodies.

    *Frame body* means what :func:`~repro.transport.messages
    .decode_frame` receives after the transport strips the u32 length
    prefix: ``u8 type | payload``.  The contract: every body either
    raises a typed :class:`~repro.errors.ProtocolError`, or decodes to
    a LIN_REQ/LIN_RSP payload whose canonical re-encode reproduces the
    input byte for byte — the handshake layout has no padding and no
    alternate spellings, so a decodable frame that re-encodes
    differently means the decoder accepted something the encoder
    cannot say (a smuggling channel).  Mutations that land on another
    frame type are outside this oracle's jurisdiction and count as
    rejected.
    """

    def check(self, body: bytes) -> dict:
        from repro.transport.messages import (
            FrameType, decode_frame, decode_lineage_req,
            decode_lineage_rsp, encode_lineage_req,
            encode_lineage_rsp,
        )
        frame = decode_frame(body)
        if frame.type is FrameType.LIN_REQ:
            name, offered = decode_lineage_req(frame.payload)
            if not offered:
                raise InvariantViolation(
                    "LIN_REQ decoded with no offered digests")
            rebuild = lambda: encode_lineage_req(name, offered)  # noqa: E731
        elif frame.type is FrameType.LIN_RSP:
            name, chosen, chain = decode_lineage_rsp(frame.payload)
            if chosen is not None and chain and chosen not in chain:
                raise InvariantViolation(
                    "LIN_RSP decoded with chosen outside its chain")
            rebuild = lambda: encode_lineage_rsp(name, chosen, chain)  # noqa: E731
        else:
            raise ProtocolError(
                f"not a lineage handshake frame ({frame.type.name})")
        if not name:
            raise InvariantViolation(
                f"{frame.type.name} decoded with an empty name")
        try:
            again = rebuild()
        except Exception as exc:
            raise InvariantViolation(
                f"{frame.type.name}: decoded payload failed canonical "
                f"re-encode: {type(exc).__name__}: {exc}") from exc
        if again != frame.payload:
            raise InvariantViolation(
                f"{frame.type.name}: canonical re-encode drifted: "
                f"{frame.payload.hex()} -> {again.hex()}")
        return {"decoded": 1, "reencoded": 1}


def run_fuzz(corpus: dict[str, bytes], oracle, *,
             iterations: int = 10_000, seed: int = 0,
             allowed: tuple = (DecodeError, ProtocolError),
             kinds: tuple[str, ...] | None = None,
             max_struct_errors: int = 0) -> FuzzReport:
    """Drive *iterations* seeded mutations of *corpus* through
    *oracle* and classify every outcome.

    *corpus* maps case names to pristine wire frames.  Every mutated
    frame must either decode cleanly (all oracle invariants hold) or
    raise one of *allowed*; anything else — a bare ``struct.error``,
    ``ValueError``, ``MemoryError``, an oracle
    :class:`InvariantViolation` — is recorded as a
    :class:`FuzzFailure`.  Deterministic for a given seed.  *kinds*
    widens the mutation set (e.g. :data:`HANDSHAKE_KINDS`); omitting
    it keeps the historical default so existing seeds replay.
    """
    _ = max_struct_errors  # reserved: no tolerated escapes today
    rng = random.Random(seed)
    names = sorted(corpus)
    frames = [bytes(corpus[name]) for name in names]
    mutator = FrameMutator(rng, frames, kinds=kinds)
    report = FuzzReport()
    for iteration in range(iterations):
        pick = rng.randrange(len(names))
        mutated, kinds = mutator.mutate(frames[pick])
        report.iterations += 1
        try:
            outcome = oracle.check(mutated)
        except allowed:
            report.rejected += 1
        except Exception as exc:  # noqa: BLE001 - the whole point
            report.failures.append(FuzzFailure(
                case=names[pick], iteration=iteration,
                mutations=kinds, frame_hex=mutated.hex(),
                error=f"{type(exc).__name__}: {exc}"))
        else:
            report.decoded_ok += outcome["decoded"]
            report.reencoded_ok += outcome["reencoded"]
    return report
