"""The reference frame parser the transport tests read wire bytes with.

Deliberately the plainest possible reading of the frame protocol
(``u32 length | u8 type | payload``, the length covering type byte and
payload), independent of :class:`repro.transport.messages.FrameReader`,
so the reassembler can be diffed against it.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.transport.messages import (
    MAX_FRAME, Frame, decode_frame, frame_length_error,
)

_LEN = struct.Struct(">I")


def iter_frames(buffer: bytearray,
                max_frame_len: int = MAX_FRAME) -> Iterator[Frame]:
    """Yield complete frames from *buffer*, consuming them in place.
    A frame it rejects stays at the head of *buffer*."""
    while len(buffer) >= 4:
        (length,) = _LEN.unpack_from(buffer)
        if not 0 < length <= max_frame_len:
            raise frame_length_error(length, max_frame_len)
        if len(buffer) < 4 + length:
            return
        frame = decode_frame(bytes(buffer[4:4 + length]))
        del buffer[:4 + length]
        yield frame
