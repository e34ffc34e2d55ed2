"""Frame encoding."""

import pytest

from repro.errors import ProtocolError
from repro.transport.messages import Frame, FrameType, decode_frame


class TestFrames:
    def test_encode_decode(self):
        frame = Frame(FrameType.DATA, b"payload")
        encoded = frame.encode()
        assert encoded[:4] == (8).to_bytes(4, "big")
        assert decode_frame(encoded[4:]) == frame

    def test_empty_payload(self):
        frame = Frame(FrameType.BYE, b"")
        assert decode_frame(frame.encode()[4:]) == frame

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_frame(b"\x7fxx")

    def test_empty_frame(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_frame(b"")
