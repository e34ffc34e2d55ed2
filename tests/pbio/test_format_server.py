"""Format server registration and lookup."""

import threading

import pytest

from repro.errors import UnknownFormatError
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer, global_format_server
from repro.pbio.layout import field_list_for


def fmt(name="T", extra=None):
    specs = [("a", "integer", 4)]
    if extra:
        specs.append(extra)
    return IOFormat(name, field_list_for(specs))


class TestServer:
    def test_register_and_lookup(self):
        server = FormatServer()
        fid = server.register(fmt())
        back = server.lookup(fid)
        assert back == fmt()
        assert back.name == "T"

    def test_registration_idempotent(self):
        server = FormatServer()
        assert server.register(fmt()) == server.register(fmt())
        assert len(server) == 1

    def test_unknown_id(self):
        with pytest.raises(UnknownFormatError):
            FormatServer().lookup(FormatID(42))

    def test_lookup_bytes_and_import(self):
        a, b = FormatServer(), FormatServer()
        fid = a.register(fmt())
        metadata = a.lookup_bytes(fid)
        assert b.import_bytes(metadata) == fid
        assert b.lookup(fid) == fmt()

    def test_known_ids(self):
        server = FormatServer()
        fid1 = server.register(fmt("A"))
        fid2 = server.register(fmt("B"))
        assert set(server.known_ids()) == {fid1, fid2}

    def test_stats(self):
        server = FormatServer()
        fid = server.register(fmt())
        server.register(fmt())
        server.lookup(fid)
        stats = server.stats
        assert stats["registrations"] == 2
        assert stats["lookups"] == 1
        assert stats["formats"] == 1

    def test_empty_shared_server_survives_or_default(self):
        """Regression: an empty server was falsy through ``__len__``,
        so ``server or FormatServer()`` silently un-shared it."""
        shared = FormatServer()
        assert len(shared) == 0

        def endpoint(format_server=None):
            return format_server or FormatServer()

        assert endpoint(shared) is shared
        assert endpoint() is not shared

    def test_global_server_is_singleton(self):
        assert global_format_server() is global_format_server()

    def test_concurrent_registration(self):
        server = FormatServer()
        formats = [fmt(f"T{i}") for i in range(20)]
        errors = []

        def register_all():
            try:
                for f in formats:
                    server.register(f)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=register_all)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(server) == 20
