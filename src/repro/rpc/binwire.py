"""XMIT-RPC: binary remote calls with XML-discovered signatures.

Applies the paper's thesis at the RPC layer: method signatures are
XML Schema complexTypes (one for the parameter record, one for the
result record), discovered through XMIT like any other format, while
the call payloads themselves travel as PBIO binary records.

A method ``m`` is described by two formats named ``<m>Params`` and
``<m>Result`` in the signature document.  Faults reuse a built-in
``RPCFaultRecord`` format.
"""

from __future__ import annotations

from repro.core.toolkit import XMIT
from repro.errors import WireFormatError
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer

#: the fault record every binary endpoint registers.
FAULT_XSD = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="RPCFaultRecord">
    <xsd:element name="faultCode" type="xsd:int" />
    <xsd:element name="faultString" type="xsd:string" />
  </xsd:complexType>
</xsd:schema>
"""

FAULT_FORMAT = "RPCFaultRecord"


def load_signatures(source: str) -> XMIT:
    """An XMIT holding the method signatures in *source*: XSD text or
    a URL (``mem:``/``file:``/``http:``)."""
    xmit = XMIT()
    if source.lstrip().startswith("<"):
        xmit.load_text(source)
    else:
        xmit.load_url(source)
    return xmit


class BinaryRPCCodec:
    """Protocol adapter: PBIO-encoded calls/replies/faults.

    ``signature_source`` is XSD text or a URL (``mem:``/``file:``/
    ``http:``) declaring ``<method>Params`` / ``<method>Result``
    complexTypes for every method the endpoint uses.
    """

    protocol_name = "pbio"

    def __init__(self, signature_source: str) -> None:
        self.xmit = load_signatures(signature_source)
        self.xmit.load_text(FAULT_XSD)
        self.context = IOContext(format_server=FormatServer())
        for name in self.xmit.format_names:
            self.xmit.register_with_context(self.context, name)

    # -- format names -----------------------------------------------------

    @staticmethod
    def params_format(method: str) -> str:
        return f"{method}Params"

    @staticmethod
    def result_format(method: str) -> str:
        return f"{method}Result"

    def methods(self) -> tuple[str, ...]:
        """Method names implied by the loaded signature formats."""
        names = set(self.xmit.format_names)
        return tuple(sorted(
            name[:-6] for name in names
            if name.endswith("Params")
            and f"{name[:-6]}Result" in names))

    # -- protocol adapter ---------------------------------------------------

    def encode_call(self, method: str, params: dict) -> bytes:
        return self._encode(self.params_format(method), params, method)

    def decode_call(self, data: bytes) -> tuple[str, dict]:
        decoded = self.context.decode(data)
        if not decoded.format_name.endswith("Params"):
            raise WireFormatError(
                f"call payload has format {decoded.format_name!r}, "
                "not a *Params record")
        return decoded.format_name[:-6], decoded.record

    def encode_reply(self, method: str, result: dict) -> bytes:
        return self._encode(self.result_format(method), result, method)

    def encode_fault(self, code: int, message: str) -> bytes:
        return self.context.encode(FAULT_FORMAT, {
            "faultCode": code, "faultString": message})

    def decode_reply(self, method: str, data: bytes):
        decoded = self.context.decode(data)
        if decoded.format_name == FAULT_FORMAT:
            return {"__fault__": decoded.record}
        expected = self.result_format(method)
        if decoded.format_name != expected:
            raise WireFormatError(
                f"reply format {decoded.format_name!r} does not match "
                f"expected {expected!r}")
        return decoded.record

    def _encode(self, format_name: str, record: dict,
                method: str) -> bytes:
        try:
            return self.context.encode(format_name, record)
        except Exception as exc:
            raise WireFormatError(
                f"method {method!r}: cannot encode {format_name}: "
                f"{exc}") from exc
