"""SOAP-style message encoding.

The other half of section 3.2's "SOAP/XML-RPC style interfaces": a
SOAP 1.1-shaped envelope around the paper's Fig. 1 XML record.  Calls
are

.. code-block:: xml

    <soap:Envelope xmlns:soap=".../envelope/">
      <soap:Body>
        <m:stats xmlns:m="urn:xmit-rpc">
          <n>2</n>
          <values>1.5</values>
          <values>2.5</values>
        </m:stats>
      </soap:Body>
    </soap:Envelope>

with document/literal parameter elements.  The method signatures are
the ``<m>Params`` / ``<m>Result`` complexTypes that
:class:`~repro.rpc.binwire.BinaryRPCCodec` loads, and the parameter
elements are :mod:`repro.wire.xml_wire`'s format-driven record walk:
one element per field, repeated for arrays, typed by the signature on
decode.  Faults are standard ``soap:Fault`` bodies.
"""

from __future__ import annotations

from repro.errors import WireFormatError, XMITError
from repro.pbio.fields import FieldList
from repro.pbio.layout import field_list_for
from repro.rpc.binwire import load_signatures
from repro.wire.xml_wire import decode_fields, encode_fields
from repro.xmlcore.builder import DocumentBuilder
from repro.xmlcore.dom import Element
from repro.xmlcore.parser import parse
from repro.xmlcore.serializer import serialize

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
METHOD_NS = "urn:xmit-rpc"

_FAULT_FIELDS = field_list_for([("faultcode", "string"),
                                ("faultstring", "string")])


class SOAPCodec:
    """Protocol adapter: SOAP 1.1-style envelopes.

    ``signature_source`` is XSD text or a URL declaring
    ``<method>Params`` / ``<method>Result`` complexTypes, exactly as
    for :class:`~repro.rpc.binwire.BinaryRPCCodec`.
    """

    protocol_name = "soap"

    def __init__(self, signature_source: str) -> None:
        self.xmit = load_signatures(signature_source)

    def _fields(self, format_name: str) -> FieldList:
        try:
            return self.xmit.bind(format_name).artifact.field_list
        except XMITError as exc:
            raise WireFormatError(str(exc)) from None

    # -- encode ------------------------------------------------------------

    def _envelope(self, operation: str, attributes: dict,
                  field_list: FieldList, record: dict) -> bytes:
        builder = DocumentBuilder()
        with builder.element("soap:Envelope",
                             {"xmlns:soap": SOAP_NS}):
            with builder.element("soap:Body"):
                with builder.element(operation, attributes):
                    encode_fields(builder, field_list, record)
        return serialize(builder.document(),
                         xml_declaration=True).encode("utf-8")

    def encode_call(self, method: str, params: dict) -> bytes:
        return self._envelope(f"m:{method}", {"xmlns:m": METHOD_NS},
                              self._fields(f"{method}Params"), params)

    def encode_reply(self, method: str, result: dict) -> bytes:
        return self._envelope(f"m:{method}Response",
                              {"xmlns:m": METHOD_NS},
                              self._fields(f"{method}Result"), result)

    def encode_fault(self, code: int, message: str) -> bytes:
        return self._envelope("soap:Fault", {}, _FAULT_FIELDS, {
            "faultcode": f"soap:Server.{code}", "faultstring": message})

    # -- decode ------------------------------------------------------------

    def _body(self, data: bytes) -> Element:
        root = parse(data.decode("utf-8")).root
        if root.local_name != "Envelope" or root.namespace != SOAP_NS:
            raise WireFormatError("not a SOAP envelope")
        body = root.find("Body", namespace=SOAP_NS)
        if body is None or not len(body):
            raise WireFormatError("SOAP envelope without a body")
        return next(iter(body))

    def decode_call(self, data: bytes) -> tuple[str, dict]:
        operation = self._body(data)
        method = operation.local_name
        return method, decode_fields(operation,
                                     self._fields(f"{method}Params"))

    def decode_reply(self, method: str, data: bytes):
        operation = self._body(data)
        if operation.local_name == "Fault":
            fault = decode_fields(operation, _FAULT_FIELDS)
            code = (fault["faultcode"] or "").rpartition(".")[2]
            return {"__fault__": {
                "faultCode": int(code) if code.isdigit() else 0,
                "faultString": fault["faultstring"] or ""}}
        expected = f"{method}Response"
        if operation.local_name != expected:
            raise WireFormatError(
                f"reply names {operation.local_name!r}, expected "
                f"{expected!r}")
        return decode_fields(operation, self._fields(f"{method}Result"))
