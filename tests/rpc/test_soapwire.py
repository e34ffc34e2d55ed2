"""SOAP-style envelopes around the format-driven XML record walk."""

import pytest

from repro.errors import WireFormatError
from repro.rpc import RPCClient, RPCFault, RPCServer, SOAPCodec
from repro.rpc.soapwire import SOAP_NS
from repro.transport.inproc import channel_pair
from repro.xmlcore.parser import parse

SIGNATURES = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="statsParams">
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="xsd:double" maxOccurs="*"
                 dimensionName="count" />
    <xsd:element name="label" type="xsd:string" />
  </xsd:complexType>
  <xsd:complexType name="statsResult">
    <xsd:element name="mean" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="trackParams">
    <xsd:element name="origin" type="Point" />
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="npoints" type="xsd:int" />
    <xsd:element name="points" type="Point" maxOccurs="*"
                 dimensionName="npoints" />
  </xsd:complexType>
  <xsd:complexType name="tagParams">
    <xsd:element name="zip" type="xsd:string" />
    <xsd:element name="ver" type="xsd:string" />
    <xsd:element name="s" type="xsd:string" />
    <xsd:element name="flag" type="xsd:boolean" />
    <xsd:element name="off" type="xsd:boolean" />
    <xsd:element name="num_like" type="xsd:string" />
  </xsd:complexType>
  <xsd:complexType name="missingParams">
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="xsd:double" maxOccurs="*"
                 dimensionName="count" />
  </xsd:complexType>
</xsd:schema>
"""


@pytest.fixture
def codec():
    return SOAPCodec(SIGNATURES)


def stats(values, label="x"):
    return {"count": len(values), "values": values, "label": label}


class TestEnvelopes:
    def test_call_shape(self, codec):
        data = codec.encode_call("stats", stats([1.5, 2.5]))
        root = parse(data.decode()).root
        assert root.local_name == "Envelope"
        assert root.namespace == SOAP_NS
        body = root.find("Body", namespace=SOAP_NS)
        operation = next(iter(body))
        assert operation.local_name == "stats"
        assert len(operation.find_all("values")) == 2

    def test_call_roundtrip(self, codec):
        record = stats([1.5, 2.5])
        method, params = codec.decode_call(
            codec.encode_call("stats", record))
        assert method == "stats"
        assert params == record

    def test_single_element_array_fixed(self, codec):
        # no per-field knob: the signature says it is an array
        _, params = codec.decode_call(
            codec.encode_call("stats", stats([7.0])))
        assert params["values"] == [7.0]

    def test_empty_array_is_present(self, codec):
        _, params = codec.decode_call(
            codec.encode_call("stats", stats([])))
        assert params["values"] == []

    def test_booleans_and_strings(self, codec):
        # strings that look like numbers or booleans stay strings
        record = {"zip": "007", "ver": "1.5", "s": "true",
                  "flag": True, "off": False, "num_like": "12abc"}
        _, params = codec.decode_call(codec.encode_call("tag", record))
        assert params == record
        assert all(type(params[k]) is str
                   for k in ("zip", "ver", "s", "num_like"))

    def test_nested_struct(self, codec):
        record = {"origin": {"x": 1.0, "y": 2.0}, "id": 3,
                  "npoints": 0, "points": []}
        _, params = codec.decode_call(codec.encode_call("track", record))
        assert params == record

    @pytest.mark.parametrize("n", [1, 3])
    def test_nested_struct_array(self, codec, n):
        record = {"origin": {"x": 0.0, "y": 0.0}, "id": 4,
                  "npoints": n,
                  "points": [{"x": i + 0.5, "y": -i} for i in range(n)]}
        _, params = codec.decode_call(codec.encode_call("track", record))
        assert params == record

    def test_reply_roundtrip(self, codec):
        data = codec.encode_reply("stats", {"mean": 2.0})
        assert codec.decode_reply("stats", data) == {"mean": 2.0}

    def test_reply_method_mismatch(self, codec):
        data = codec.encode_reply("stats", {"mean": 2.0})
        with pytest.raises(WireFormatError, match="expected"):
            codec.decode_reply("other", data)

    def test_fault_roundtrip(self, codec):
        data = codec.encode_fault(3, "went wrong")
        out = codec.decode_reply("anything", data)
        assert out["__fault__"]["faultCode"] == 3
        assert out["__fault__"]["faultString"] == "went wrong"

    def test_undeclared_method_cannot_be_encoded(self, codec):
        with pytest.raises(WireFormatError, match="nope"):
            codec.encode_call("nope", {})

    def test_missing_field_rejected(self, codec):
        with pytest.raises(WireFormatError, match="label"):
            codec.encode_call("stats", {"count": 0, "values": []})

    def test_not_an_envelope(self, codec):
        with pytest.raises(WireFormatError, match="envelope"):
            codec.decode_call(b"<notsoap/>")


class TestSOAPEndpoints:
    def test_full_call_over_channel(self):
        client_ch, server_ch = channel_pair()
        server = RPCServer(SOAPCodec(SIGNATURES), server_ch)
        server.register("stats", lambda p: {
            "mean": sum(p["values"]) / len(p["values"])})
        thread = server.serve_in_thread()
        client = RPCClient(SOAPCodec(SIGNATURES), client_ch)
        assert client.call("stats", stats([2.0, 4.0])) == {"mean": 3.0}
        # declared in the signatures, but no handler on the server
        with pytest.raises(RPCFault, match="no such method"):
            client.call("missing", {"count": 1, "values": [1.0]})
        client.close()
        thread.join(5)
