#!/usr/bin/env python
"""RPC three ways: XML-RPC, SOAP and XMIT-RPC binary calls.

The paper planned "SOAP/XML-RPC style interfaces" among its BCM
targets.  This example runs the same statistics service through all
three implementations — classic XML-RPC documents, SOAP envelopes
whose parameters are typed by the XML Schema signatures, and XMIT-RPC
(the same signatures, payloads as PBIO binary records) — and compares
bytes and latency per call.

Run:  python examples/rpc_service.py
"""

import time

from repro.rpc import (
    BinaryRPCCodec, RPCClient, RPCServer, SOAPCodec, XMLRPCCodec,
)
from repro.transport import channel_pair

SIGNATURES = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="statsParams">
    <xsd:element name="n" type="xsd:int" />
    <xsd:element name="values" type="xsd:double" maxOccurs="*"
                 dimensionName="n" />
  </xsd:complexType>
  <xsd:complexType name="statsResult">
    <xsd:element name="mean" type="xsd:double" />
    <xsd:element name="minimum" type="xsd:double" />
    <xsd:element name="maximum" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>
"""


def stats(params: dict) -> dict:
    values = params["values"]
    return {"mean": sum(values) / len(values),
            "minimum": min(values), "maximum": max(values)}


def run_protocol(name: str, codec_factory, params: dict,
                 calls: int = 200) -> None:
    client_ch, server_ch = channel_pair()
    server = RPCServer(codec_factory(), server_ch)
    server.register("stats", stats)
    thread = server.serve_in_thread()
    client = RPCClient(codec_factory(), client_ch)

    call_bytes = len(client.codec.encode_call("stats", params))
    result = client.call("stats", params)
    start = time.perf_counter()
    for _ in range(calls):
        client.call("stats", params)
    per_call = (time.perf_counter() - start) / calls * 1e3

    print(f"{name:10s} call payload {call_bytes:6d} B   "
          f"{per_call:8.3f} ms/call   result {result}")
    client.close()
    thread.join(5)


def main() -> None:
    values = [0.5 * i for i in range(500)]
    print("service: stats over 500 doubles, in-process transport\n")
    typed = {"n": len(values), "values": values}
    run_protocol("XML-RPC", XMLRPCCodec, {"values": values})
    run_protocol("SOAP", lambda: SOAPCodec(SIGNATURES), typed)
    run_protocol("XMIT-RPC", lambda: BinaryRPCCodec(SIGNATURES), typed)
    print("\nsame handlers, same transport — only the wire format "
          "changed.")


if __name__ == "__main__":
    main()
