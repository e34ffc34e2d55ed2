#!/usr/bin/env python
"""Format evolution without recompilation.

The usability scenario motivating the paper: the structure of a shared
message changes, and because metadata lives in an XML document rather
than in compiled code, the change is made *once* at the document's URL.
A component that discovers the format after the change sees the new
fields; components that never update keep working through PBIO's restricted evolution (added fields
dropped, missing fields defaulted).

Run:  python examples/format_evolution.py
"""

from repro import IOContext, XMIT
from repro.http import publish_document
from repro.pbio.evolution import evolution_report
from repro.pbio.format_server import FormatServer

V1 = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="SimpleData">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="size" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" maxOccurs="*"
                 dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
"""

V2 = V1.replace(
    "</xsd:complexType>",
    '  <xsd:element name="units" type="xsd:string" />\n'
    '  <xsd:element name="quality" type="xsd:double" />\n'
    "</xsd:complexType>")


def main() -> None:
    url = publish_document("evolving.xsd", V1)
    server = FormatServer()  # shared by all components

    # the "old" component: discovers v1, never refreshes
    old_xmit = XMIT()
    old_xmit.load_url(url)
    old_ctx = IOContext(format_server=server)
    old_fmt = old_xmit.register_with_context(old_ctx, "SimpleData")
    print(f"old component registered: {old_fmt}")

    # the format evolves at its source — one central change
    publish_document("evolving.xsd", V2)
    print("\nformat document updated at the URL (added 'units', "
          "'quality')\n")

    # the "new" component starts after the change and discovers v2
    # (a running component refreshes instead: examples/rolling_upgrade.py)
    new_xmit = XMIT()
    new_xmit.load_url(url)
    new_ctx = IOContext(format_server=server)
    new_fmt = new_xmit.register_with_context(new_ctx, "SimpleData")
    print(f"new component registered: {new_fmt}")

    report = evolution_report(old_fmt, new_fmt)
    print(f"\nevolution report: added={report.added} "
          f"removed={report.removed} compatible={report.compatible}\n")

    # new sender -> old receiver: extra fields dropped
    wire = new_ctx.encode("SimpleData", {
        "timestep": 42, "data": [1.5, 2.5], "units": "m^3/s",
        "quality": 0.97})
    seen_by_old = old_ctx.decode_as(wire, "SimpleData")
    print(f"new sender record decoded by OLD component:\n"
          f"  {seen_by_old}")

    # old sender -> new receiver: missing fields defaulted
    wire = old_ctx.encode("SimpleData", {"timestep": 7,
                                         "data": [9.0]})
    seen_by_new = new_ctx.decode_as(wire, "SimpleData")
    print(f"old sender record decoded by NEW component:\n"
          f"  {seen_by_new}")

    assert "units" not in seen_by_old
    assert seen_by_new["units"] is None
    print("\nboth directions interoperate — no recompilation, no "
          "flag day.")


if __name__ == "__main__":
    main()
