"""Cross-layer property: schema-valid records marshal losslessly.

Any record drawn from a discovered format's value space must encode
and decode through the XMIT-bound PBIO format, on any architecture,
with values preserved (float32 narrowing excepted).
This ties the three layers of the system — schema semantics, IR
compilation, binary marshaling — to one contract.
"""

import math
import string

from hypothesis import given, settings, strategies as st

from repro.core.schema_compiler import compile_schema
from repro.core.targets.pbio_target import PBIOTarget
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_32, SPARC_V9, X86_32, X86_64
from repro.schema.parser import parse_schema_text

ARCHS = (SPARC_32, SPARC_V9, X86_32, X86_64)

_names = st.builds(
    lambda a, b: a + b,
    st.sampled_from(string.ascii_lowercase),
    st.text(alphabet=string.ascii_lowercase + string.digits,
            max_size=5))

#: (xsd type, value strategy)
_XSD_TYPES = [
    ("xsd:int", st.integers(-2**31, 2**31 - 1)),
    ("xsd:long", st.integers(-2**63, 2**63 - 1)),
    ("xsd:short", st.integers(-2**15, 2**15 - 1)),
    ("xsd:byte", st.integers(-128, 127)),
    ("xsd:unsignedInt", st.integers(0, 2**32 - 1)),
    ("xsd:unsignedLong", st.integers(0, 2**64 - 1)),
    ("xsd:double", st.floats(allow_nan=False)),
    ("xsd:float", st.floats(width=32, allow_nan=False)),
    ("xsd:boolean", st.booleans()),
    ("xsd:string",
     st.text(max_size=12).filter(
         lambda s: "\x00" not in s)),
]


@st.composite
def schema_case(draw):
    """(xsd text, format name, record strategy)."""
    n = draw(st.integers(1, 6))
    field_names = draw(st.lists(_names, min_size=n, max_size=n,
                                unique=True))
    lines = []
    value_strats = {}
    sizing: list[tuple[str, str]] = []  # (array field, length field)
    int_scalars: list[str] = []
    for fname in field_names:
        xsd_type, values = draw(st.sampled_from(_XSD_TYPES))
        shape = draw(st.integers(0, 2))
        if xsd_type == "xsd:string" or shape == 0:
            lines.append(f'<xsd:element name="{fname}" '
                         f'type="{xsd_type}" />')
            value_strats[fname] = values
            if xsd_type in ("xsd:int", "xsd:unsignedInt"):
                int_scalars.append(fname)
        elif shape == 1:
            size = draw(st.integers(2, 5))
            lines.append(f'<xsd:element name="{fname}" '
                         f'type="{xsd_type}" maxOccurs="{size}" />')
            value_strats[fname] = st.lists(values, min_size=size,
                                           max_size=size)
        else:
            if int_scalars and draw(st.booleans()):
                # each sizing field may govern only one array
                length_field = draw(st.sampled_from(int_scalars))
                int_scalars.remove(length_field)
                lines.append(
                    f'<xsd:element name="{fname}" type="{xsd_type}" '
                    f'minOccurs="0" maxOccurs="*" '
                    f'dimensionName="{length_field}" />')
                sizing.append((fname, length_field))
            else:
                lines.append(f'<xsd:element name="{fname}" '
                             f'type="{xsd_type}" minOccurs="0" '
                             f'maxOccurs="*" />')
            value_strats[fname] = st.lists(values, min_size=0,
                                           max_size=5)
    xsd = ('<xsd:schema '
           'xmlns:xsd="http://www.w3.org/2001/XMLSchema">\n'
           '<xsd:complexType name="P">\n'
           + "\n".join(lines) + "\n</xsd:complexType></xsd:schema>")

    base = st.fixed_dictionaries(value_strats)

    def fix_sizing(record: dict) -> dict:
        for array_field, length_field in sizing:
            record = dict(record)
            record[length_field] = len(record[array_field])
        return record

    return xsd, "P", base.map(fix_sizing)


def _close(sent, got) -> bool:
    if isinstance(sent, list):
        return len(sent) == len(got) and all(
            _close(s, g) for s, g in zip(sent, got))
    if isinstance(sent, float):
        if math.isinf(sent):
            return got == sent
        return got == sent or math.isclose(got, sent, rel_tol=1e-6)
    return got == sent


@settings(max_examples=50, deadline=None)
@given(case=schema_case(), data=st.data(),
       arch=st.sampled_from(ARCHS))
def test_valid_records_marshal_losslessly(case, data, arch):
    xsd, name, record_strategy = case
    record = data.draw(record_strategy)

    ir = compile_schema(parse_schema_text(xsd))
    token = PBIOTarget().generate(ir, name, architecture=arch)
    ctx = IOContext(architecture=arch, format_server=FormatServer())
    ctx.register(token.artifact)

    decoded = ctx.decode(ctx.encode(name, record)).record
    for field_name, sent in record.items():
        assert _close(sent, decoded[field_name]), \
            (field_name, sent, decoded[field_name])
