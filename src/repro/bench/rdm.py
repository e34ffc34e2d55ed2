"""The Remote Discovery Multiplier (section 4.2).

    "We define the Remote Discovery Multiplier (RDM) as the ratio of
    the time needed by XMIT to register a message format with respect
    to the time needed by PBIO to register the same format using
    compiled-in metadata."

Both paths are measured end to end, each against a fresh
:class:`~repro.pbio.context.IOContext` and
:class:`~repro.pbio.format_server.FormatServer` per call:

* **XMIT path**: parse the XML schema document, compile to IR, generate
  PBIO metadata (layout + IOFormat), register — "format registration
  time for XMIT includes the time necessary to parse the XML
  description of the format and register the format with PBIO";
* **PBIO path**: build the format from compiled-in field specs and
  register.

The document is held in memory (``mem:`` discovery), matching the
paper's measurement, which excludes network fetch time from the RDM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.timing import TimingResult, time_callable
from repro.core.schema_compiler import compile_schema
from repro.core.targets.pbio_target import PBIOTarget
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import Architecture, NATIVE
from repro.schema.parser import parse_schema_text


@dataclass(frozen=True)
class RDMResult:
    """One format's registration-cost comparison."""

    format_name: str
    structure_size: int       # native struct bytes (paper's x axis)
    encoded_size: int | None  # marshal output bytes, when sampled
    pbio: TimingResult
    xmit: TimingResult

    @property
    def rdm(self) -> float:
        return self.xmit.best / self.pbio.best


def xmit_register(xsd_text: str, format_name: str,
                  architecture: Architecture = NATIVE) -> IOContext:
    """The full XMIT registration path, uncached (one measurement)."""
    ir = compile_schema(parse_schema_text(xsd_text))
    token = PBIOTarget().generate(ir, format_name,
                                  architecture=architecture)
    ctx = IOContext(architecture=architecture,
                    format_server=FormatServer())
    ctx.register(token.artifact)
    return ctx


def pbio_register(specs, format_name: str,
                  architecture: Architecture = NATIVE,
                  subformats=None) -> IOContext:
    """The compiled-in registration path (one measurement)."""
    ctx = IOContext(architecture=architecture,
                    format_server=FormatServer())
    ctx.register_layout(format_name, specs, subformats=subformats)
    return ctx


def build_subformats(subformat_specs: dict[str, list],
                     architecture: Architecture = NATIVE) -> dict:
    """Lay out nested struct specs in declaration order (dependencies
    must precede dependents, as in C source)."""
    from repro.pbio.layout import field_list_for
    subformats: dict = {}
    for name, sub_specs in subformat_specs.items():
        subformats[name] = field_list_for(
            sub_specs, architecture=architecture,
            subformats=dict(subformats))
    return subformats


def measure_rdm(xsd_text: str, format_name: str, specs, *,
                architecture: Architecture = NATIVE,
                sample_record: dict | None = None,
                subformat_specs: dict[str, list] | None = None,
                repeat: int = 5) -> RDMResult:
    """Measure the RDM for one format.

    ``specs`` is the compiled-in field-spec list; ``subformat_specs``
    supplies nested struct specs for composition-heavy formats.
    ``sample_record``, when given, is marshaled once to report the
    paper's "Encoded Size" column.
    """
    subformats = build_subformats(subformat_specs, architecture) \
        if subformat_specs else None

    pbio_time = time_callable(
        lambda: pbio_register(specs, format_name, architecture,
                              subformats), repeat=repeat)
    xmit_time = time_callable(
        lambda: xmit_register(xsd_text, format_name, architecture),
        repeat=repeat)

    ctx = pbio_register(specs, format_name, architecture, subformats)
    structure_size = ctx.lookup_format(format_name) \
        .field_list.record_length
    encoded_size = None
    if sample_record is not None:
        encoded_size = ctx.encoded_size(format_name, sample_record)
    return RDMResult(format_name=format_name,
                     structure_size=structure_size,
                     encoded_size=encoded_size,
                     pbio=pbio_time, xmit=xmit_time)


def measure_rdm_suite(cases, *, architecture: Architecture = NATIVE,
                      repeat: int = 5) -> list[RDMResult]:
    """Measure a list of cases: dicts with keys ``xsd``, ``name``,
    ``specs`` and optionally ``record``/``subformats``."""
    results = []
    for case in cases:
        results.append(measure_rdm(
            case["xsd"], case["name"], case["specs"],
            architecture=architecture,
            sample_record=case.get("record"),
            subformat_specs=case.get("subformats"),
            repeat=repeat))
    return results
