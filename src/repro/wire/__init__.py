"""Baseline wire-format codecs.

The paper's Fig. 8 compares send-side encode times of four binary
communication mechanisms — XML-as-wire-format, MPICH, CORBA (IIOP/CDR)
and PBIO — over message sizes from 100 bytes to 100 KB, and section 4.1
argues XML encode/decode costs sit 2-4 orders of magnitude above binary
mechanisms.  This package implements a codec per mechanism, each
reproducing the *algorithmic* cost structure that drove the published
curves:

* :class:`XMLWireCodec`  -- per-element ASCII conversion both ways and
  6-8x message expansion (text tags around every value);
* :class:`MPIWireCodec`  -- derived-datatype typemap walk with
  per-element copies (MPI_Pack semantics, native byte order);
* :class:`CDRWireCodec`  -- aligned CDR primitives, length-prefixed
  strings/sequences, reader-makes-right byte-order flag;
* :class:`XDRWireCodec`  -- 4-byte-unit big-endian XDR, sender always
  converts (Sun RPC) -- one walk with CDR, under its own policy table;
* :class:`PBIOWireCodec` -- the PBIO encoder behind the common
  interface.

All codecs share one metadata source (a PBIO :class:`IOFormat`) and one
in-memory record representation (dicts), so measured differences are
attributable to the wire format alone.
"""

from repro.wire.base import WireCodec, codec_by_name, all_codecs
from repro.wire.xml_wire import XMLWireCodec
from repro.wire.mpi_wire import MPIWireCodec
from repro.wire.aligned_wire import CDRWireCodec, XDRWireCodec
from repro.wire.pbio_wire import PBIOWireCodec

__all__ = [
    "CDRWireCodec",
    "MPIWireCodec",
    "PBIOWireCodec",
    "WireCodec",
    "XDRWireCodec",
    "XMLWireCodec",
    "all_codecs",
    "codec_by_name",
]
