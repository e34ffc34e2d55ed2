"""Record unmarshaling: PBIO wire bytes -> record dicts.

This is the "receiver makes right" half: the receiver interprets a
record laid out by the *sender's* architecture (sizes, offsets, byte
order taken from the wire format's metadata) and produces native Python
values, swapping bytes only when sender and receiver disagree — which
NumPy's explicit-endianness dtypes give us for free on bulk data.

A :class:`RecordDecoder` is compiled once per wire format and cached
process-wide per format digest (:func:`decoder_for_format`),
symmetrical with the encoder.  Like the encoder, the compiled plan
fuses contiguous fixed-size scalar fields into a single precompiled
:class:`struct.Struct` — one ``unpack_from`` per run instead of one
per field (``fuse=False`` keeps the per-field baseline for
benchmarking and byte-equality tests).
"""

from __future__ import annotations

import struct
from functools import partial

import numpy as np

from repro.errors import DecodeError
from repro.pbio.encode import _fused_run_factory
from repro.pbio.fields import FieldList, IOField
from repro.pbio.format import IOFormat
from repro.pbio.plancache import PlanFrontEnd, compile_codec
from repro.pbio.walk import Step, numpy_dtype, struct_code, walk_fields


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _short(name: str, length: int, size: int) -> None:
    raise DecodeError(f"record body {size} bytes, format {name!r} "
                      f"requires at least {length}")


class RecordDecoder:
    """Compiled decoder for one wire :class:`IOFormat`.

    ``arrays`` selects the representation of numeric arrays:
    ``"list"`` (default, plain Python), ``"numpy"`` (zero-copy views
    into the record body where alignment permits), or ``"view"``
    (zero-copy like ``"numpy"``, but the receive buffer is wrapped
    read-only first, so no decoded array can ever write through to the
    wire bytes).  Zero-copy arrays alias the receive buffer: they are
    valid only while that buffer object lives and is not mutated or
    reused — pass records through :func:`materialize_record` before
    repooling the buffer (see ``docs/MARSHALING.md``).

    The wire is untrusted: every wire-derived pointer must land inside
    the record's variable region ``[record_length, len(body)]`` —
    never aliasing the fixed section — and every element count is
    clamped against the remaining body bytes *before* any list or
    array is allocated.  Violations raise
    :class:`~repro.errors.DecodeError` naming the field.

    ``fuse=False`` keeps the per-field plan the fused one is
    differentially tested against.
    """

    def __init__(self, fmt: IOFormat, *, arrays: str = "list",
                 fuse: bool = True) -> None:
        if arrays not in ("list", "numpy", "view"):
            raise DecodeError(f"arrays must be 'list', 'numpy' or "
                              f"'view', got {arrays!r}")
        self.format = fmt
        self.field_list = fmt.field_list
        self.arrays = arrays
        self.fuse = fuse
        self.fused_runs = 0
        self.fused_fields = 0
        self._bo = fmt.architecture.struct_byte_order_char
        self._byte_order = fmt.architecture.byte_order
        ptr_size = fmt.architecture.sizeof("pointer")
        self._ptr = struct.Struct(
            self._bo + ("I" if ptr_size == 4 else "Q"))
        self._count = struct.Struct(self._bo + "I")
        # (name, op) in field order; a fused run's name is None and
        # its op fills the record dict itself
        self._ops = self._compile(self.field_list, fmt.enums)
        #: ``record(data, at, n)`` when the whole record is one fused
        #: run with no post-processing; made from that run's one op,
        #: which ``_ops`` keeps for the ``fused_runs`` stats
        self._whole = self._compile_whole()

    # -- public ---------------------------------------------------------------

    def decode(self, body: bytes | memoryview) -> dict:
        """Decode a record body (no header) into a record dict."""
        if self._whole is not None:
            return self._whole(body, 0, len(body))
        if type(body) is not memoryview:
            body = memoryview(body)
        if self.arrays == "view" and not body.readonly:
            body = body.toreadonly()
        if len(body) < self.field_list.record_length:
            _short(self.format.name, self.field_list.record_length,
                   len(body))
        record: dict = {}
        for names, op in self._ops:
            try:
                if names is None:       # fused run: op fills the dict
                    op(body, 0, record)
                else:
                    record[names] = op(body, 0)
            except DecodeError:
                raise
            except (struct.error, ValueError, IndexError,
                    OverflowError, UnicodeDecodeError) as exc:
                # corrupt offsets/counters surface as raw unpack or
                # text-decode failures; normalize to the typed error
                # the receiver contract promises
                name = names if names is not None else \
                    getattr(op, "run_names", ("?",))[0]
                raise DecodeError(
                    f"field {name!r}: corrupt record data: "
                    f"{exc}") from None
        return record

    @property
    def decode_wire(self):
        """``record(data, at, n)`` of the *n*-byte body at offset *at*
        of *data* (a wire record's at 16): the generated unpack itself
        for a whole record, else :meth:`decode` of a view."""
        return self._whole or (
            lambda data, at, n: self.decode(memoryview(data)[at:at + n]))

    # -- compilation ------------------------------------------------------------

    def _compile(self, field_list: FieldList, enums) -> list[tuple]:
        """One ``(name, op)`` per :func:`~repro.pbio.walk.walk_fields`
        step."""
        emit = self._EMITTERS
        return [(None if step.kind == "run" else step.field.name,
                 emit[step.kind](self, step, enums))
                for step in walk_fields(field_list, fuse=self.fuse)]

    def _compile_fused_run(self, step: Step, enums):
        """One unpack_from for a contiguous run of scalar fields.

        Padding holes become ``x`` pad codes; per-field
        post-processing (bool, char, enum table lookups) is applied to
        the unpacked tuple, with numeric identities skipped.  The op
        keeps the run's codes from offset 0 and its posts as
        ``op.layout`` for :meth:`_compile_whole`.
        """
        run = step.run
        self.fused_runs += 1
        self.fused_fields += len(run)
        start = run[0][0].offset
        parts: list[str] = []
        names: list[str] = []
        posts: list = []
        pos = start
        for field, ftype in run:
            if field.offset > pos:
                parts.append(f"{field.offset - pos}x")
            parts.append(struct_code(ftype.kind, field.size))
            names.append(field.name)
            post = _scalar_post(ftype.kind, enums.get(field.name))
            # struct already yields exact ints/floats; skip identity
            posts.append(None if post in (int, float) else post)
            pos = field.offset + field.size
        codes = "".join(parts)
        unpacker = struct.Struct(self._bo + codes)
        run_names = tuple(names)
        run_posts = tuple(posts) if any(posts) else None

        def op(body, base, out, *, _u=unpacker, _names=run_names,
               _posts=run_posts):
            values = _u.unpack_from(body, base + start)
            if _posts is None:
                i = 0
                for n in _names:
                    out[n] = values[i]
                    i += 1
            else:
                i = 0
                for n, p in zip(_names, _posts):
                    v = values[i]
                    out[n] = p(v) if p is not None else v
                    i += 1
        op.run_names = run_names
        op.layout = (f"{start}x{codes}", run_posts)
        return op

    def _compile_whole(self):
        """``record(data, at, n)`` for a format whose fixed section is one
        fused run needing no post-processing, else None: made from the
        run op's layout and generated, like the encoder's, by
        :func:`_fused_run_factory`."""
        if len(self._ops) != 1 or self._ops[0][0] is not None:
            return None
        op = self._ops[0][1]
        codes, posts = op.layout
        if posts:
            return None
        length = self.field_list.record_length
        _, _, make_decode = _fused_run_factory(len(op.run_names))
        return make_decode(struct.Struct(self._bo + codes).unpack_from,
                           length, partial(_short, self.format.name, length),
                           *op.run_names)

    def _compile_scalar(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        offset = field.offset
        kind = ftype.kind
        unpacker = struct.Struct(self._bo + struct_code(kind, field.size))
        post = _scalar_post(kind, enums.get(field.name))
        name = field.name

        def op(body, base, *, _u=unpacker, _p=post):
            try:
                value = _u.unpack_from(body, base + offset)[0]
            except struct.error as exc:
                raise DecodeError(f"field {name!r}: {exc}") from None
            return _p(value)
        return op

    def _compile_string(self, step: Step, enums):
        offset = step.field.offset
        ptr = self._ptr
        name = step.field.name
        var_start = self.field_list.record_length

        def op(body, base):
            where = ptr.unpack_from(body, base + offset)[0]
            if where == 0:
                return None
            if where < var_start or where >= len(body):
                raise DecodeError(
                    f"field {name!r}: string pointer {where} outside "
                    f"variable region [{var_start}, {len(body)})")
            end = _find_nul(body, where, name)
            return bytes(body[where:end]).decode("utf-8")
        return op

    def _compile_fixed_array(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        offset = field.offset
        count = ftype.static_element_count
        kind = ftype.kind
        name = field.name
        if kind == "char":
            size = count

            def char_op(body, base):
                raw = bytes(body[base + offset:base + offset + size])
                return raw.split(b"\x00", 1)[0].decode(
                    "utf-8", errors="replace")
            return char_op
        if self.arrays == "list":
            # count is the format's, never the wire's: the whole run
            # is one compile-time unpack, no ndarray in between
            post = _array_post(kind, enums.get(name), "list", list)
            unpack = struct.Struct(
                f"{self._bo}{count}{struct_code(kind, field.size)}"
            ).unpack_from
            return lambda body, base: post(unpack(body, base + offset))
        dtype = numpy_dtype(kind, field.size, self._byte_order,
                            field_name=name)
        post = _array_post(kind, enums.get(name), self.arrays)

        def op(body, base):
            arr = np.frombuffer(body, dtype=dtype, count=count,
                                offset=base + offset)
            return post(arr)
        return op

    def _compile_var_array(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        offset = field.offset
        kind = ftype.kind
        name = field.name
        ptr = self._ptr
        counter = self._count
        self_sized = step.sizing is None
        sized_by = None if self_sized else \
            self._sizing_reader(step.sizing, name)
        trailing = ftype.static_element_count
        var_start = self.field_list.record_length

        if kind == "char":
            def char_op(body, base):
                where = ptr.unpack_from(body, base + offset)[0]
                if where == 0:
                    return None
                _check_pointer(body, where, var_start, name,
                               4 if self_sized else 0)
                if self_sized:
                    n = counter.unpack_from(body, where)[0]
                    start = where + 4
                else:
                    n = sized_by(body, base)
                    start = where
                _check_bounds(body, start, n, name)
                return bytes(body[start:start + n]).decode(
                    "utf-8", errors="replace")
            return char_op

        dtype = numpy_dtype(kind, field.size, self._byte_order,
                            field_name=name)
        post = _array_post(kind, enums.get(name), self.arrays)
        elem = field.size
        # a foreign-order list is swapped once, in bulk, not inside
        # tolist()'s per-element getitem
        native = None if self.arrays != "list" or dtype.isnative \
            else dtype.newbyteorder("=")

        def op(body, base):
            where = ptr.unpack_from(body, base + offset)[0]
            if where == 0:
                return None if self_sized else []
            _check_pointer(body, where, var_start, name,
                           4 if self_sized else 0)
            if self_sized:
                n = counter.unpack_from(body, where)[0] * trailing
                start = _round_up(where + 4, elem)
            else:
                n = sized_by(body, base) * trailing
                start = where
            # clamp n against the remaining bytes BEFORE frombuffer
            # allocates: a smashed counter must never drive a
            # multi-GB request
            _check_bounds(body, start, n * elem, name)
            arr = np.frombuffer(body, dtype=dtype, count=n, offset=start)
            return post(arr if native is None else arr.astype(native))
        return op

    def _compile_subformat(self, step: Step, enums):
        field, ftype, sub_list = step.field, step.ftype, step.sub
        offset = field.offset
        name = field.name
        sub_ops = self._compile(sub_list, {})
        stride = sub_list.record_length
        ptr = self._ptr
        counter = self._count

        def decode_sub(body, base):
            out: dict = {}
            for names, op in sub_ops:
                if names is None:
                    op(body, base, out)
                else:
                    out[names] = op(body, base)
            return out

        if not ftype.dims:
            return lambda body, base: decode_sub(body, base + offset)

        count = ftype.static_element_count
        if ftype.is_inline:
            def fixed_op(body, base):
                at = base + offset
                return [decode_sub(body, at + i * stride)
                        for i in range(count)]
            return fixed_op

        self_sized = step.sizing is None
        sized_by = None if self_sized else \
            self._sizing_reader(step.sizing, name)
        var_start = self.field_list.record_length

        def var_op(body, base):
            where = ptr.unpack_from(body, base + offset)[0]
            if where == 0:
                return None if self_sized else []
            _check_pointer(body, where, var_start, name,
                           4 if self_sized else 0)
            if self_sized:
                n = counter.unpack_from(body, where)[0]
                zone = _round_up(where + 4, 8)
            else:
                n = sized_by(body, base)
                zone = where
            # FieldList guarantees stride >= 1, so this also clamps n
            # itself before the list below is built
            _check_bounds(body, zone, n * stride, name)
            return [decode_sub(body, zone + i * stride)
                    for i in range(n)]
        return var_op

    def _sizing_reader(self, sizing: IOField, array_name: str):
        """``count(body, base)`` for a var array sized by *sizing* — a
        field of the record the array itself lives in (*base* is that
        record's, top-level or nested), resolved once at compile time."""
        unpack = struct.Struct(self._bo + struct_code(
            sizing.field_type.kind, sizing.size)).unpack_from
        at = sizing.offset

        def count(body, base):
            n = unpack(body, base + at)[0]
            if n < 0:
                raise DecodeError(
                    f"field {array_name!r}: negative element count {n}")
            return n
        return count

    _EMITTERS = {"run": _compile_fused_run, "scalar": _compile_scalar,
                 "string": _compile_string, "fixed": _compile_fixed_array,
                 "var": _compile_var_array, "sub": _compile_subformat}


def _check_pointer(body, where: int, var_start: int, name: str,
                   counter_bytes: int) -> None:
    """Reject a wire pointer that lands outside the variable region.

    Valid data pointers live in ``[var_start, len(body)]`` — a pointer
    below ``var_start`` aliases the fixed section (silent misdecode
    territory), one past the end reads garbage.  ``len(body)`` itself
    is legal only for zero-length sized arrays; when *counter_bytes*
    is nonzero the self-sizing count must also fit before the pointer
    is followed.
    """
    limit = len(body)
    if where < var_start or where > limit:
        raise DecodeError(
            f"field {name!r}: data pointer {where} outside variable "
            f"region [{var_start}, {limit}]")
    if counter_bytes and where + counter_bytes > limit:
        raise DecodeError(
            f"field {name!r}: element count at offset {where} "
            f"truncated (record is {limit} bytes)")


def _find_nul(body, start: int, name: str) -> int:
    if start >= len(body):
        raise DecodeError(
            f"field {name!r}: string offset {start} beyond record "
            f"({len(body)} bytes)")
    raw = bytes(body[start:])
    end = raw.find(b"\x00")
    if end == -1:
        raise DecodeError(f"field {name!r}: unterminated string data")
    return start + end


def _check_bounds(body, start: int, nbytes: int, name: str) -> None:
    if start < 0 or start + nbytes > len(body):
        raise DecodeError(
            f"field {name!r}: data [{start}, {start + nbytes}) outside "
            f"record of {len(body)} bytes")


def _scalar_post(kind: str, enum_values: tuple[str, ...] | None):
    if kind == "boolean":
        return bool
    if kind == "char":
        return lambda v: chr(v)
    if kind == "enumeration" and enum_values is not None:
        values = enum_values

        def post_enum(v):
            if v >= len(values):
                raise DecodeError(
                    f"enum index {v} out of range for {list(values)}")
            return values[v]
        return post_enum
    if kind == "float":
        return float
    return int


def _array_post(kind: str, enum_values, arrays: str,
                to_list=np.ndarray.tolist):
    if kind == "boolean":
        return lambda arr: [bool(x) for x in arr]
    if kind == "enumeration" and enum_values is not None:
        values = enum_values
        return lambda arr: [values[int(x)] for x in arr]
    if arrays in ("numpy", "view"):
        # "view" read-onlyness comes from the buffer itself: decode()
        # wraps the body with toreadonly() before any frombuffer, so
        # every array here is born non-writable.
        return lambda arr: arr
    return to_list


def materialize_record(record, *, arrays: str = "list"):
    """Copy-out a decoded record so it owns every byte it references.

    Zero-copy arrays (``arrays="numpy"``/``"view"`` decode modes) alias
    the receive buffer; run the record through this before the buffer
    is mutated, reused or returned to a pool.  ``arrays`` selects the
    owned representation: ``"list"`` (plain Python) or ``"numpy"``
    (a private array copy).  Nested subformat records and lists are
    converted recursively; scalars pass through unchanged.
    """
    if isinstance(record, np.ndarray):
        return record.tolist() if arrays == "list" else record.copy()
    if isinstance(record, dict):
        return {k: materialize_record(v, arrays=arrays)
                for k, v in record.items()}
    if isinstance(record, list):
        return [materialize_record(v, arrays=arrays) for v in record]
    return record


# ---------------------------------------------------------------------------
# process-wide codec plan cache
# ---------------------------------------------------------------------------

DECODERS = PlanFrontEnd("decoder")


def decoder_for_format(fmt: IOFormat, *,
                       arrays: str = "list") -> RecordDecoder:
    """The process-wide compiled decoder for *fmt* (keyed by the
    format's digest-derived ID plus the array representation); the
    mirror of :func:`~repro.pbio.encode.encoder_for_format`."""
    return DECODERS.get((fmt.format_id, arrays), lambda: compile_codec(
        "decoder", RecordDecoder, fmt, arrays=arrays))


def clear_decoder_cache(*, persistent: bool = True) -> None:
    """Drop all cached decoder plans (tests and format churn); also
    purges the active disk tier unless ``persistent=False`` (see
    :func:`~repro.pbio.encode.clear_encoder_cache`)."""
    DECODERS.clear(persistent=persistent)

