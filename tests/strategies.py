"""Hypothesis strategies shared by the property-based tests.

Two central generators:

* :func:`field_specs` -- random PBIO field-spec lists (atomic types,
  fixed arrays, length-linked and self-sized dynamic arrays, strings);
* :func:`record_for` -- a strategy producing records valid for a given
  spec list, so ``encode(decode(x)) == x``-style properties can range
  over both formats and values.

Spec lists come back as :class:`Specs` -- a plain list for every
existing caller, plus the nested types it references; lay them out
with :func:`field_list_of`.
"""

from __future__ import annotations

import math
import string

from hypothesis import strategies as st

from repro.pbio.layout import field_list_for

_NAME_ALPHABET = string.ascii_lowercase + "_"

field_names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(string.ascii_lowercase),
    st.text(alphabet=_NAME_ALPHABET + string.digits, min_size=0,
            max_size=8),
)

#: (type string template, element size) for atomic scalar fields.
_ATOMIC_TYPES: list[tuple[str, int]] = [
    ("integer", 1), ("integer", 2), ("integer", 4), ("integer", 8),
    ("unsigned integer", 1), ("unsigned integer", 2),
    ("unsigned integer", 4), ("unsigned integer", 8),
    ("float", 4), ("float", 8),
    ("boolean", 1), ("char", 1), ("string", 0),
]


def _int_bounds(size: int, unsigned: bool) -> tuple[int, int]:
    if unsigned:
        return 0, (1 << (8 * size)) - 1
    half = 1 << (8 * size - 1)
    return -half, half - 1


def value_for(type_string: str, size: int) -> st.SearchStrategy:
    """Values valid for an atomic scalar of the given type/size."""
    if type_string.startswith("unsigned"):
        lo, hi = _int_bounds(size, unsigned=True)
        return st.integers(lo, hi)
    if type_string == "integer":
        lo, hi = _int_bounds(size, unsigned=False)
        return st.integers(lo, hi)
    if type_string == "float":
        if size == 4:
            return st.floats(width=32, allow_nan=False)
        return st.floats(allow_nan=False)
    if type_string == "boolean":
        return st.booleans()
    if type_string == "char":
        return st.sampled_from(string.printable[:94])
    if type_string == "string":
        return st.one_of(
            st.none(),
            st.text(min_size=0, max_size=20).filter(
                lambda s: "\x00" not in s))
    raise AssertionError(type_string)


@st.composite
def atomic_field(draw, name: str):
    """One field spec plus the strategy for its values."""
    type_string, size = draw(st.sampled_from(_ATOMIC_TYPES))
    shape = draw(st.sampled_from(["scalar", "fixed", "dynamic"]))
    if type_string in ("string",):
        shape = "scalar"
    if shape == "scalar":
        spec = (name, type_string) if size == 0 \
            else (name, type_string, size)
        return spec, value_for(type_string, size)
    if shape == "fixed":
        n = draw(st.integers(1, 6))
        if type_string == "char":
            spec = (name, f"char[{n}]", 1)
            values = st.text(alphabet=string.ascii_letters,
                             min_size=0, max_size=n)
            return spec, values
        spec = (name, f"{type_string}[{n}]", size)
        return spec, st.lists(value_for(type_string, size),
                              min_size=n, max_size=n)
    # dynamic, self-sized
    if type_string == "char":
        spec = (name, "char[*]", 1)
        return spec, st.text(alphabet=string.ascii_letters,
                             min_size=0, max_size=12)
    spec = (name, f"{type_string}[*]", size)
    return spec, st.lists(value_for(type_string, size), min_size=0,
                          max_size=8)


#: element types usable inside dimensionName-linked var-arrays
_LINKABLE_TYPES = [(t, s) for t, s in _ATOMIC_TYPES
                   if t in ("integer", "unsigned integer", "float")]


class Specs(list):
    """A field-spec list plus the subformat spec lists it references
    (``subformats``: type name -> spec list; empty for flat formats)."""

    def __init__(self, specs=(), subformats=None):
        super().__init__(specs)
        self.subformats = dict(subformats or {})


def field_list_of(specs, architecture):
    """Lay out *specs* (and any nested types a :class:`Specs` carries)
    on *architecture*."""
    subformats = {
        name: field_list_for(sub, architecture=architecture)
        for name, sub in getattr(specs, "subformats", {}).items()}
    return field_list_for(specs, architecture=architecture,
                          subformats=subformats or None)


@st.composite
def _nested_linked_array(draw, sizing_name: str):
    """A nested type whose var array is sized by a field of the nested
    type itself: (sub specs, strategy for the nested record).  The
    sizing field sits after a pad field, so reading it at the offset
    of a same-named field of the *enclosing* record goes wrong."""
    type_string, size = draw(st.sampled_from(_LINKABLE_TYPES))
    sub = [("pad", "integer", 4), (sizing_name, "integer", 4),
           ("v", f"{type_string}[{sizing_name}]", size)]
    values = st.lists(value_for(type_string, size), min_size=0,
                      max_size=8)
    return sub, st.builds(
        lambda pad, v: {"pad": pad, sizing_name: len(v), "v": v},
        value_for("integer", 4), values)


@st.composite
def format_case(draw, min_fields: int = 1, max_fields: int = 6,
                allow_linked: bool = True, allow_nested: bool = False):
    """A (specs, record_strategy) pair for a random format.

    Mixes scalars (contiguous ones become fused runs), strings, fixed
    arrays, self-sized dynamic arrays, and — unless *allow_linked* is
    False — ``dimensionName``-linked var-arrays whose sizing field is
    filled from the generated list's length.  With *allow_nested* one
    field in three is a nested record holding such a linked array,
    sized by a field of the nested type that shares its name with a
    field of the enclosing record whenever one is available.
    """
    names = draw(st.lists(field_names, min_size=min_fields,
                          max_size=max_fields, unique=True))
    specs = Specs()
    value_strats = {}
    links = {}  # array field -> sizing field
    taken = set(names)
    for name in names:
        len_name = name + "_n"
        if allow_nested and draw(st.integers(0, 2)) == 0:
            shadowed = draw(st.sampled_from(
                sorted(set(names) - {"pad", "v"}) or ["n"]))
            sub, values = draw(_nested_linked_array(shadowed))
            specs.subformats[f"Sub_{name}"] = sub
            specs.append((name, f"Sub_{name}"))
            value_strats[name] = values
            continue
        if allow_linked and len_name not in taken and \
                draw(st.integers(0, 4)) == 0:
            type_string, size = draw(st.sampled_from(_LINKABLE_TYPES))
            taken.add(len_name)
            specs.append((len_name, "integer", 4))
            specs.append((name, f"{type_string}[{len_name}]", size))
            value_strats[name] = st.lists(
                value_for(type_string, size), min_size=0, max_size=8)
            links[name] = len_name
            continue
        spec, values = draw(atomic_field(name))
        specs.append(spec)
        value_strats[name] = values

    def _fill_sizes(record, _links=links):
        out = dict(record)
        for array_name, length_name in _links.items():
            out[length_name] = len(out[array_name])
        return out

    record = st.fixed_dictionaries(value_strats).map(_fill_sizes)
    return specs, record


@st.composite
def scalar_run_case(draw, min_fields: int = 2, max_fields: int = 8):
    """A format of *only* fusible scalars — guarantees the compiled
    plan contains at least one multi-field fused run, so run fusion is
    exercised on every example rather than by luck."""
    scalars = [(t, s) for t, s in _ATOMIC_TYPES if t != "string"]
    names = draw(st.lists(field_names, min_size=min_fields,
                          max_size=max_fields, unique=True))
    specs = []
    value_strats = {}
    for name in names:
        type_string, size = draw(st.sampled_from(scalars))
        specs.append((name, type_string, size))
        value_strats[name] = value_for(type_string, size)
    return specs, st.fixed_dictionaries(value_strats)


def assert_record_roundtrip(original: dict, decoded: dict,
                            specs: list) -> None:
    """Structural equality with float32 tolerance."""
    assert set(decoded) == set(original)
    by_name = {s[0]: s for s in specs}
    subformats = getattr(specs, "subformats", {})
    for name, sent in original.items():
        got = decoded[name]
        spec = by_name[name]
        type_string = spec[1]
        size = spec[2] if len(spec) > 2 else None
        if type_string in subformats:
            assert_record_roundtrip(sent, got, subformats[type_string])
        elif type_string.startswith("float") and size == 4:
            _assert_f32(sent, got)
        elif type_string.startswith("char[") and sent is not None:
            # char arrays round-trip through NUL-stripped text
            assert got == sent.split("\x00", 1)[0]
        else:
            assert got == sent, (name, sent, got)


def _assert_f32(sent, got) -> None:
    import numpy as np
    if isinstance(sent, list):
        assert len(sent) == len(got)
        for s, g in zip(sent, got):
            _assert_f32(s, g)
        return
    expected = float(np.float32(sent))
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected
