"""Typed bodies of the REQ, REPLY and ERROR frames; this docstring is the spec.

A REQ frame's body is the leg's down message (a MSG body, see
:mod:`repro.net.socket_channel`) followed by the request's *control*; a
REPLY's is the up message followed by the reply's *meta*; an ERROR's is
the error alone. This module encodes those three parts. Nothing in them
is pickled: every byte that arrives from a socket is untrusted, so a site
server decodes a control through the plan's own constructors, and the
coordinator decodes a meta or an error the same way.

**Conventions.** A *varint* is an unsigned LEB128 integer, as in
:mod:`repro.net.serialize`. A *zig-zag varint* maps a signed integer of
any size onto one (0, -1, 1, -2, ...). A *string* is a varint byte length
followed by that many bytes of UTF-8. An *f64* is an IEEE double, 8 bytes
little-endian, bit for bit. A *scalar* is a tag byte and its value, in
the codec's scalar forms:

- 0 NULL (no value); 1 INT, a zig-zag varint (past ``2**63`` too);
- 2 FLOAT, an f64 (``-0.0`` and NaN payloads kept); 3 STR, a string;
- 4 BOOL false and 5 BOOL true (no value);
- 6 DATE, its proleptic-Gregorian ordinal as a varint.

**Protocol version.** The JSON bodies of HELLO and WELCOME carry
``"protocol":`` :data:`PROTOCOL_VERSION`. Either end refuses any other
value, or none, with a :class:`~repro.errors.ProtocolError`; a site
answers it with ERROR and closes the connection. HELLO crosses once per
connection, so the version costs no bytes per request.

**REQ control** (:func:`encode_control`, :func:`decode_control`) carries
the fields of a :class:`~repro.distributed.executor.SiteRequest` except
two: its fragment, which is the REQ's message, and its site, which HELLO
bound the connection to (the site server fills it in).

- ``kind``: a byte, 0 ``base``, 1 ``round``, 2 ``merged``;
- ``round_number``: a varint;
- *flags*: a varint, one bit per optional field, in :data:`OPTIONAL_FIELDS`
  order, set when the field is sent. A boolean field's bit is its value.
  Every other field that is set follows, in bit order:

  - ``steps``: a varint byte length, then the *steps section* (below);
  - ``key_attrs``: a varint count, then that many names;
  - ``source``: byte 0 and a ``DistinctBase`` (its table's name, a varint
    count, its attribute names), or byte 1 and a ``LiteralBase`` (a
    varint count, its key names, then a varint byte length and that many
    bytes of one :func:`~repro.net.serialize.encode_relation` block);
  - ``query_id``: a scalar;
  - ``compute_delay_s``: an f64;
  - ``since``: a varint.

A *name* is a varint ``v``: ``0`` followed by a string, or entry ``v - 1``
of the steps section's table. Names are interned once per REQ: every name
the steps use is in the table, and ``key_attrs`` and ``source`` refer to
it where it holds theirs.

The **steps section** stands alone, so the coordinator encodes a round's
steps once and reuses the bytes for every leg, and a site decodes a
section once: it keeps up to :data:`MEMO_SECTIONS` decoded sections of at
most :data:`MEMO_SECTION_BYTES` each, keyed by their exact bytes. It is:
a varint count and that many strings, the *table* (each name once, in
first-use order); a varint count of steps; per step its detail table (a
name) and a varint count of blocks; per block a varint count of
aggregates, each as its registered function's name, its input (an
expression, or the tag :data:`_NO_INPUT` for ``COUNT(*)``) and its output
name, then the block's condition, an expression.

An **expression** is a tagged tree over the closed ``Expr`` node set,
each node a tag byte and then its parts in constructor order:

- tags 0–6: a ``Const``, whose tag and value are a scalar's;
- 16, 17, 18: a ``Field`` unqualified, on ``b``, on ``r``, then its
  name; 19: on another relation variable, that variable's name, then its
  name;
- 20–24: ``Arith`` ``+ - * / %``; 25: ``Neg``; 26–31: ``Comparison``
  ``== != < <= > >=``; 32 ``And``; 33 ``Or``; 34 ``Not``;
- 35: ``InSet``, its operand, a varint count, that many scalars (sorted
  by their bytes);
- 36: ``Between``; 37: ``IsNull``.

A tree nested deeper than :data:`MAX_EXPR_DEPTH` is refused at both ends.

**REPLY meta** (:func:`encode_meta`, :func:`decode_meta`): ``rows`` (a
varint), ``compute_s`` (an f64), then a varint ``2 * counters + traced``.
Each counter follows as a varint: its index in :data:`COUNTER_NAMES` plus
one, or 0 and its name as a string; then its value, a varint. When
traced, the site's spans end the meta: a string of JSON, a list of span
objects.

**ERROR** (:func:`encode_error`, :func:`decode_error`): the error's class
name, a string; the rest of the body is its message in UTF-8.

**Untrusted bytes.** Decoding ends in a value or a
:class:`~repro.errors.ProtocolError`, in time linear in its bytes. A
count or a length is checked against the bytes left before anything is
allocated for it (an item takes at least one byte); a flag, a tag or a
name index outside its range is refused, and so are trailing bytes.
Every object is built by its own constructor (``MDStep``, ``MDBlock``,
``AggSpec``, ``DistinctBase``, ``LiteralBase``, ``Field``, ...), so
their validation runs on what came off the wire.
"""

from __future__ import annotations

import datetime
import json
import operator
import struct
import threading

from repro.errors import ProtocolError, ReproError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, LiteralBase, MDStep
from repro.net import serialize
from repro.net.serialize import _read_varint, _unzigzag, _write_varint, _zigzag
from repro.relalg.aggregates import AggSpec
from repro.relalg.expressions import (
    BASE_VAR,
    DETAIL_VAR,
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Field,
    InSet,
    IsNull,
    Neg,
    Not,
    Or,
)

#: The version HELLO and WELCOME carry; bumped whenever a body changes.
PROTOCOL_VERSION = 2

#: Deepest expression either end encodes or decodes.
MAX_EXPR_DEPTH = 128

#: Decoded steps sections a site keeps, and the largest it keeps.
MEMO_SECTIONS = 64
MEMO_SECTION_BYTES = 1 << 16

_F64 = struct.Struct("<d")

# -- scalars ------------------------------------------------------------------------

_NULL, _INT, _FLOAT, _STR, _FALSE, _TRUE, _DATE = range(7)


def _write_scalar(out: bytearray, value) -> None:
    kind = type(value)
    if value is None:
        out.append(_NULL)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is int:
        out.append(_INT)
        _write_varint(out, _zigzag(value))
    elif kind is float:
        out.append(_FLOAT)
        out += _F64.pack(value)
    elif kind is str:
        out.append(_STR)
        _write_string(out, value)
    elif kind is datetime.date:
        out.append(_DATE)
        _write_varint(out, value.toordinal())
    else:
        raise ProtocolError(f"a {kind.__name__} value has no wire form: {value!r}")


def _write_string(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out += data


# -- expressions --------------------------------------------------------------------

_RELVAR_TAGS = {None: 16, BASE_VAR: 17, DETAIL_VAR: 18}
_OTHER_RELVAR = 19
_TAG_RELVARS = {tag: relvar for relvar, tag in _RELVAR_TAGS.items()}
_IN_SET = 35
_NO_INPUT = 38
#: tag -> (node class, operator or None); ``InSet`` and leaves aside.
_TAG_NODES = {
    **{20 + index: (Arith, op) for index, op in enumerate("+-*/%")},
    25: (Neg, None),
    **{
        26 + index: (Comparison, op)
        for index, op in enumerate(("==", "!=", "<", "<=", ">", ">="))
    },
    32: (And, None),
    33: (Or, None),
    34: (Not, None),
    36: (Between, None),
    37: (IsNull, None),
}
_NODE_TAGS = {node: tag for tag, node in _TAG_NODES.items()}
_ARITY = {Arith: 2, Neg: 1, Comparison: 2, And: 2, Or: 2, Not: 1, Between: 3, IsNull: 1}


def _write_expr(out: bytearray, expr, names: dict, depth: int = 0) -> None:
    if depth >= MAX_EXPR_DEPTH:
        raise ProtocolError(f"an expression nested past {MAX_EXPR_DEPTH} levels")
    kind = type(expr)
    if kind is Const:
        _write_scalar(out, expr.value)
    elif kind is Field:
        tag = _RELVAR_TAGS.get(expr.relvar)
        if tag is None:
            out.append(_OTHER_RELVAR)
            _write_name(out, expr.relvar, names)
        else:
            out.append(tag)
        _write_name(out, expr.name, names)
    elif kind is InSet:
        out.append(_IN_SET)
        _write_expr(out, expr.operand, names, depth + 1)
        values = []
        for value in expr.values:
            encoded = bytearray()
            _write_scalar(encoded, value)
            values.append(bytes(encoded))
        _write_varint(out, len(values))
        out += b"".join(sorted(values))
    else:
        tag = _NODE_TAGS.get((kind, getattr(expr, "op", None)))
        if tag is None:
            raise ProtocolError(f"a {kind.__name__} expression has no wire form")
        out.append(tag)
        for child in expr.children():
            _write_expr(out, child, names, depth + 1)


def _write_name(out: bytearray, name, names: dict, intern: bool = True) -> None:
    """A name: its table entry (added when ``intern``), else inline."""
    if not isinstance(name, str):
        raise ProtocolError(f"a name must be a string, got {name!r}")
    index = names.get(name)
    if index is None and intern:
        index = names[name] = len(names)
    if index is None:
        out.append(0)
        _write_string(out, name)
    else:
        _write_varint(out, index + 1)


# -- the steps section --------------------------------------------------------------

#: id(steps) -> (steps, section, names): the coordinator's legs of a round
#: share one steps tuple, so the section is encoded once for all of them.
#: Holding the tuple keeps its id from being reused while it is here.
_ENCODED: dict = {}
_DECODED: dict = {}
_MEMO_LOCK = threading.Lock()


def _memo(cache: dict, key, value) -> None:
    with _MEMO_LOCK:
        if len(cache) >= MEMO_SECTIONS:
            cache.clear()
        cache[key] = value


def _steps_section(steps: tuple) -> tuple:
    """``(section bytes, names table)`` of ``steps``, encoded once per tuple."""
    cached = _ENCODED.get(id(steps))
    if cached is not None and cached[0] is steps:
        return cached[1], cached[2]
    names: dict = {}
    body = bytearray()
    _write_varint(body, len(steps))
    for step in steps:
        if not isinstance(step, MDStep):
            raise ProtocolError(f"a plan step must be an MDStep, got {step!r}")
        _write_name(body, step.detail, names)
        _write_varint(body, len(step.blocks))
        for block in step.blocks:
            _write_varint(body, len(block.aggregates))
            for spec in block.aggregates:
                _write_name(body, spec.func, names)
                if spec.input_expr is None:
                    body.append(_NO_INPUT)
                else:
                    _write_expr(body, spec.input_expr, names)
                _write_name(body, spec.output, names)
            _write_expr(body, block.condition, names)
    section = bytearray()
    _write_varint(section, len(names))
    for name in names:
        _write_string(section, name)
    section = bytes(section + body)
    if type(steps) is tuple:  # immutable: its bytes cannot go stale
        _memo(_ENCODED, id(steps), (steps, section, names))
    return section, names


# -- REQ control --------------------------------------------------------------------

_KINDS = ("base", "round", "merged")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

#: The optional fields of a request, in flag-bit order.
OPTIONAL_FIELDS = (
    "steps",
    "key_attrs",
    "source",
    "query_id",
    "compute_delay_s",
    "since",
    "independent_reduction",
    "traced",
    "observed",
    "keep_answer",
    "lose_state",
)
_BOOLEANS = frozenset(OPTIONAL_FIELDS[6:])
_FIELD_BITS = {name: 1 << bit for bit, name in enumerate(OPTIONAL_FIELDS)}
_ALL_FLAGS = (1 << len(OPTIONAL_FIELDS)) - 1
_DISTINCT, _LITERAL = 0, 1


def encode_control(control: dict) -> bytes:
    """The typed control of a request: ``control`` maps ``kind``,
    ``round_number`` and each optional field that is sent to its value.

    A value with no wire form raises :class:`~repro.errors.ProtocolError`.
    """
    unknown = control.keys() - {"kind", "round_number", *OPTIONAL_FIELDS}
    if unknown:
        raise ProtocolError(f"request fields with no wire form: {sorted(unknown)}")
    kind = _KIND_CODES.get(control["kind"])
    if kind is None:
        raise ProtocolError(f"unknown request kind {control['kind']!r}")
    try:
        return _encode_control(kind, control)
    except ProtocolError:
        raise
    except (ReproError, TypeError, ValueError, struct.error) as error:
        raise ProtocolError(f"a request has no wire form: {error}") from None


def _encode_control(kind: int, control: dict) -> bytes:
    out = bytearray((kind,))
    _write_varint(out, control["round_number"])
    flags = 0
    for name in OPTIONAL_FIELDS:
        if name in control and (name not in _BOOLEANS or control[name]):
            flags |= _FIELD_BITS[name]
    _write_varint(out, flags)
    names: dict = {}
    if "steps" in control:
        section, names = _steps_section(control["steps"])
        _write_varint(out, len(section))
        out += section
    if "key_attrs" in control:
        _write_names(out, control["key_attrs"], names)
    if "source" in control:
        source = control["source"]
        if isinstance(source, DistinctBase):
            out.append(_DISTINCT)
            _write_name(out, source.table, names, intern=False)
            _write_names(out, source.attrs, names)
        elif isinstance(source, LiteralBase):
            out.append(_LITERAL)
            _write_names(out, source.key, names)
            block = serialize.encode_relation(source.relation)
            _write_varint(out, len(block))
            out += block
        else:
            raise ProtocolError(f"a base source has no wire form: {source!r}")
    if "query_id" in control:
        _write_scalar(out, control["query_id"])
    if "compute_delay_s" in control:
        out += _F64.pack(control["compute_delay_s"])
    if "since" in control:
        _write_varint(out, control["since"])
    return bytes(out)


def _write_names(out: bytearray, names_out, names: dict) -> None:
    _write_varint(out, len(names_out))
    for name in names_out:
        _write_name(out, name, names, intern=False)


def decode_control(data: bytes) -> dict:
    """The fields :func:`encode_control` wrote: ``kind``, ``round_number``
    and each optional field sent (a boolean only when true)."""
    return _decoded(data, "a REQ's control", _Reader.control)


# -- REPLY meta and ERROR -----------------------------------------------------------

#: Counters a reply names by index (any other is written by name).
COUNTER_NAMES = (
    "gmdj.tuples_examined",
    "gmdj.tuples_emitted",
    "site.round_state_hits",
    "site.rows_derived",
)
_COUNTER_IDS = {name: index + 1 for index, name in enumerate(COUNTER_NAMES)}


def encode_meta(rows: int, compute_s: float, counters: dict, spans=()) -> bytes:
    """A REPLY's meta; ``spans`` (span dicts) are sent only when there are any."""
    try:
        return _encode_meta(rows, compute_s, counters, spans)
    except (ReproError, TypeError, ValueError, struct.error) as error:
        raise ProtocolError(f"a reply has no wire form: {error}") from None


def _encode_meta(rows: int, compute_s: float, counters: dict, spans) -> bytes:
    out = bytearray()
    _write_varint(out, rows)
    out += _F64.pack(compute_s)
    _write_varint(out, 2 * len(counters) + bool(spans))
    for name, value in counters.items():
        index = _COUNTER_IDS.get(name)
        if index is None:
            out.append(0)
            _write_string(out, name)
        else:
            _write_varint(out, index)
        _write_varint(out, operator.index(value))
    if spans:
        _write_string(out, json.dumps(list(spans), separators=(",", ":")))
    return bytes(out)


def decode_meta(data: bytes) -> dict:
    """``{"rows", "compute_s", "spans", "counters"}`` of a REPLY's meta."""
    return _decoded(data, "a REPLY's meta", _Reader.meta)


def encode_error(name: str, message: str) -> bytes:
    out = bytearray()
    _write_string(out, name)
    return bytes(out) + message.encode("utf-8", "replace")


def decode_error(data: bytes) -> tuple:
    """``(class name, message)`` of an ERROR body."""
    return _decoded(data, "an ERROR body", _Reader.error)


# -- decoding -----------------------------------------------------------------------


def _decoded(data: bytes, what: str, read):
    """``read`` a whole body of ``data``; anything wrong is a ProtocolError."""
    reader = _Reader(data)
    try:
        value = read(reader)
        if reader.offset != len(data):
            raise ProtocolError(f"{len(data) - reader.offset} trailing bytes")
    except ProtocolError as error:
        raise ProtocolError(f"{what} is malformed: {error}") from None
    except Exception as error:  # noqa: BLE001 - a constructor refused the bytes
        raise ProtocolError(
            f"{what} is malformed: {type(error).__name__}: {error}"
        ) from None
    return value


class _Reader:
    """A cursor over one untrusted body."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def byte(self) -> int:
        if self.offset >= len(self.data):
            raise ProtocolError("truncated")
        self.offset += 1
        return self.data[self.offset - 1]

    def varint(self) -> int:
        value, self.offset = _read_varint(self.data, self.offset)
        return value

    def count(self) -> int:
        """A count of items of at least one byte each, or a byte length."""
        value = self.varint()
        if value > len(self.data) - self.offset:
            raise ProtocolError(f"a count of {value} is past the bytes left")
        return value

    def raw(self, length: int) -> bytes:
        end = self.offset + length
        if end > len(self.data):
            raise ProtocolError("truncated")
        chunk, self.offset = self.data[self.offset:end], end
        return chunk

    def string(self) -> str:
        return self.raw(self.count()).decode("utf-8")

    def f64(self) -> float:
        return _F64.unpack(self.raw(8))[0]

    def name(self, table: tuple) -> str:
        index = self.varint()
        if not index:
            return self.string()
        if index > len(table):
            raise ProtocolError(f"name {index} is past a table of {len(table)}")
        return table[index - 1]

    def names(self, table: tuple) -> tuple:
        return tuple(self.name(table) for _ in range(self.count()))

    def scalar(self, tag=None):
        tag = self.byte() if tag is None else tag
        if tag == _NULL:
            return None
        if tag == _INT:
            return _unzigzag(self.varint())
        if tag == _FLOAT:
            return self.f64()
        if tag == _STR:
            return self.string()
        if tag in (_FALSE, _TRUE):
            return tag == _TRUE
        if tag == _DATE:
            return datetime.date.fromordinal(self.varint())
        raise ProtocolError(f"unknown scalar tag {tag}")

    def expr(self, table: tuple, depth: int = 0):
        if depth >= MAX_EXPR_DEPTH:
            raise ProtocolError(f"an expression nested past {MAX_EXPR_DEPTH} levels")
        tag = self.byte()
        if tag <= _DATE:
            return Const(self.scalar(tag))
        if tag in _TAG_RELVARS:
            return Field(self.name(table), _TAG_RELVARS[tag])
        if tag == _OTHER_RELVAR:
            relvar = self.name(table)
            return Field(self.name(table), relvar)
        if tag == _IN_SET:
            operand = self.expr(table, depth + 1)
            return InSet(operand, [self.scalar() for _ in range(self.count())])
        node = _TAG_NODES.get(tag)
        if node is None:
            raise ProtocolError(f"unknown expression tag {tag}")
        kind, op = node
        children = [self.expr(table, depth + 1) for _ in range(_ARITY[kind])]
        return kind(*children) if op is None else kind(op, *children)

    def steps(self) -> tuple:
        """``(table, steps)`` of a steps section: decoded once per distinct bytes."""
        section = self.raw(self.count())
        cached = _DECODED.get(section)
        if cached is None:
            cached = _decoded(section, "a steps section", _Reader._steps)
            if len(section) <= MEMO_SECTION_BYTES:
                _memo(_DECODED, section, cached)
        return cached

    def _steps(self) -> tuple:
        table = tuple(self.string() for _ in range(self.count()))
        steps = []
        for _step in range(self.count()):
            detail = self.name(table)
            blocks = []
            for _block in range(self.count()):
                aggregates = []
                for _aggregate in range(self.count()):
                    func = self.name(table)
                    input_expr = None
                    if self.byte() != _NO_INPUT:
                        self.offset -= 1
                        input_expr = self.expr(table)
                    aggregates.append(AggSpec(func, input_expr, self.name(table)))
                blocks.append(MDBlock(aggregates, self.expr(table)))
            steps.append(MDStep(detail, blocks))
        return table, tuple(steps)

    def control(self) -> dict:
        kind = self.byte()
        if kind >= len(_KINDS):
            raise ProtocolError(f"unknown request kind code {kind}")
        control = {"kind": _KINDS[kind], "round_number": self.varint()}
        flags = self.varint()
        if flags & ~_ALL_FLAGS:
            raise ProtocolError(f"unknown flag bits {flags & ~_ALL_FLAGS:#x}")
        sent = {name for name, bit in _FIELD_BITS.items() if flags & bit}
        table = ()
        if "steps" in sent:
            table, control["steps"] = self.steps()
        if "key_attrs" in sent:
            control["key_attrs"] = self.names(table)
        if "source" in sent:
            form = self.byte()
            if form == _DISTINCT:
                control["source"] = DistinctBase(self.name(table), self.names(table))
            elif form == _LITERAL:
                key = self.names(table)
                relation = serialize.decode_relation(self.raw(self.count()))
                control["source"] = LiteralBase(relation, key)
            else:
                raise ProtocolError(f"unknown base source form {form}")
        if "query_id" in sent:
            control["query_id"] = self.scalar()
        if "compute_delay_s" in sent:
            control["compute_delay_s"] = self.f64()
        if "since" in sent:
            control["since"] = self.varint()
        for name in _BOOLEANS & sent:
            control[name] = True
        return control

    def meta(self) -> dict:
        rows = self.varint()
        compute_s = self.f64()
        head = self.count()
        counters = {}
        for _counter in range(head // 2):
            index = self.varint()
            if not index:
                name = self.string()
            elif index <= len(COUNTER_NAMES):
                name = COUNTER_NAMES[index - 1]
            else:
                raise ProtocolError(f"unknown counter id {index}")
            counters[name] = self.varint()
        spans = _spans(json.loads(self.string())) if head & 1 else ()
        return {"rows": rows, "compute_s": compute_s, "spans": spans, "counters": counters}

    def error(self) -> tuple:
        name = self.string()
        return name, self.raw(len(self.data) - self.offset).decode("utf-8")


def _spans(value) -> tuple:
    """Shipped spans, checked for what replaying them reads."""
    if not isinstance(value, list):
        raise ProtocolError("spans are not a list")
    for span in value:
        if not (
            isinstance(span, dict)
            and isinstance(span.get("name"), str)
            and isinstance(span.get("kind"), str)
            and "span_id" in span
            and "parent_id" in span
            and _is_number(span.get("start_s"))
            and (span.get("end_s") is None or _is_number(span["end_s"]))
            and isinstance(span.get("attributes"), dict)
        ):
            raise ProtocolError(f"a span is malformed: {span!r:.80}")
    return tuple(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
