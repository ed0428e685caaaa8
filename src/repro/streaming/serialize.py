"""Tuple serialization: a compact, self-describing binary codec.

Serialization is *the* cost the paper's broadcast optimization removes
(it cites 60–90 % of transfer time), so this reproduction serializes for
real: tuple values are encoded to actual bytes with a type-tagged format
(None, bool, int, float, str, bytes, list, dict) and decoded back. The
virtual-time cost of each encode/decode is derived from the resulting
byte count via the :class:`~repro.sim.costs.CostModel`.

The wire format is deliberately simple (length-prefixed, big-endian) — a
stand-in for Kryo/Java serialization in Storm — but the implementation
is the repo's hottest real (wall-clock) path, so it is tuned for CPython
(see DESIGN.md §5d for the measurements behind each choice):

* **encode** appends into one growing ``bytearray``: tag + fixed-width
  field pairs are reserved from preallocated zero-pad singletons and
  written in a single ``Struct.pack_into`` call (``!Bq``-style combined
  structs) — no per-value ``bytes([tag]) + packed`` temporaries, no
  final ``join`` pass, and ``Struct.pack`` is never called (locked by an
  allocation-regression test);
* **decode** walks one flat buffer with the dispatch chain ordered by
  observed tag frequency and the struct readers bound as default
  arguments; each str/bytes payload is materialized from exactly one
  slice of the input, with no intermediate temporaries. Truncation is
  detected by the buffer reads themselves rather than a per-value bounds
  check. (An all-``memoryview`` decoder was prototyped and benchmarked
  *slower*: CPython's memoryview slice objects cost more than the small
  copies they avoid — see §5d.)
* **both directions batch**: values are encoded/decoded in runs
  (``_encode_many``/``_decode_many``), so scalars cost zero Python
  function calls — the codec recurses only for nested containers, and
  calls out only for the cold records (a str cache miss, a big int, an
  envelope cache miss), each written by one helper. ``_encode_many`` is
  the one per-record value writer: both per-tuple encoders run it, and
  it reports fast-lane eligibility as it writes.
* **trains in both directions**: :func:`encode_train` writes a whole
  batch as one length-prefixed buffer, and :func:`decode_train` decodes
  a whole MULTI payload in one call. A fixed-stride train (every record
  one layout: same stamps, value tags and str/bytes lengths) is
  unpacked by one compiled ``struct`` format per record layout and
  built column by column, with no per-value Python walk; any other
  train is decoded in place, record after record, without slicing any
  record out of it.

The byte layout is unchanged — encode/decode are byte-for-byte
compatible with the pre-optimization codec, including the optional
anchor/trace trailing fields (locked by the golden-bytes tests).
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from ..core.packets import _RECORD_LEN, record_bounds
from ..sim.costs import CostModel
from .tuples import Anchor, StreamTuple

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_BIGINT = 0x09  # ints outside the signed-64 range (e.g. 64-bit ack ids)

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: Combined tag+field structs: one ``pack_into`` writes the tag byte and
#: the big-endian field together (network byte order has no padding, so
#: ``!Bq`` lays out identically to a tag byte followed by ``!q``).
_TAG_I64 = struct.Struct("!Bq")    # tag + i64
_TAG_F64 = struct.Struct("!Bd")    # tag + f64
_TAG_U32 = struct.Struct("!BI")    # tag + u32 (str/bytes/list/dict headers)
_BIGINT_HEAD = struct.Struct("!BBI")  # tag + sign + u32 length

# Tuple envelope:
#   stream(2) src_worker(4-signed) flags(1) nvalues(2) [anchor 16] [trace 8]
_ENVELOPE = struct.Struct("!HiBH")
_ANCHOR = struct.Struct("!QQ")
_TRACE = struct.Struct("!Q")
_FLAG_ANCHORED = 0x01
#: Set when the tuple was sampled by the tracer; an 8-byte trace id
#: follows the (optional) anchor. Unsampled tuples carry neither the
#: flag nor the bytes, so wire traffic is unchanged when tracing is off.
_FLAG_TRACED = 0x02
#: Set when the tuple carries a replication sequencing stamp: a 4-byte
#: epoch plus an 8-byte sequence number follow the (optional) anchor and
#: trace fields. Placed last so :func:`peek_trace_id` offsets are
#: unchanged; non-replicated tuples carry neither the flag nor the
#: bytes, so wire traffic is byte-identical when replication is off.
_FLAG_SEQUENCED = 0x04
_SEQ = struct.Struct("!IQ")

#: Preallocated zero padding, extended into the output buffer to
#: reserve room for a tag byte plus a fixed-width field, which is then
#: filled in place with ``pack_into`` — one shared singleton per field
#: shape instead of a fresh ``bytes`` temporary per value.
_PAD_TAG_U32 = bytes(_TAG_U32.size)
_PAD_TAG_I64 = bytes(_TAG_I64.size)
_PAD_BIGINT_HEAD = bytes(_BIGINT_HEAD.size)
_PAD_ENVELOPE = bytes(_ENVELOPE.size)
_PAD_ANCHOR = bytes(_ANCHOR.size)
_PAD_TRACE = bytes(_TRACE.size)
_PAD_SEQ = bytes(_SEQ.size)

#: Zero length prefix reserved ahead of each :func:`encode_train`
#: record and patched once the record's size is known (the packets
#: layer's MULTI record framing, ``u32 len | record``).
_PAD_RECORD_LEN = bytes(_RECORD_LEN.size)


class SerializationError(ValueError):
    """Raised when a value cannot be encoded or bytes cannot be decoded."""


#: Memoized envelope headers keyed by (stream, source_worker, flags,
#: nvalues). Real streams reuse a handful of envelope shapes, so the 9
#: header bytes are a dict hit instead of a pack_into; byte output is
#: unchanged. Bounded: cleared wholesale if an app somehow produces
#: thousands of distinct shapes.
_ENVELOPE_CACHE: dict = {}
_ENVELOPE_CACHE_MAX = 1024

#: Memoized ``length-prefix pad + envelope head`` byte strings for
#: :func:`encode_train`, so the per-record preamble is one bytearray
#: extend instead of two. Separate from :data:`_ENVELOPE_CACHE` (which
#: stores bare heads for the per-tuple encoders); same bound.
_TRAIN_HEAD_CACHE: dict = {}

#: Memoized str value records (tag + u32 length + utf-8 bytes). Workloads
#: re-send the same strings constantly (fixed payloads, word vocabularies),
#: and str objects cache their own hash, so the lookup is near-free.
#: Long strings are not cached to bound memory.
_STR_RECORD_CACHE: dict = {}
_STR_RECORD_CACHE_MAX = 4096
_STR_CACHE_LEN_LIMIT = 256


#: Exact value types the transport's same-process fast lane may share
#: by reference instead of re-decoding: immutable scalars only
#: (``bytearray`` is scalar-encodable but mutable, so it is excluded).
SCALAR_TYPES = frozenset((str, int, float, bytes, bool, type(None)))

#: Base-type readers for scalar subclasses (``IntEnum``, a ``str``
#: ``Enum``, …) and ``bytearray``: each copies the value's own data into
#: the exact base type through the base type's slot (bytes-likes through
#: the buffer protocol), so an override such as ``__str__`` or
#: ``__bytes__`` cannot change the bytes.
_SCALAR_BASES = ((int, int.__int__), (float, float.__float__),
                 (str, str.__str__),
                 ((bytes, bytearray), lambda value: bytes(memoryview(value))))


def _put_str(out: bytearray, value: str,
             _pack_u32=_TAG_U32.pack_into, _len=len) -> None:
    """Write the str record (tag + u32 length + utf-8 bytes) for a
    :data:`_STR_RECORD_CACHE` miss, and cache it unless the string is
    longer than :data:`_STR_CACHE_LEN_LIMIT` characters."""
    data = value.encode("utf-8")
    pos = _len(out)
    out += _PAD_TAG_U32
    _pack_u32(out, pos, _T_STR, _len(data))
    out += data
    if _len(value) <= _STR_CACHE_LEN_LIMIT:
        if _len(_STR_RECORD_CACHE) >= _STR_RECORD_CACHE_MAX:
            _STR_RECORD_CACHE.clear()
        _STR_RECORD_CACHE[value] = bytes(out[pos:])


def _put_bigint(out: bytearray, value: int) -> None:
    """Write the record for an int outside the signed-64 range: tag,
    sign byte, u32 length, big-endian magnitude."""
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8, "big",
                              signed=False)
    pos = len(out)
    out += _PAD_BIGINT_HEAD
    _BIGINT_HEAD.pack_into(out, pos, _T_BIGINT, 1 if value < 0 else 0,
                           len(body))
    out += body


def _envelope_head(cache: dict, key, prefix: bytes, stream: int, src: int,
                   flags: int, nvalues: int) -> bytes:
    """Pack ``prefix`` + the 9-byte envelope head for a cache miss and
    memoize it in ``cache`` under ``key`` (cleared wholesale at
    :data:`_ENVELOPE_CACHE_MAX` entries)."""
    head = bytearray(_PAD_ENVELOPE)
    _ENVELOPE.pack_into(head, 0, stream, src, flags, nvalues)
    head = prefix + bytes(head)
    if len(cache) >= _ENVELOPE_CACHE_MAX:
        cache.clear()
    cache[key] = head
    return head


def _encode_many(values, out: bytearray,
                 _pack_i64=_TAG_I64.pack_into,
                 _pack_f64=_TAG_F64.pack_into,
                 _pack_u32=_TAG_U32.pack_into,
                 _len=len, _type=type, _isinstance=isinstance) -> bool:
    """The one per-record value writer: encode a run of values and
    return whether every value's exact type is in :data:`SCALAR_TYPES`
    (the fast-lane eligibility test).

    Exact-type scalars dispatch in observed frequency order and cost no
    Python function call, except the cold records (a str cache miss, a
    big int). Containers recurse, and scalar subclasses and
    ``bytearray`` are written as their base type, so the accepted type
    set and the bytes match the pre-optimization ``isinstance``
    encoder."""
    scalar = True
    for value in values:
        kind = _type(value)
        if kind is str:
            record = _STR_RECORD_CACHE.get(value)
            if record is not None:
                out += record
            else:
                _put_str(out, value)
        elif kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                pos = _len(out)
                out += _PAD_TAG_I64
                _pack_i64(out, pos, _T_INT, value)
            else:
                _put_bigint(out, value)
        elif kind is float:
            pos = _len(out)
            out += _PAD_TAG_I64
            _pack_f64(out, pos, _T_FLOAT, value)
        elif value is None:
            out.append(_T_NONE)
        elif kind is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif kind is bytes:
            pos = _len(out)
            out += _PAD_TAG_U32
            _pack_u32(out, pos, _T_BYTES, _len(value))
            out += value
        else:
            scalar = False
            if _isinstance(value, (list, tuple)):
                pos = _len(out)
                out += _PAD_TAG_U32
                _pack_u32(out, pos, _T_LIST, _len(value))
                _encode_many(value, out)
            elif _isinstance(value, dict):
                pos = _len(out)
                out += _PAD_TAG_U32
                _pack_u32(out, pos, _T_DICT, _len(value))
                for key, item in value.items():
                    _encode_many((key, item), out)
            else:
                for base, read in _SCALAR_BASES:
                    if _isinstance(value, base):
                        _encode_many((read(value),), out)
                        break
                else:
                    raise SerializationError(
                        "cannot serialize %r of type %s"
                        % (value, kind.__name__))
    return scalar


def _decode_many(data: bytes, offset: int, count: int, out,
                 _unpack_u32=_U32.unpack_from,
                 _unpack_i64=_I64.unpack_from,
                 _unpack_f64=_F64.unpack_from,
                 _from_bytes=int.from_bytes) -> int:
    """Decode ``count`` values from a flat ``bytes`` buffer, appending
    them to ``out``; returns the new offset.

    Scalars cost zero Python function calls (recursion only for
    containers) and the dispatch chain is ordered by observed tag
    frequency (str and int dominate real streams). There is no
    per-value bounds check: a truncated buffer surfaces as
    ``IndexError``/``struct.error`` from the reads themselves, which
    :func:`decode_tuple` converts."""
    append = out.append
    for _ in range(count):
        tag = data[offset]
        offset += 1
        if tag == _T_STR:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            append(data[offset:end].decode("utf-8"))
            offset = end
            continue
        if tag == _T_INT:
            (value,) = _unpack_i64(data, offset)
            append(value)
            offset += 8
            continue
        if tag == _T_NONE:
            append(None)
            continue
        if tag == _T_TRUE:
            append(True)
            continue
        if tag == _T_FALSE:
            append(False)
            continue
        if tag == _T_FLOAT:
            (value,) = _unpack_f64(data, offset)
            append(value)
            offset += 8
            continue
        if tag == _T_LIST:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            items = []
            offset = _decode_many(data, offset, length, items)
            append(items)
            continue
        if tag == _T_DICT:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            flat = []
            offset = _decode_many(data, offset, length + length, flat)
            pairs = iter(flat)
            append(dict(zip(pairs, pairs)))
            continue
        if tag == _T_BYTES:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            append(data[offset:end])
            offset = end
            continue
        if tag == _T_BIGINT:
            sign = data[offset]
            offset += 1
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            magnitude = _from_bytes(data[offset:end], "big")
            append(-magnitude if sign else magnitude)
            offset = end
            continue
        raise SerializationError("unknown type tag 0x%02x" % tag)
    return offset


def encode_values(values: Tuple[Any, ...]) -> bytes:
    out = bytearray()
    _encode_many(values, out)
    return bytes(out)


def _encode_tuple(stream_tuple: StreamTuple) -> Tuple[bytes, bool]:
    """The per-tuple encoder body: envelope head, then the optional
    anchor/trace/sequencing stamps, then the values. Returns
    ``(encoded, all_scalar)`` as :func:`encode_tuple_scalar` does."""
    anchor = stream_tuple.anchor
    trace_id = stream_tuple.trace_id
    seq = stream_tuple.seq
    values = stream_tuple.values
    flags = _FLAG_ANCHORED if anchor is not None else 0
    if trace_id is not None:
        flags |= _FLAG_TRACED
    if seq is not None:
        flags |= _FLAG_SEQUENCED
    stream = stream_tuple.stream
    src = stream_tuple.source_worker
    nvalues = len(values)
    key = (stream, src, flags, nvalues)
    head = _ENVELOPE_CACHE.get(key)
    if head is None:
        head = _envelope_head(_ENVELOPE_CACHE, key, b"", stream, src, flags,
                              nvalues)
    out = bytearray(head)
    if flags:
        if anchor is not None:
            pos = len(out)
            out += _PAD_ANCHOR
            _ANCHOR.pack_into(out, pos, anchor.root_id, anchor.edge_id)
        if trace_id is not None:
            pos = len(out)
            out += _PAD_TRACE
            _TRACE.pack_into(out, pos, trace_id)
        if seq is not None:
            pos = len(out)
            out += _PAD_SEQ
            _SEQ.pack_into(out, pos, seq[0], seq[1])
    all_scalar = _encode_many(values, out)
    return bytes(out), all_scalar


def encode_tuple(stream_tuple: StreamTuple) -> bytes:
    """Serialize a full tuple (envelope + values) to bytes."""
    return _encode_tuple(stream_tuple)[0]


def encode_tuple_scalar(stream_tuple: StreamTuple) -> Tuple[bytes, bool]:
    """Serialize and classify in one pass: ``(encoded, all_scalar)``.

    ``encoded`` is exactly :func:`encode_tuple`'s bytes; ``all_scalar``
    reports whether every value's exact type is in :data:`SCALAR_TYPES`
    — the transport's fast-lane eligibility test, answered by the value
    writer as it goes. The two public encoders share one body rather
    than calling each other, so a traced run counts each encode once."""
    return _encode_tuple(stream_tuple)


def encode_train(
    stream_tuples,
    _pack_i64=_TAG_I64.pack,
    _pack_f64=_TAG_F64.pack_into,
    _pack_u32=_TAG_U32.pack_into,
    _pack_rec=_RECORD_LEN.pack_into,
    _len=len, _type=type,
):
    """Serialize a whole train of plain tuples into one contiguous,
    length-prefixed buffer in a single pass.

    Returns ``(data, bounds, rlens, ests, objs, stream)``:

    * ``data`` — one ``bytes`` buffer holding every record behind a
      big-endian ``u32`` length prefix, exactly the packets layer's
      MULTI record framing (Fig. 5), so a flush whose batch is one
      train can lift the payload body straight out of ``data`` with a
      single slice. Record ``i``'s prefix starts at ``bounds[i]`` and
      its serialized bytes are ``data[bounds[i] + 4 : bounds[i + 1]]``
      — byte-for-byte what :func:`encode_tuple_scalar` would produce.
    * ``rlens[i]`` — record ``i``'s serialized length (sans prefix),
      precomputed so cost accounting downstream never re-derives it.
    * ``ests`` — cumulative receive-side byte estimates: the store
      sizer's charge for records ``i..j`` is ``ests[j] - ests[i]``
      (80 per tuple + ``len(value)`` for str/bytes values, 8 for other
      scalars — the same integer walk :func:`delivery_bytes` does,
      folded into the type dispatch already happening here; integer
      addition is associative, so slice sums are exact).
    * ``objs`` — ``None`` when every record is fast-lane eligible
      (each value's exact type is in :data:`SCALAR_TYPES`); callers
      then use the input sequence itself, skipping one list build per
      train. Otherwise a list holding the tuple at eligible records
      and ``None`` where a container or subclass value forced a
      generic re-encode.
      ``all_fast`` is simply ``objs is None``.
    * ``stream`` — the one stream id every tuple rides, or ``None``
      when the train mixes streams. Tracked inside the envelope-change
      branch (a stream switch always changes the envelope), so the
      common single-stream train pays nothing per tuple. Receivers use
      it to hand a whole uniform train to a component's batch hook.

    Returns ``None`` outright when any tuple in the train carries an
    anchor, trace or sequencing stamp (checked inline, so the clean
    common case pays no separate scan pass). Those stamps only appear
    when acking, tracing or replication is armed; stamped batches fall
    back to the caller's per-tuple loop.

    The hot value branches (cached str, i64, float, None, bool, bytes)
    are inlined; the cold records — str cache miss, big int, envelope
    cache miss — are written by the same helpers :func:`_encode_many`
    uses.
    """
    buf = bytearray()
    bounds: list = [0]   # record prefix offsets; n+1 entries
    rlens: list = []
    ests: list = [0]     # cumulative delivery-byte estimates; n+1 entries
    objs = None          # materialized lazily on the first slow record
    keep = None
    mark = bounds.append
    keep_len = rlens.append
    keep_est = ests.append
    est = 0
    prev_stream = prev_src = prev_n = None
    train_stream = None
    mixed = False
    head = b""
    for stream_tuple in stream_tuples:
        if stream_tuple.anchor is not None \
                or stream_tuple.trace_id is not None \
                or stream_tuple.seq is not None:
            return None
        values = stream_tuple.values
        stream = stream_tuple.stream
        src = stream_tuple.source_worker
        nvalues = _len(values)
        if stream != prev_stream or src != prev_src or nvalues != prev_n:
            key = (stream, src, nvalues)
            head = _TRAIN_HEAD_CACHE.get(key)
            if head is None:
                head = _envelope_head(_TRAIN_HEAD_CACHE, key,
                                      _PAD_RECORD_LEN, stream, src, 0,
                                      nvalues)
            if train_stream is None:
                train_stream = stream
            elif stream != train_stream:
                mixed = True
            prev_stream = stream
            prev_src = src
            prev_n = nvalues
        start = _len(buf)
        buf += head
        est += 80
        obj = stream_tuple
        for value in values:
            kind = _type(value)
            if kind is str:
                est += _len(value)
                record = _STR_RECORD_CACHE.get(value)
                if record is not None:
                    buf += record
                else:
                    _put_str(buf, value)
            elif kind is int:
                est += 8
                if _I64_MIN <= value <= _I64_MAX:
                    buf += _pack_i64(_T_INT, value)
                else:
                    _put_bigint(buf, value)
            elif kind is float:
                est += 8
                pos = _len(buf)
                buf += _PAD_TAG_I64
                _pack_f64(buf, pos, _T_FLOAT, value)
            elif value is None:
                est += 8
                buf.append(_T_NONE)
            elif kind is bool:
                est += 8
                buf.append(_T_TRUE if value else _T_FALSE)
            elif kind is bytes:
                est += _len(value)
                pos = _len(buf)
                buf += _PAD_TAG_U32
                _pack_u32(buf, pos, _T_BYTES, _len(value))
                buf += value
            else:
                # Container or subclass value mid-record: rewind to just
                # past the length prefix and let the generic encoder redo
                # the one tuple (rare path; not fast-lane eligible). The
                # estimate for this record is moot — a train with any
                # non-fast record never rides the annotation fast lane.
                del buf[start + 4:]
                buf += encode_tuple(stream_tuple)
                if objs is None:
                    # len(rlens) == index of the current record, so the
                    # slice holds exactly the fast records before it.
                    objs = list(stream_tuples[:_len(rlens)])
                    keep = objs.append
                obj = None
                break
        end = _len(buf)
        rlen = end - start - 4
        _pack_rec(buf, start, rlen)
        mark(end)
        keep_len(rlen)
        keep_est(est)
        if objs is not None:
            keep(obj)
    return bytes(buf), bounds, rlens, ests, objs, \
        None if mixed else train_stream


def encode_train_uniform(
    stream_tuples,
    stream,
    src,
    _pack_i64=_TAG_I64.pack,
    _pack_f64=_TAG_F64.pack_into,
    _pack_u32=_TAG_U32.pack_into,
    _pack_rec=_RECORD_LEN.pack_into,
    _len=len, _type=type,
):
    """:func:`encode_train` specialised for a *uniform* batch: every
    tuple shares the one ``(stream, src)`` envelope passed in, and none
    carries an anchor, trace or sequencing stamp. The caller owns that
    contract — the spout fast-sink lane guarantees it by construction
    (one collector emits the whole run on one stream; acking, tracing
    and sequenced edges each disarm the lane before a stamp can ever be
    applied) — which lets this loop drop the per-tuple stamp scan and
    the per-tuple envelope comparisons that :func:`encode_train` must
    keep for arbitrary batches. The emitted bytes and the returned
    ``(data, bounds, rlens, ests, objs, stream)`` are exactly what
    :func:`encode_train` produces for the same tuples. Batches holding
    a container or subclass value delegate to the general walk (which tracks the
    per-record object list this loop omits), so a ``None`` return is
    possible only if the caller's no-stamp pledge was broken — and the
    transports degrade to the per-tuple path in that case anyway.
    """
    buf = bytearray()
    bounds: list = [0]
    rlens: list = []
    ests: list = [0]
    mark = bounds.append
    keep_len = rlens.append
    keep_est = ests.append
    est = 0
    head_cache = _TRAIN_HEAD_CACHE
    prev_n = -1
    head = b""
    # Record starts carry over from the previous record's end — one
    # len() per record instead of two.
    end = 0
    for stream_tuple in stream_tuples:
        values = stream_tuple.values
        nvalues = _len(values)
        if nvalues != prev_n:
            key = (stream, src, nvalues)
            head = head_cache.get(key)
            if head is None:
                head = _envelope_head(head_cache, key, _PAD_RECORD_LEN,
                                      stream, src, 0, nvalues)
            prev_n = nvalues
        start = end
        buf += head
        est += 80
        for value in values:
            kind = _type(value)
            if kind is str:
                est += _len(value)
                record = _STR_RECORD_CACHE.get(value)
                if record is not None:
                    buf += record
                else:
                    _put_str(buf, value)
            elif kind is int:
                est += 8
                if _I64_MIN <= value <= _I64_MAX:
                    buf += _pack_i64(_T_INT, value)
                else:
                    _put_bigint(buf, value)
            elif kind is float:
                est += 8
                pos = _len(buf)
                buf += _PAD_TAG_I64
                _pack_f64(buf, pos, _T_FLOAT, value)
            elif value is None:
                est += 8
                buf.append(_T_NONE)
            elif kind is bool:
                est += 8
                buf.append(_T_TRUE if value else _T_FALSE)
            elif kind is bytes:
                est += _len(value)
                pos = _len(buf)
                buf += _PAD_TAG_U32
                _pack_u32(buf, pos, _T_BYTES, _len(value))
                buf += value
            else:
                # A container or subclass value: the whole batch
                # re-encodes through the general walk, which produces
                # the identical bytes for a uniform batch and tracks the
                # per-record object list this loop deliberately omits.
                # One batch pays double encode work; the hot all-scalar
                # shape pays no objs bookkeeping at all.
                return encode_train(stream_tuples)
        end = _len(buf)
        rlen = end - start - 4
        _pack_rec(buf, start, rlen)
        mark(end)
        keep_len(rlen)
        keep_est(est)
    return bytes(buf), bounds, rlens, ests, None, stream


def decode_tuple(data, source_component: str = "") -> StreamTuple:
    """Inverse of :func:`encode_tuple`; accepts any bytes-like buffer.

    Non-``bytes`` inputs (memoryview, bytearray) are flattened once up
    front so the hot loop runs native ``bytes`` slicing throughout."""
    if len(data) < _ENVELOPE.size:
        raise SerializationError("truncated tuple envelope")
    if type(data) is not bytes:
        data = bytes(data)
    stream, source_worker, flags, nvalues = _ENVELOPE.unpack_from(data, 0)
    offset = _ENVELOPE.size
    values = []
    try:
        anchor = None
        if flags & _FLAG_ANCHORED:
            root_id, edge_id = _ANCHOR.unpack_from(data, offset)
            anchor = Anchor(root_id, edge_id)
            offset += _ANCHOR.size
        trace_id = None
        if flags & _FLAG_TRACED:
            (trace_id,) = _TRACE.unpack_from(data, offset)
            offset += _TRACE.size
        seq = None
        if flags & _FLAG_SEQUENCED:
            seq = _SEQ.unpack_from(data, offset)
            offset += _SEQ.size
        offset = _decode_many(data, offset, nvalues, values)
    except (IndexError, struct.error):
        raise SerializationError("truncated value") from None
    if offset != len(data):
        raise SerializationError("%d trailing bytes after tuple"
                                 % (len(data) - offset))
    return StreamTuple(values=tuple(values), stream=stream,
                       source_component=source_component,
                       source_worker=source_worker, anchor=anchor,
                       trace_id=trace_id, seq=seq)


#: Flag bits the decoders understand; a fixed-stride train carrying any
#: other bit is left to the per-record loop.
_KNOWN_FLAGS = _FLAG_ANCHORED | _FLAG_TRACED | _FLAG_SEQUENCED

#: Record-layout pieces for the fixed-stride decode: the ``struct``
#: format of each scalar tag's body (after its tag byte), and the
#: stamp each flag adds after the envelope, in wire order.
_BODY_FORMAT = {_T_INT: "q", _T_FLOAT: "d", _T_NONE: "", _T_TRUE: "",
                _T_FALSE: ""}
_STAMPS = ((_FLAG_ANCHORED, _ANCHOR), (_FLAG_TRACED, _TRACE),
           (_FLAG_SEQUENCED, _SEQ))

#: Compiled fixed-stride train layouts keyed by ``(flags, shape)``
#: (see :func:`_record_shape`); bounded like :data:`_ENVELOPE_CACHE`.
_LAYOUT_CACHE: dict = {}


def _record_shape(payload, start: int, end: int,
                  _unpack_u32=_U32.unpack_from):
    """``(flags, shape)`` of the record in ``payload[start:end]``, or
    ``None`` when it cannot head a fixed-stride train.

    Walks only the record's header fields: the envelope, the stamp
    flags, then each value's tag, plus the length of a str/bytes value.
    ``shape`` lists the tags, each str/bytes tag followed by its length.
    ``None`` for unknown flag bits, a container or big-int tag, an
    unknown tag, or a record that is not exactly its own length."""
    if end - start < _ENVELOPE.size:
        return None
    _stream, _src, flags, nvalues = _ENVELOPE.unpack_from(payload, start)
    if flags & ~_KNOWN_FLAGS:
        return None
    pos = start + _ENVELOPE.size
    for bit, stamp in _STAMPS:
        if flags & bit:
            pos += stamp.size
    shape = []
    for _ in range(nvalues):
        if pos >= end:
            return None
        tag = payload[pos]
        shape.append(tag)
        if tag == _T_STR or tag == _T_BYTES:
            if pos + 5 > end:
                return None
            (length,) = _unpack_u32(payload, pos + 1)
            shape.append(length)
            pos += 5 + length
        elif tag == _T_INT or tag == _T_FLOAT:
            pos += 9
        elif tag in _BODY_FORMAT:
            pos += 1
        else:
            return None
    if pos != end:
        return None
    return flags, tuple(shape)


def _compile_layout(flags: int, shape: tuple):
    """Compile one fixed-stride record layout: ``(iter_unpack, const,
    plan)``. ``iter_unpack`` reads one whole record, length prefix
    included, per row. ``const`` lists the columns every record must
    share with the first (length prefix, flags, nvalues, every
    non-bool tag and every str/bytes length). ``plan`` has one
    ``(tag, column)`` entry per value: ``column`` is the tag's own
    column, the value's body (if any) following it."""
    parts = ["!I", _ENVELOPE.format.lstrip("!")]
    column = 5    # prefix, stream, source worker, flags, nvalues
    for bit, stamp in _STAMPS:
        if flags & bit:
            fmt = stamp.format.lstrip("!")
            parts.append(fmt)
            column += len(fmt)
    const = [0, 3, 4]
    plan = []
    shape = iter(shape)
    for tag in shape:
        plan.append((tag, column))
        if tag != _T_TRUE and tag != _T_FALSE:
            const.append(column)
        if tag == _T_STR or tag == _T_BYTES:
            parts.append("BI%ds" % next(shape))
            const.append(column + 1)
            column += 3
        else:
            body = _BODY_FORMAT[tag]
            parts.append("B" + body)
            column += 1 + len(body)
    return struct.Struct("".join(parts)).iter_unpack, tuple(const), \
        tuple(plan)


def _decode_uniform(payload, offset: int, count: int,
                    _unpack_len=_RECORD_LEN.unpack_from,
                    _new=StreamTuple.__new__, _len=len):
    """:func:`decode_train`'s fixed-stride path: its result for a train
    of ``count`` records that all share one layout, or ``None`` to hand
    the train to the per-record loop.

    The layout is read from record 0's header (:func:`_record_shape`)
    and compiled once into a ``struct`` format covering a whole record.
    Every record is unpacked by that one format and the rows are
    transposed into columns; the train qualifies only if the columns
    that fix the layout are the same in every record (a bool tag may be
    TRUE or FALSE in each), so each record decodes exactly as the loop
    would decode it alone. A train that does not qualify, or holds
    invalid UTF-8, returns ``None`` and the loop decides what to
    return or raise."""
    size = _len(payload)
    start = offset + 4
    if start > size:
        return None
    rlen = _unpack_len(payload, offset)[0]
    if count * (rlen + 4) != size - offset:
        return None
    key = _record_shape(payload, start, start + rlen)
    if key is None:
        return None
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = _compile_layout(*key)
        if _len(_LAYOUT_CACHE) >= _ENVELOPE_CACHE_MAX:
            _LAYOUT_CACHE.clear()
        _LAYOUT_CACHE[key] = layout
    iter_unpack, const, plan = layout
    cols = list(zip(*iter_unpack(memoryview(payload)[offset:])))
    for column in const:
        col = cols[column]
        if col.count(col[0]) != count:
            return None
    est = 80 * count
    columns = []    # one per value
    for tag, column in plan:
        if tag == _T_STR:
            col = cols[column + 2]
            first = col[0]
            try:
                if col.count(first) == count:
                    text = first.decode("utf-8")
                    col = (text,) * count
                    est += _len(text) * count
                else:
                    col = [data.decode("utf-8") for data in col]
                    est += sum(map(_len, col))
            except UnicodeDecodeError:
                return None
        elif tag == _T_BYTES:
            col = cols[column + 2]
            est += _len(col[0]) * count
        elif tag == _T_INT or tag == _T_FLOAT:
            col = cols[column + 1]
            est += 8 * count
        elif tag == _T_NONE:
            col = (None,) * count
            est += 8 * count
        else:
            col = cols[column]
            if col.count(_T_TRUE) + col.count(_T_FALSE) != count:
                return None
            col = [bit == _T_TRUE for bit in col]
            est += 8 * count
        columns.append(col)
    rows = zip(*columns) if columns else ((),) * count
    flags = cols[3][0]
    anchors = traces = seqs = (None,) * count
    field = 5    # the first stamp column
    if flags & _FLAG_ANCHORED:
        anchors = list(map(Anchor, cols[5], cols[6]))
        field = 7
    if flags & _FLAG_TRACED:
        traces = cols[field]
        field += 1
    if flags & _FLAG_SEQUENCED:
        seqs = list(zip(cols[field], cols[field + 1]))
    streams = cols[1]
    tuples: list = []
    add = tuples.append
    for values, stream, src, anchor, trace_id, seq in zip(
            rows, streams, cols[2], anchors, traces, seqs):
        out = _new(StreamTuple)
        out.values = values
        out.stream = stream
        out.source_component = ""
        out.source_worker = src
        out.anchor = anchor
        out.trace_id = trace_id
        out.seq = seq
        add(out)
    stream = streams[0]
    if streams.count(stream) != count:
        stream = None
    return tuples, [rlen] * count, est, stream


def decode_train(
    payload,
    offset: int,
    count: int,
    _unpack_env=_ENVELOPE.unpack_from,
    _unpack_anchor=_ANCHOR.unpack_from,
    _unpack_trace=_TRACE.unpack_from,
    _unpack_seq=_SEQ.unpack_from,
    _new=StreamTuple.__new__,
    _len=len, _type=type, _tuple=tuple,
):
    """Decode ``count`` MULTI records starting at ``offset`` of a frame
    payload in one pass — the receive-side inverse of
    :func:`encode_train`.

    Returns ``(tuples, rlens, est, stream)``:

    * ``tuples`` — the decoded tuples, each exactly what
      :func:`decode_tuple` builds from that record's bytes;
    * ``rlens[i]`` — record ``i``'s serialized length (sans prefix);
    * ``est`` — the store sizer's byte charge for the batch, equal to
      :func:`repro.streaming.transport.delivery_bytes` over ``tuples``
      (80 per tuple + ``len(value)`` for str/bytes values, 8 for the
      rest; decoded values have exact types, so the exact-type test
      matches the sizer's ``isinstance`` test);
    * ``stream`` — the one stream id every tuple rides, or ``None``
      when the records mix streams (or there are none).

    A train of two or more records that all share record 0's layout
    (length, stamp flags, value tags and str/bytes lengths; a bool may
    be True or False in each) is decoded by :func:`_decode_uniform`:
    one compiled ``struct`` pass over every record, then the values
    column by column. That path validates the framing itself (the
    records tile the payload at one stride with equal length
    prefixes). Any other train, including one holding a container, a
    big int, unknown flag bits or invalid UTF-8, takes the loop below.

    The loop checks the framing with
    :func:`repro.core.packets.record_bounds` (a
    :class:`~repro.core.packets.PacketError` for a truncated length, a
    truncated body or trailing payload bytes) before any record is
    decoded. Each record is then decoded in place, with no per-record
    slice. A record that does not decode to exactly its own bytes (a
    short envelope, a truncated value, trailing bytes, an unknown tag)
    is decoded again on its own by :func:`decode_tuple`, so it raises
    exactly the error a per-record decode raises. Both paths return
    the same value for every payload the fixed-stride path accepts.
    """
    if count >= 2:
        decoded = _decode_uniform(payload, offset, count)
        if decoded is not None:
            return decoded
    bounds = record_bounds(payload, offset, count)
    if _type(payload) is not bytes:
        payload = bytes(payload)
    tuples: list = []
    rlens: list = []
    add = tuples.append
    keep_len = rlens.append
    est = 0
    train_stream = None
    mixed = False
    end = bounds[0]
    for i in range(1, count + 1):
        start = end + 4
        end = bounds[i]
        anchor = trace_id = seq = None
        values: list = []
        pos = -1
        if end - start >= 9:    # _ENVELOPE.size
            stream, source_worker, flags, nvalues = _unpack_env(payload,
                                                                start)
            try:
                pos = start + 9
                if flags:
                    if flags & _FLAG_ANCHORED:
                        anchor = Anchor(*_unpack_anchor(payload, pos))
                        pos += 16
                    if flags & _FLAG_TRACED:
                        (trace_id,) = _unpack_trace(payload, pos)
                        pos += 8
                    if flags & _FLAG_SEQUENCED:
                        seq = _unpack_seq(payload, pos)
                        pos += 12
                pos = _decode_many(payload, pos, nvalues, values)
            except (IndexError, ValueError, struct.error):
                pos = -1
        if pos != end:
            # Malformed record (reads past its end, stops short of it,
            # or fails inside it): the lone decode raises the exact
            # error a per-record receive would.
            decode_tuple(payload[start:end])
            raise SerializationError("record %d is malformed" % (i - 1))
        out = _new(StreamTuple)
        values = _tuple(values)
        out.values = values
        out.stream = stream
        out.source_component = ""
        out.source_worker = source_worker
        out.anchor = anchor
        out.trace_id = trace_id
        out.seq = seq
        add(out)
        keep_len(end - start)
        est += 80
        for value in values:
            kind = _type(value)
            if kind is str or kind is bytes:
                est += _len(value)
            else:
                est += 8
        if train_stream is None:
            train_stream = stream
        elif stream != train_stream:
            mixed = True
    return tuples, rlens, est, None if mixed else train_stream


def peek_trace_id(data) -> Optional[int]:
    """Trace id carried by serialized tuple bytes, without full decoding.

    Tolerates truncation (fragment head chunks carry at least the fixed
    header: envelope 9 + anchor 16 + trace 8 = 33 bytes in the worst
    case, well under any MTU, but be defensive anyway)."""
    if len(data) < _ENVELOPE.size:
        return None
    _stream, _src, flags, _nvalues = _ENVELOPE.unpack_from(data, 0)
    if not flags & _FLAG_TRACED:
        return None
    offset = _ENVELOPE.size
    if flags & _FLAG_ANCHORED:
        offset += _ANCHOR.size
    if len(data) < offset + _TRACE.size:
        return None
    (trace_id,) = _TRACE.unpack_from(data, offset)
    return trace_id


# -- cost helpers ----------------------------------------------------------------


def serialize_cost(costs: CostModel, nbytes: int) -> float:
    return costs.serialize_per_tuple + nbytes * costs.serialize_per_byte


def deserialize_cost(costs: CostModel, nbytes: int) -> float:
    return costs.deserialize_per_tuple + nbytes * costs.deserialize_per_byte
