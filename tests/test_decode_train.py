"""Property and error-parity tests for the one-pass MULTI decoder.

:func:`decode_train` must be indistinguishable from the per-record
receive it replaces — :func:`unpack_payload` followed by
:func:`decode_tuple` on every record, then :func:`delivery_bytes` over
the result — on every well-formed payload, and must raise the same
exception (class and message) on every malformed one.
"""

import random
import struct

import pytest

from repro.core.packets import (
    MULTI_HEAD_SIZE,
    PacketError,
    multi_count,
    pack_tuples,
    unpack_payload,
)
from repro.streaming.serialize import (
    SerializationError,
    _decode_uniform,
    decode_train,
    decode_tuple,
    encode_tuple,
)
from repro.streaming.transport import Delivery, delivery_bytes
from repro.streaming.tuples import Anchor, StreamTuple

_WORDS = ["", "a", "typhoon", "東京", "straße", "naïve", "🌀 storm", "x" * 300]


def _scalar(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == 3:
        magnitude = 2 ** rng.randrange(64, 200) + rng.randrange(1000)
        return -magnitude if rng.random() < 0.5 else magnitude
    if kind == 4:
        return rng.uniform(-1e12, 1e12)
    if kind == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
    return rng.choice(_WORDS)


def _value(rng, depth=0):
    kind = rng.randrange(10)
    if depth < 2 and kind == 0:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if depth < 2 and kind == 1:
        return {rng.choice(_WORDS): _value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return _scalar(rng)


def _tuple(rng, stream):
    values = tuple(_value(rng) for _ in range(rng.randrange(6)))
    anchor = (Anchor(rng.getrandbits(64), rng.getrandbits(64))
              if rng.random() < 0.3 else None)
    trace_id = rng.getrandbits(64) if rng.random() < 0.3 else None
    seq = ((rng.getrandbits(32), rng.getrandbits(64))
           if rng.random() < 0.3 else None)
    return StreamTuple(values, stream=stream,
                       source_worker=rng.randrange(-1, 2 ** 31),
                       anchor=anchor, trace_id=trace_id, seq=seq)


def _payload(tuples):
    payloads, _ = pack_tuples([encode_tuple(t) for t in tuples], 1 << 24)
    assert len(payloads) == 1
    return payloads[0]


def _records(*records):
    """A MULTI payload built by hand, so framing can be made malformed."""
    body = b"".join(struct.pack("!I", len(r)) + r for r in records)
    return struct.pack("!BH", 0, len(records)) + body


def _per_record(payload):
    return [decode_tuple(record) for record in unpack_payload(payload)]


@pytest.mark.parametrize("seed", range(40))
def test_decode_train_matches_per_record_decode(seed):
    rng = random.Random(seed)
    mixed = seed % 2 == 1
    streams = [rng.randrange(2 ** 16) for _ in range(3)]
    count = rng.randrange(1, 60)
    tuples = [_tuple(rng, rng.choice(streams) if mixed else streams[0])
              for _ in range(count)]
    if mixed:
        tuples[-1].stream = streams[0] ^ 1   # at least two streams
    payload = _payload(tuples)
    assert multi_count(payload) == count

    decoded, rlens, est, stream = decode_train(payload, MULTI_HEAD_SIZE,
                                               count)

    reference = _per_record(payload)
    assert decoded == reference == tuples
    assert all(type(t.values) is tuple for t in decoded)
    assert rlens == [len(record) for record in unpack_payload(payload)]
    assert est == delivery_bytes(Delivery(tuples=reference))
    assert stream == (None if mixed else streams[0])


def test_decode_train_empty_and_zero_value_tuples():
    assert decode_train(_records(), MULTI_HEAD_SIZE, 0) == ([], [], 0, None)
    tuples = [StreamTuple((), stream=5, source_worker=6)] * 3
    decoded, rlens, est, stream = decode_train(_payload(tuples),
                                               MULTI_HEAD_SIZE, 3)
    assert decoded == tuples
    assert rlens == [9, 9, 9]
    assert est == 240
    assert stream == 5


def test_decode_train_accepts_bytes_like_payloads():
    tuples = [StreamTuple(("w", i), stream=2, source_worker=1)
              for i in range(5)]
    payload = _payload(tuples)
    expected = decode_train(payload, MULTI_HEAD_SIZE, 5)
    for view in (bytearray(payload), memoryview(payload)):
        assert decode_train(view, MULTI_HEAD_SIZE, 5) == expected


# -- malformed payloads ----------------------------------------------------------


_GOOD = encode_tuple(StreamTuple(("word", 7), stream=0, source_worker=2))
_BAD_TAG = _GOOD[:9] + b"\xee" + _GOOD[10:]
_STR_RUNS_OVER = encode_tuple(StreamTuple(("word",), source_worker=-1))[:-2]

MALFORMED = {
    "truncated-length": (struct.pack("!BH", 0, 2) + _records(_GOOD)[3:]
                         + b"\x00\x00", PacketError),
    "missing-record": (struct.pack("!BH", 0, 2) + _records(_GOOD)[3:],
                       PacketError),
    "truncated-body": (struct.pack("!BHI", 0, 1, len(_GOOD) + 5) + _GOOD,
                       PacketError),
    "trailing-payload-bytes": (_records(_GOOD) + b"junk", PacketError),
    "trailing-record-bytes": (_records(_GOOD, _GOOD + b"\x00"),
                              SerializationError),
    "bad-tag": (_records(_GOOD, _BAD_TAG), SerializationError),
    "truncated-envelope": (_records(_GOOD[:5], _GOOD), SerializationError),
    "truncated-value-last": (_records(_GOOD, _GOOD[:-3]),
                             SerializationError),
    "truncated-value-mid": (_records(_GOOD[:-3], _GOOD), SerializationError),
    "truncated-str-mid": (_records(_STR_RUNS_OVER, _GOOD),
                          SerializationError),
    "truncated-anchor-mid": (
        _records(encode_tuple(StreamTuple((), anchor=Anchor(1, 2)))[:-4],
                 _GOOD), SerializationError),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_payload_raises_the_per_record_error(name):
    payload, error = MALFORMED[name]
    with pytest.raises(error, match="truncated|trailing|tag|envelope") \
            as per_record:
        _per_record(payload)
    count = multi_count(payload)
    with pytest.raises(error) as train:
        decode_train(payload, MULTI_HEAD_SIZE, count)
    assert type(train.value) is type(per_record.value)
    assert str(train.value) == str(per_record.value)


# -- fixed-stride trains -----------------------------------------------------------
#
# Trains whose records all share one layout (same flags, value tags and
# str/bytes lengths) take decode_train's fixed-stride path. The
# generators below build such trains so that path runs, and the checks
# hold it to the per-record reference like every other train.

#: Strings of equal UTF-8 byte length (6) but different character
#: counts, so the ``est`` column sum differs from the byte count.
_SIX_BYTE_WORDS = ["abcdef", "naïve", "東京", "straß", "ééé", "🌀ab"]

_LAYOUT_KINDS = ("none", "bool", "int", "float", "str", "bytes")


def _fixed_value(rng, kind, length):
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == "float":
        return rng.uniform(-1e12, 1e12)
    if kind == "str":
        if length == 6:
            return rng.choice(_SIX_BYTE_WORDS)
        return "".join(rng.choice("abcxyz") for _ in range(length))
    return bytes(rng.randrange(256) for _ in range(length))


def _fixed_train(rng, count, kinds, flags=0, streams=(7,), sources=(3,)):
    """``count`` tuples of one record layout: value kinds ``kinds``
    (str/bytes with one length each) and the stamps ``flags`` selects
    (1 anchor, 2 trace, 4 sequencing stamp)."""
    lengths = [rng.choice((0, 6, 11)) for _ in kinds]
    tuples = []
    for _ in range(count):
        values = tuple(_fixed_value(rng, kind, length)
                       for kind, length in zip(kinds, lengths))
        tuples.append(StreamTuple(
            values, stream=rng.choice(streams),
            source_worker=rng.choice(sources),
            anchor=(Anchor(rng.getrandbits(64), rng.getrandbits(64))
                    if flags & 1 else None),
            trace_id=rng.getrandbits(64) if flags & 2 else None,
            seq=((rng.getrandbits(32), rng.getrandbits(64))
                 if flags & 4 else None)))
    return tuples


def _outcome(decode, payload):
    """What ``decode(payload)`` returns, or the class and message of
    what it raises, in one comparable value."""
    try:
        return "ok", decode(payload)
    except Exception as error:   # compared, never swallowed
        return "raise", type(error), str(error)


def _reference(payload):
    """The per-record receive: unpack, decode each record alone, size
    the batch with the store sizer."""
    tuples = _per_record(payload)
    streams = {t.stream for t in tuples}
    return (tuples, [len(record) for record in unpack_payload(payload)],
            delivery_bytes(Delivery(tuples=tuples)),
            streams.pop() if len(streams) == 1 else None)


def _train_decode(payload):
    return decode_train(payload, MULTI_HEAD_SIZE, multi_count(payload))


def _assert_fixed_path_matches(tuples):
    payload = _payload(tuples)
    count = len(tuples)
    # The fixed-stride path takes the train (it does not fall back).
    assert _decode_uniform(payload, MULTI_HEAD_SIZE, count) is not None
    decoded, rlens, est, stream = decode_train(payload, MULTI_HEAD_SIZE,
                                               count)
    assert (decoded, rlens, est, stream) == _reference(payload)
    assert decoded == tuples
    assert all(type(t.values) is tuple for t in decoded)
    assert [[type(v) for v in t.values] for t in decoded] \
        == [[type(v) for v in t.values] for t in tuples]


@pytest.mark.parametrize("kind", _LAYOUT_KINDS)
def test_fixed_stride_train_decodes_every_scalar_kind(kind):
    rng = random.Random(kind)
    _assert_fixed_path_matches(_fixed_train(rng, 30, [kind]))
    _assert_fixed_path_matches(_fixed_train(rng, 30, [kind, "int", kind]))


@pytest.mark.parametrize("flags", range(8))
def test_fixed_stride_train_carries_every_stamp(flags):
    rng = random.Random(flags)
    _assert_fixed_path_matches(
        _fixed_train(rng, 40, ["str", "int", "bool"], flags=flags))


@pytest.mark.parametrize("seed", range(12))
def test_fixed_stride_train_matches_per_record_decode(seed):
    rng = random.Random(seed)
    kinds = [rng.choice(_LAYOUT_KINDS) for _ in range(rng.randrange(6))]
    tuples = _fixed_train(rng, rng.randrange(2, 80), kinds,
                          flags=rng.randrange(8),
                          streams=rng.sample(range(2 ** 16), 3),
                          sources=[-1, 0, rng.randrange(2 ** 31)])
    _assert_fixed_path_matches(tuples)


def test_fixed_stride_train_with_mixed_streams_and_sources():
    rng = random.Random(5)
    tuples = _fixed_train(rng, 50, ["str", "int"], streams=(1, 2),
                          sources=(4, 9))
    assert {t.stream for t in tuples} == {1, 2}
    _assert_fixed_path_matches(tuples)
    assert _train_decode(_payload(tuples))[3] is None


def test_fixed_stride_bool_column_mixes_true_and_false():
    tuples = [StreamTuple((i % 3 == 0, i), stream=4) for i in range(9)]
    _assert_fixed_path_matches(tuples)


def test_fixed_stride_est_counts_characters_not_bytes():
    tuples = [StreamTuple((word,), stream=2) for word in _SIX_BYTE_WORDS]
    assert {len(word.encode()) for word in _SIX_BYTE_WORDS} == {6}
    payload = _payload(tuples)
    _assert_fixed_path_matches(tuples)
    est = _train_decode(payload)[2]
    assert est == sum(80 + len(word) for word in _SIX_BYTE_WORDS)
    assert est != 86 * len(_SIX_BYTE_WORDS)


def test_fixed_stride_fig9_shaped_train():
    # One payload string in every record: the str column is constant.
    _assert_fixed_path_matches([StreamTuple(("payload", i), stream=0)
                                for i in range(100)])


def test_containers_and_big_ints_fall_back_to_the_loop():
    for value in ([1, 2], {"a": 1}, 2 ** 70):
        tuples = [StreamTuple((value, i)) for i in range(4)]
        payload = _payload(tuples)
        assert _decode_uniform(payload, MULTI_HEAD_SIZE, 4) is None
        assert _train_decode(payload) == _reference(payload)


# -- fixed-stride trains with one record mutated ------------------------------------

_FIXED_COUNT = 6
#: A train of records laid out as envelope (9) | str tag (1) | str len
#: (4) | 6 str bytes | int tag (1) | i64 (8) | bool tag (1).
_FIXED = _payload([StreamTuple(("abcdef", i, i % 2 == 0), stream=3,
                               source_worker=5)
                   for i in range(_FIXED_COUNT)])
_STRIDE = (len(_FIXED) - MULTI_HEAD_SIZE) // _FIXED_COUNT
_FLAGS, _NVALUES, _STR_TAG, _STR_LEN, _STR_BODY, _INT_TAG, _BOOL_TAG = (
    10, 11, 13, 14, 18, 24, 33)


def _poke(record, at, data, payload=_FIXED):
    """``payload`` with ``data`` written at byte ``at`` of record
    ``record`` (byte 0 is the record's length prefix) of a fixed-stride
    train."""
    stride = (len(payload) - MULTI_HEAD_SIZE) // multi_count(payload)
    pos = MULTI_HEAD_SIZE + record * stride + at
    return payload[:pos] + data + payload[pos + len(data):]


MUTATED = {
    "tag-int-to-float": _poke(3, _INT_TAG, b"\x04"),
    "tag-str-to-bytes": _poke(1, _STR_TAG, b"\x06"),
    "tag-unknown": _poke(2, _INT_TAG, b"\xee"),
    "tag-container": _poke(4, _INT_TAG, b"\x07"),
    "tag-bool-to-none": _poke(5, _BOOL_TAG, b"\x00"),
    "str-length-longer": _poke(2, _STR_LEN, struct.pack("!I", 7)),
    "str-length-shorter": _poke(5, _STR_LEN, struct.pack("!I", 5)),
    "flags-anchored": _poke(1, _FLAGS, b"\x01"),
    "flags-traced": _poke(4, _FLAGS, b"\x02"),
    "flags-unknown-bit": _poke(3, _FLAGS, b"\x80"),
    "flags-unknown-bit-everywhere": _poke(
        0, _FLAGS, b"\x80", _poke(1, _FLAGS, b"\x80", _poke(
            2, _FLAGS, b"\x80", _poke(3, _FLAGS, b"\x80", _poke(
                4, _FLAGS, b"\x80", _poke(5, _FLAGS, b"\x80")))))),
    "nvalues-more": _poke(2, _NVALUES, struct.pack("!H", 4)),
    "nvalues-fewer": _poke(4, _NVALUES, struct.pack("!H", 2)),
    "prefix-longer": _poke(3, 0, struct.pack("!I", _STRIDE - 3)),
    "prefix-shorter": _poke(1, 0, struct.pack("!I", _STRIDE - 5)),
    "invalid-utf8-later-record": _poke(4, _STR_BODY, b"\xff\xfe"),
    "invalid-utf8-first-record": _poke(0, _STR_BODY, b"\xc3"),
    "trailing-bytes": _FIXED + b"\x00\x00",
}


def test_fixed_stride_mutation_offsets_hit_their_fields():
    assert _FIXED[MULTI_HEAD_SIZE:MULTI_HEAD_SIZE + 4] \
        == struct.pack("!I", _STRIDE - 4)
    record = _FIXED[MULTI_HEAD_SIZE + 4:MULTI_HEAD_SIZE + _STRIDE]
    assert record[_FLAGS - 4] == 0 and record[_NVALUES - 4 + 1] == 3
    assert record[_STR_TAG - 4] == 0x05
    assert record[_STR_BODY - 4:_STR_BODY + 2] == b"abcdef"
    assert record[_INT_TAG - 4] == 0x03 and record[_BOOL_TAG - 4] == 0x01
    assert _decode_uniform(_FIXED, MULTI_HEAD_SIZE, _FIXED_COUNT) \
        is not None


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_mutated_fixed_stride_train_matches_per_record_outcome(name):
    payload = MUTATED[name]
    expected = _outcome(_reference, payload)
    assert _outcome(_train_decode, payload) == expected
    for view in (bytearray(payload), memoryview(payload)):
        assert _outcome(_train_decode, view) == expected


def test_mutations_cover_errors_and_valid_payloads():
    raised = {name for name, payload in MUTATED.items()
              if _outcome(_reference, payload)[0] == "raise"}
    assert {"tag-unknown", "str-length-longer", "nvalues-more",
            "prefix-longer", "invalid-utf8-later-record",
            "trailing-bytes"} <= raised
    assert {"tag-int-to-float", "tag-str-to-bytes", "tag-bool-to-none",
            "flags-unknown-bit"}.isdisjoint(raised)


def test_invalid_utf8_in_two_columns_raises_for_the_first_record():
    """Two records hold invalid UTF-8 in different str columns: the
    error names the bytes of the earlier record, as the record-by-record
    decode meets them first, not those of the earlier column."""
    tuples = [StreamTuple(("abcd", "wxyz"), stream=1) for _ in range(5)]
    payload = _payload(tuples)
    stride = (len(payload) - MULTI_HEAD_SIZE) // 5
    # Record layout: prefix 4 | envelope 9 | tag 1 | len 4 | "abcd" |
    # tag 1 | len 4 | "wxyz".
    first_str, second_str = 4 + 9 + 5, 4 + 9 + 5 + 4 + 5
    payload = _poke(1, second_str + 1, b"\xfe", payload)
    payload = _poke(3, first_str, b"\xff", payload)
    assert stride == second_str + 4
    expected = _outcome(_reference, payload)
    assert expected[:2] == ("raise", UnicodeDecodeError)
    assert "0xfe in position 1" in expected[2]
    assert _outcome(_train_decode, payload) == expected
