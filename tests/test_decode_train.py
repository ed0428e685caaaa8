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
