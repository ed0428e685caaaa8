"""Unit + property tests for the tuple codec."""

from collections import namedtuple
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import DEFAULT_COSTS
from repro.streaming import (
    Anchor,
    SerializationError,
    StreamTuple,
    decode_tuple,
    deserialize_cost,
    encode_tuple,
    encode_values,
    serialize_cost,
)
from repro.bench.legacy import legacy_encode_tuple
from repro.streaming import serialize
from repro.streaming.serialize import (
    encode_train,
    encode_train_uniform,
    encode_tuple_scalar,
)


def roundtrip(stream_tuple):
    return decode_tuple(encode_tuple(stream_tuple))


def test_simple_roundtrip():
    original = StreamTuple(("hello", 42), stream=0, source_worker=7)
    decoded = roundtrip(original)
    assert decoded.values == ("hello", 42)
    assert decoded.stream == 0
    assert decoded.source_worker == 7
    assert decoded.anchor is None


def test_anchor_roundtrip():
    original = StreamTuple(("x",), anchor=Anchor(12345678901234567890 % 2**64,
                                                 987654321))
    decoded = roundtrip(original)
    assert decoded.anchor == original.anchor


def test_all_value_types():
    values = (None, True, False, 17, -3, 2.5, "text", b"raw",
              [1, "two", [3]], {"k": "v", "n": 1})
    decoded = roundtrip(StreamTuple(values))
    assert decoded.values[0] is None
    assert decoded.values[1] is True
    assert decoded.values[2] is False
    assert decoded.values[3:8] == (17, -3, 2.5, "text", b"raw")
    assert decoded.values[8] == [1, "two", [3]]
    assert decoded.values[9] == {"k": "v", "n": 1}


def test_unicode_strings():
    decoded = roundtrip(StreamTuple(("héllo wörld 東京",)))
    assert decoded.values == ("héllo wörld 東京",)


def test_unserializable_value_rejected():
    with pytest.raises(SerializationError):
        encode_values((object(),))


def test_truncated_data_rejected():
    data = encode_tuple(StreamTuple(("hello",)))
    with pytest.raises(SerializationError):
        decode_tuple(data[:-2])
    with pytest.raises(SerializationError):
        decode_tuple(data[:3])


def test_trailing_bytes_rejected():
    data = encode_tuple(StreamTuple(("hello",)))
    with pytest.raises(SerializationError):
        decode_tuple(data + b"junk")


def test_unknown_tag_rejected():
    # A one-value record whose value tag is swapped for the unused 0xee.
    record = encode_tuple(StreamTuple((None,)))[:-1] + b"\xee"
    with pytest.raises(SerializationError, match="unknown type tag 0xee"):
        decode_tuple(record)


def test_costs_scale_with_size():
    small = serialize_cost(DEFAULT_COSTS, 10)
    large = serialize_cost(DEFAULT_COSTS, 10_000)
    assert large > small
    assert deserialize_cost(DEFAULT_COSTS, 10) > 0


json_like = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40) | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150)
@given(st.lists(json_like, max_size=6), st.integers(0, 0xFFFF),
       st.integers(-1, 1000))
def test_roundtrip_property(values, stream, source_worker):
    original = StreamTuple(tuple(values), stream=stream,
                           source_worker=source_worker)
    decoded = roundtrip(original)
    assert list(decoded.values) == [
        list(v) if isinstance(v, tuple) else v for v in original.values
    ]
    assert decoded.stream == stream
    assert decoded.source_worker == source_worker


@settings(max_examples=80)
@given(st.lists(json_like, max_size=4))
def test_encoding_is_deterministic(values):
    first = encode_values(tuple(values))
    second = encode_values(tuple(values))
    assert first == second


# -- every encoder against the legacy reference ---------------------------------
#
# The four encoders share one value writer and one helper per cold-path
# record; these tests drive the branches real streams rarely reach
# (subclass values, cache misses and overflows, long strings, the i64
# edges) through all four and hold them to the pre-optimization codec.


class _Color(IntEnum):
    RED = 7


class _Mode(str, Enum):
    FAST = "fast"


class _Loud(str):
    def __str__(self):
        return "LOUD"


class _Meters(float):
    pass


class _Big(int):
    pass


class _Raw(bytes):
    def __bytes__(self):
        return b"override"


_Point = namedtuple("_Point", "x y")

#: Values whose exact type is not in ``SCALAR_TYPES``: each encodes as
#: its base type does, and none may ride the fast lane.
_NON_SCALAR = [
    ("int_enum", _Color.RED),
    ("str_enum", _Mode.FAST),
    ("str_override", _Loud("quiet")),
    ("float_subclass", _Meters(2.5)),
    ("int_subclass_bigint", _Big(2 ** 63 + 11)),
    ("namedtuple", _Point(1, "a")),
    ("bytearray", bytearray(b"\x00\x01\xff")),
    ("tuple", (1, "t", None)),
]


def _train_records(train):
    data, bounds = train[0], train[1]
    return [data[bounds[i] + 4:bounds[i + 1]]
            for i in range(len(bounds) - 1)]


def _check_all_encoders(tuples, scalar):
    """Every encoder writes ``legacy_encode_tuple``'s bytes for each of
    ``tuples`` (one shared envelope) and classifies each as
    ``scalar[i]``."""
    expected = [legacy_encode_tuple(t) for t in tuples]
    for stream_tuple, want, fast in zip(tuples, expected, scalar):
        assert encode_tuple(stream_tuple) == want
        assert encode_tuple_scalar(stream_tuple) == (want, fast)
    first = tuples[0]
    for train in (encode_train(tuples),
                  encode_train_uniform(tuples, first.stream,
                                       first.source_worker)):
        assert _train_records(train) == expected
        objs = train[4]
        if all(scalar):
            assert objs is None
        else:
            assert [obj is None for obj in objs] == [not f for f in scalar]


@pytest.mark.parametrize("name,value", _NON_SCALAR,
                         ids=[case[0] for case in _NON_SCALAR])
def test_non_scalar_exact_types_match_legacy(name, value):
    plain = StreamTuple(("w", 1), stream=2, source_worker=5)
    odd = StreamTuple(("w", value, 2.0), stream=2, source_worker=5)
    _check_all_encoders([plain, odd, plain], [True, False, True])
    _check_all_encoders([odd], [False])


def test_bytes_subclass_encodes_its_buffer_not_its_bytes_override():
    # The legacy reference calls ``bytes(value)`` (and so ``__bytes__``)
    # after writing ``len(value)``; the codec writes the buffer itself.
    odd = StreamTuple(("w", _Raw(b"\x00raw")), stream=2, source_worker=5)
    plain = StreamTuple(("w", b"\x00raw"), stream=2, source_worker=5)
    want = encode_tuple(plain)
    assert encode_tuple(odd) == want
    assert encode_tuple_scalar(odd) == (want, False)
    for train in (encode_train([odd]), encode_train_uniform([odd], 2, 5)):
        assert _train_records(train) == [want]
        assert train[4] == [None]


def test_all_non_scalar_values_in_one_tuple_match_legacy():
    odd = StreamTuple(tuple(v for _n, v in _NON_SCALAR), stream=1,
                      source_worker=3)
    _check_all_encoders([odd, odd], [False, False])


@pytest.fixture
def fresh_caches():
    """Empty encoder caches for the test, restored afterwards."""
    caches = (serialize._STR_RECORD_CACHE, serialize._ENVELOPE_CACHE,
              serialize._TRAIN_HEAD_CACHE)
    saved = [dict(cache) for cache in caches]
    for cache in caches:
        cache.clear()
    yield caches
    for cache, old in zip(caches, saved):
        cache.clear()
        cache.update(old)


def test_str_record_cache_overflow_matches_legacy(fresh_caches):
    str_cache = fresh_caches[0]
    limit = serialize._STR_RECORD_CACHE_MAX
    words = ["w%05d" % i for i in range(limit + 300)]
    tuples = [StreamTuple((word, i), stream=0, source_worker=1)
              for i, word in enumerate(words)]
    for stream_tuple in tuples:
        want = legacy_encode_tuple(stream_tuple)
        assert encode_tuple(stream_tuple) == want
        assert len(str_cache) <= limit
    # Each train pushes the cache past its bound again, mid-train.
    for encode in (encode_train,
                   lambda ts: encode_train_uniform(ts, 0, 1)):
        str_cache.clear()
        train = encode(tuples)
        assert _train_records(train) == [legacy_encode_tuple(t)
                                         for t in tuples]
        assert len(str_cache) <= limit
    str_cache.clear()
    for stream_tuple in tuples:
        encoded, fast = encode_tuple_scalar(stream_tuple)
        assert fast and encoded == legacy_encode_tuple(stream_tuple)
        assert len(str_cache) <= limit


def test_envelope_cache_overflow_matches_legacy(fresh_caches):
    _str_cache, envelope_cache, train_cache = fresh_caches
    limit = serialize._ENVELOPE_CACHE_MAX
    tuples = [StreamTuple(("x", i), stream=i % 7, source_worker=i)
              for i in range(limit + 200)]
    for stream_tuple in tuples:
        want = legacy_encode_tuple(stream_tuple)
        assert encode_tuple(stream_tuple) == want
        assert encode_tuple_scalar(stream_tuple) == (want, True)
        assert len(envelope_cache) <= limit
    train = encode_train(tuples)
    assert _train_records(train) == [legacy_encode_tuple(t) for t in tuples]
    assert len(train_cache) <= limit
    train_cache.clear()
    for stream_tuple in tuples:
        train = encode_train_uniform([stream_tuple], stream_tuple.stream,
                                     stream_tuple.source_worker)
        assert _train_records(train) == [legacy_encode_tuple(stream_tuple)]
        assert len(train_cache) <= limit


@pytest.mark.parametrize("value", [
    "a" * (serialize._STR_CACHE_LEN_LIMIT + 1),
    "é" * (serialize._STR_CACHE_LEN_LIMIT + 40),
    "東京" * serialize._STR_CACHE_LEN_LIMIT,
], ids=["ascii", "latin1", "cjk"])
def test_long_strings_are_written_uncached(fresh_caches, value):
    str_cache = fresh_caches[0]
    stream_tuple = StreamTuple((value, "short"), stream=4, source_worker=2)
    _check_all_encoders([stream_tuple, stream_tuple], [True, True])
    assert value not in str_cache
    assert "short" in str_cache


@pytest.mark.parametrize("value", [
    -(2 ** 63), 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1,
], ids=["i64_min", "i64_max", "past_max", "past_min"])
def test_i64_edges_match_legacy(value):
    stream_tuple = StreamTuple((value, -value, "n"), stream=0,
                               source_worker=9)
    _check_all_encoders([stream_tuple, stream_tuple], [True, True])
    assert decode_tuple(encode_tuple(stream_tuple)).values \
        == (value, -value, "n")
