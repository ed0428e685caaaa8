"""Unit + property tests for the Typhoon packet format (Fig. 5)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Fragment, PacketError, Reassembler, pack_tuples, unpack_payload
from repro.core.packets import MULTI_HEAD_SIZE, record_bounds


def test_multiplexing_small_tuples_into_one_packet():
    tuples = [b"tuple-%d" % i for i in range(10)]
    payloads, _ = pack_tuples(tuples, mtu=1500)
    assert len(payloads) == 1
    assert unpack_payload(payloads[0]) == tuples


def test_packing_respects_mtu():
    tuples = [b"x" * 200 for _ in range(20)]
    payloads, _ = pack_tuples(tuples, mtu=1000)
    assert all(len(p) <= 1000 for p in payloads)
    recovered = []
    for payload in payloads:
        recovered.extend(unpack_payload(payload))
    assert recovered == tuples


def test_large_tuple_is_fragmented():
    big = bytes(range(256)) * 40  # 10240 bytes
    payloads, next_id = pack_tuples([big], mtu=1500)
    assert len(payloads) > 1
    assert next_id == 1
    fragments = [unpack_payload(p) for p in payloads]
    assert all(isinstance(f, Fragment) for f in fragments)
    reassembler = Reassembler()
    result = None
    for fragment in fragments:
        result = reassembler.feed(7, fragment)
    assert result == big
    assert reassembler.pending_count == 0


def test_mixed_small_and_large():
    small = [b"aa", b"bb"]
    big = b"z" * 5000
    payloads, _ = pack_tuples(small + [big] + small, mtu=1500)
    records, fragments = [], []
    for payload in payloads:
        decoded = unpack_payload(payload)
        if isinstance(decoded, Fragment):
            fragments.append(decoded)
        else:
            records.extend(decoded)
    assert records == small + small
    reassembler = Reassembler()
    outcome = [reassembler.feed(1, f) for f in fragments]
    assert outcome[-1] == big


def test_fragment_ids_thread_across_calls():
    big = b"y" * 4000
    _payloads, next_id = pack_tuples([big], mtu=1500, next_frag_id=41)
    assert next_id == 42


def test_interleaved_fragments_from_different_sources():
    big_a = b"a" * 4000
    big_b = b"b" * 4000
    frags_a = [unpack_payload(p) for p in pack_tuples([big_a], 1500)[0]]
    frags_b = [unpack_payload(p) for p in pack_tuples([big_b], 1500)[0]]
    reassembler = Reassembler()
    result_a = result_b = None
    for fa, fb in zip(frags_a, frags_b):
        result_a = reassembler.feed(1, fa) or result_a
        result_b = reassembler.feed(2, fb) or result_b
    assert result_a == big_a
    assert result_b == big_b


def test_missing_head_fragment_is_orphan_not_drop():
    big = b"c" * 4000
    fragments = [unpack_payload(p) for p in pack_tuples([big], 1500)[0]]
    reassembler = Reassembler()
    # Without the head fragment the tuple died upstream (wherever the
    # head was lost); trailing chunks are orphans, not fresh drops.
    assert reassembler.feed(1, fragments[1]) is None
    assert reassembler.dropped == 0
    assert reassembler.orphan_fragments == 1


def test_gap_in_fragments_discards_partial():
    big = b"d" * 6000
    fragments = [unpack_payload(p) for p in pack_tuples([big], 1500)[0]]
    assert len(fragments) >= 3
    reassembler = Reassembler()
    reassembler.feed(1, fragments[0])
    assert reassembler.feed(1, fragments[2]) is None  # skipped one
    assert reassembler.dropped == 1
    assert reassembler.pending_count == 0


def test_malformed_payloads_rejected():
    with pytest.raises(PacketError):
        unpack_payload(b"")
    with pytest.raises(PacketError):
        unpack_payload(bytes([0xEE]) + b"junk")
    # Truncated MULTI record.
    good, _ = pack_tuples([b"hello"], 1500)
    with pytest.raises(PacketError):
        unpack_payload(good[0][:-2])
    with pytest.raises(PacketError):
        unpack_payload(good[0] + b"trailing")


def test_tiny_mtu_rejected():
    with pytest.raises(ValueError):
        pack_tuples([b"x"], mtu=8)


def test_empty_tuple_list():
    payloads, next_id = pack_tuples([], mtu=1500)
    assert payloads == []
    assert next_id == 0


@settings(max_examples=100)
@given(st.lists(st.binary(min_size=0, max_size=4000), max_size=20),
       st.integers(120, 9000))
def test_pack_unpack_roundtrip_property(tuples, mtu):
    payloads, _ = pack_tuples(tuples, mtu=mtu)
    assert all(len(p) <= mtu for p in payloads)
    reassembler = Reassembler()
    recovered = []
    for payload in payloads:
        decoded = unpack_payload(payload)
        if isinstance(decoded, Fragment):
            complete = reassembler.feed(0, decoded)
            if complete is not None:
                recovered.append(complete)
        else:
            recovered.extend(decoded)
    assert recovered == tuples
    assert reassembler.pending_count == 0


# -- record_bounds: fixed-stride check vs the record walk ---------------------------


def _walk_bounds(payload, offset, count):
    """Reference MULTI framing check: read every length prefix in turn."""
    bounds = [offset]
    for _ in range(count):
        if offset + 4 > len(payload):
            raise PacketError("truncated record length")
        offset += 4 + struct.unpack_from("!I", payload, offset)[0]
        if offset > len(payload):
            raise PacketError("truncated record body")
        bounds.append(offset)
    if offset != len(payload):
        raise PacketError("%d trailing payload bytes"
                          % (len(payload) - offset))
    return bounds


def _framed(lengths, prefixes=None, tail=b""):
    """A MULTI payload whose records have bodies of ``lengths`` bytes
    behind the length prefixes ``prefixes`` (default: the true
    lengths), followed by ``tail``."""
    prefixes = lengths if prefixes is None else prefixes
    body = b"".join(struct.pack("!I", prefix) + bytes([65 + i % 26]) * length
                    for i, (prefix, length) in enumerate(zip(prefixes,
                                                             lengths)))
    return struct.pack("!BH", 0, len(lengths)) + body + tail


def _bounds_outcome(payload, count):
    try:
        return record_bounds(payload, MULTI_HEAD_SIZE, count)
    except PacketError as error:
        return "PacketError", str(error)


def _walk_outcome(payload, count):
    try:
        return _walk_bounds(payload, MULTI_HEAD_SIZE, count)
    except PacketError as error:
        return "PacketError", str(error)


def _assert_matches_walk(payload, count):
    expected = _walk_outcome(bytes(payload), count)
    for view in (bytes(payload), bytearray(payload), memoryview(payload)):
        assert _bounds_outcome(view, count) == expected
    return expected


def test_record_bounds_fixed_stride_is_arithmetic():
    payload = _framed([9] * 50)
    bounds = _assert_matches_walk(payload, 50)
    assert bounds == list(range(MULTI_HEAD_SIZE, len(payload) + 1, 13))
    assert unpack_payload(payload) == [bytes([65 + i % 26]) * 9
                                       for i in range(50)]


def test_record_bounds_equal_total_with_one_differing_length():
    # 5 + 4 + 6 tiles like three 5-byte records but is not fixed-stride.
    payload = _framed([5, 4, 6])
    assert _assert_matches_walk(payload, 3) == [3, 12, 20, 30]
    assert unpack_payload(payload) == [b"A" * 5, b"B" * 4, b"C" * 6]


@pytest.mark.parametrize("byte", range(4))
@pytest.mark.parametrize("record", [1, 3])
def test_record_bounds_equal_stride_with_one_differing_prefix(byte, record):
    """Records of one stride tile the payload, but one length prefix
    differs from the first in one of its four bytes: the walk decides."""
    prefixes = [7] * 4
    prefixes[record] = 7 ^ (1 << (8 * (3 - byte)))
    payload = _framed([7] * 4, prefixes)
    outcome = _assert_matches_walk(payload, 4)
    assert outcome[0] == "PacketError"


def test_record_bounds_exact_tiling_vs_trailing_bytes():
    exact = _framed([6] * 8)
    assert _assert_matches_walk(exact, 8)[-1] == len(exact)
    for tail in (b"\x00", b"\x00" * 9, b"\x00\x00\x00\x06xxxxxx"):
        outcome = _assert_matches_walk(_framed([6] * 8, tail=tail), 8)
        assert outcome == ("PacketError",
                           "%d trailing payload bytes" % len(tail))


def test_record_bounds_short_and_empty_inputs():
    for payload, count in ((_framed([]), 0), (_framed([3]), 1),
                           (_framed([0, 0]), 2), (_framed([4] * 3)[:-1], 3),
                           (_framed([4] * 3)[:5], 3),
                           (_framed([]) + b"xy", 0)):
        _assert_matches_walk(payload, count)
