"""Typhoon packet format: tuples inside custom Ethernet frames (Fig. 5).

The I/O layer's southbound side turns serialized tuples into frame
payloads and back, implementing the three mechanisms §3.3.1 calls out:

* **multiplexing** — multiple small tuples with the same source and
  destination are packed into one packet to save on throughput;
* **segmentation** — one large tuple is split across several packets and
  reassembled at the receiver;
* **batching** — callers hand over whole batches; per-batch overheads
  (JNI crossing, ring operations) are charged once per flush.

Payload layouts (all big-endian), following the Ethernet header:

``MULTI``:    ``u8 kind=0 | u16 count | count * (u32 len | tuple bytes)``
``FRAGMENT``: ``u8 kind=1 | u32 frag_id | u32 total_len | u32 offset |
              chunk bytes``
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from ..sim.audit import (
    R_PENDING_AT_CLOSE,
    R_REASSEMBLY_EVICTED,
    R_REASSEMBLY_GAP,
)

KIND_MULTI = 0
KIND_FRAGMENT = 1

_MULTI_HEAD = struct.Struct("!BH")
_RECORD_LEN = struct.Struct("!I")
_FRAG_HEAD = struct.Struct("!BIII")
#: Offset of the first record in a MULTI payload.
MULTI_HEAD_SIZE = _MULTI_HEAD.size


class PacketError(ValueError):
    """Raised for malformed Typhoon packet payloads."""


@dataclass(frozen=True)
class Fragment:
    frag_id: int
    total_len: int
    offset: int
    chunk: bytes

    @property
    def is_last(self) -> bool:
        return self.offset + len(self.chunk) == self.total_len


def pack_tuples(encoded_tuples: List[bytes], mtu: int,
                next_frag_id: int = 0) -> Tuple[List[bytes], int]:
    """Pack serialized tuples into frame payloads of at most ``mtu`` bytes.

    Small tuples are multiplexed greedily; a tuple whose record would not
    fit in an empty MULTI payload is segmented into FRAGMENT payloads.
    Returns ``(payloads, next_frag_id)`` — the caller threads the fragment
    id counter between calls.
    """
    payloads, next_frag_id, _spans = pack_tuples_spans(
        encoded_tuples, mtu, next_frag_id)
    return payloads, next_frag_id


def pack_tuples_spans(
    encoded_tuples: List[bytes], mtu: int, next_frag_id: int = 0,
) -> Tuple[List[bytes], int, List[Optional[Tuple[int, int]]]]:
    """Like :func:`pack_tuples`, additionally reporting which input
    records each payload carries: ``spans[i]`` is the half-open
    ``(start, end)`` index range multiplexed into ``payloads[i]``, or
    ``None`` for FRAGMENT payloads (each carries a chunk of one record).
    The I/O layer uses the spans to annotate frames for same-process
    fast-path delivery."""
    if mtu <= _FRAG_HEAD.size + 1:
        raise ValueError("mtu too small: %d" % mtu)
    payloads: List[bytes] = []
    spans: List[Optional[Tuple[int, int]]] = []
    # The MULTI payload under construction is accumulated directly in a
    # bytearray (head patched in at flush) instead of a list of
    # per-record concatenations; len(current) tracks the mtu budget.
    head_size = _MULTI_HEAD.size
    current = bytearray(head_size)
    cur_len = head_size
    count = 0
    first_index = 0
    max_record_budget = mtu - head_size
    record_head = _RECORD_LEN.size
    pack_len = _RECORD_LEN.pack

    def flush_multi() -> None:
        nonlocal current, count, cur_len
        if not count:
            return
        _MULTI_HEAD.pack_into(current, 0, KIND_MULTI, count)
        payloads.append(bytes(current))
        spans.append((first_index, first_index + count))
        current = bytearray(head_size)
        cur_len = head_size
        count = 0

    for index, data in enumerate(encoded_tuples):
        dlen = len(data)
        record_len = record_head + dlen
        if record_len > max_record_budget:
            # Large tuple: segment it.
            flush_multi()
            chunk_budget = mtu - _FRAG_HEAD.size
            offset = 0
            while offset < dlen:
                chunk = data[offset:offset + chunk_budget]
                payloads.append(
                    _FRAG_HEAD.pack(KIND_FRAGMENT, next_frag_id,
                                    dlen, offset) + chunk
                )
                spans.append(None)
                offset += len(chunk)
            next_frag_id = (next_frag_id + 1) & 0xFFFFFFFF
            continue
        if cur_len + record_len > mtu:
            flush_multi()
        if not count:
            first_index = index
        current += pack_len(dlen)
        current += data
        cur_len += record_len
        count += 1
    flush_multi()
    return payloads, next_frag_id, spans


def multi_count(payload: bytes) -> Optional[int]:
    """Record count of a MULTI payload, or ``None`` for a FRAGMENT.

    Reads only the head; the records themselves are checked by
    :func:`record_bounds`. Raises :class:`PacketError` for an empty
    payload or an unknown kind byte."""
    if not payload:
        raise PacketError("empty payload")
    kind = payload[0]
    if kind == KIND_MULTI:
        return _MULTI_HEAD.unpack_from(payload, 0)[1]
    if kind == KIND_FRAGMENT:
        return None
    raise PacketError("unknown packet kind 0x%02x" % kind)


def record_bounds(payload: bytes, offset: int, count: int,
                  _unpack_len=_RECORD_LEN.unpack_from) -> List[int]:
    """The validated MULTI record bounds: every reader of MULTI framing
    (:func:`unpack_payload`, the receive-side train decoder's
    record-by-record loop, the ledger and tracer inspectors, the
    controller's PacketIn handler) goes through this one function. The
    decoder's fixed-stride path accepts only payloads this function
    accepts (equal prefixes tiling the payload) and leaves the rest to
    the loop.

    Returns ``count + 1`` prefix offsets: record ``i``'s bytes are
    ``payload[bounds[i] + 4 : bounds[i + 1]]`` (the layout
    :func:`repro.streaming.serialize.encode_train` emits). Raises
    :class:`PacketError` for a truncated length prefix, a body running
    past the payload, or bytes left over after the last record.

    Fixed-stride trains (every record the same length, as a train of
    one record layout is) are checked without a per-record walk: when
    ``count`` records of the first record's stride tile the rest of the
    payload exactly and each of the four prefix bytes is the same in
    every record (one strided slice per byte), the bounds are an
    arithmetic range. Any other payload takes the record walk, which
    reads each prefix in turn without slicing any record."""
    size = len(payload)
    body = offset + 4
    if count and body <= size:
        stride = _unpack_len(payload, offset)[0] + 4
        if count * stride == size - offset:
            head = bytes(payload[offset:body])
            for k in range(4):
                if payload[offset + k:size:stride] != head[k:k + 1] * count:
                    break
            else:
                return list(range(offset, size + 1, stride))
    bounds = [offset]
    mark = bounds.append
    for _ in range(count):
        body = offset + 4
        if body > size:
            raise PacketError("truncated record length")
        offset = body + _unpack_len(payload, offset)[0]
        if offset > size:
            raise PacketError("truncated record body")
        mark(offset)
    if offset != size:
        raise PacketError("%d trailing payload bytes" % (size - offset))
    return bounds


def unpack_payload(payload: bytes) -> Union[List[bytes], Fragment]:
    """Decode a frame payload: a list of tuple byte strings, or a Fragment."""
    count = multi_count(payload)
    if count is not None:
        bounds = record_bounds(payload, _MULTI_HEAD.size, count)
        return [payload[bounds[i] + 4:bounds[i + 1]] for i in range(count)]
    _kind, frag_id, total_len, frag_offset = _FRAG_HEAD.unpack_from(payload, 0)
    chunk = payload[_FRAG_HEAD.size:]
    if frag_offset + len(chunk) > total_len:
        raise PacketError("fragment overruns total length")
    return Fragment(frag_id, total_len, frag_offset, chunk)


class Reassembler:
    """Reassembles fragmented tuples, keyed by (source, frag id).

    Fragments of one tuple arrive in order on a FIFO path, but fragments
    of different tuples from different sources may interleave. ``source``
    is any hashable naming the sender; the I/O layer keys by
    ``(app_id, worker_id)`` so same-numbered workers of different
    applications can never collide.

    Accounting contract (the audit layer depends on it): ``dropped``
    counts *partial tuples discarded here* — one per non-empty buffer
    lost to a gap, a bounded-buffer eviction, or :meth:`drain`. A
    fragment that arrives with no buffer and a non-zero offset is a
    headless orphan: its tuple died wherever the head fragment was
    dropped and was already accounted there, so orphans are tallied in
    ``orphan_fragments`` (diagnostic) without touching ``dropped``.
    ``on_drop(key, reason)`` fires once per discarded partial tuple —
    ``key`` is the ``(source, frag_id)`` pair — so the owner can forward
    the loss to a delivery ledger with proper attribution.
    """

    def __init__(self, max_pending: int = 1024,
                 on_drop: Optional[Callable[[Tuple[Hashable, int], str],
                                            None]] = None,
                 on_discard_data: Optional[
                     Callable[[Tuple[Hashable, int], str, bytes],
                              None]] = None):
        self._pending: Dict[Tuple[Hashable, int], bytearray] = {}
        self.max_pending = max_pending
        self.dropped = 0
        self.evictions = 0
        self.orphan_fragments = 0
        self.on_drop = on_drop
        #: Like ``on_drop`` but also receives the partial buffer bytes.
        #: The buffer always starts at offset 0, so the tuple's fixed
        #: header (and with it any embedded trace id) is intact — the
        #: tracing layer uses this to close spans of lost tuples.
        self.on_discard_data = on_discard_data

    def _discard(self, key: Tuple[Hashable, int], reason: str) -> None:
        buffer = self._pending.pop(key)
        self.dropped += 1
        if self.on_drop is not None:
            self.on_drop(key, reason)
        if self.on_discard_data is not None:
            self.on_discard_data(key, reason, bytes(buffer))

    def feed(self, source: Hashable, fragment: Fragment) -> Optional[bytes]:
        """Absorb a fragment; returns the full tuple bytes when complete."""
        key = (source, fragment.frag_id)
        buffer = self._pending.get(key)
        if fragment.offset == 0:
            if buffer is not None:
                # Frag-id reuse: the previous tuple under this key never
                # completed and never will.
                self._discard(key, R_REASSEMBLY_GAP)
            if len(self._pending) >= self.max_pending:
                # Bounded buffer: evict only the oldest partial tuple
                # (dict preserves insertion order) and account for it —
                # never wipe every other source's progress.
                self.evictions += 1
                self._discard(next(iter(self._pending)),
                              R_REASSEMBLY_EVICTED)
            buffer = bytearray()
            self._pending[key] = buffer
        elif buffer is None:
            self.orphan_fragments += 1
            return None
        if fragment.offset != len(buffer):
            # Out-of-order / missing chunk: discard the partial tuple.
            self._discard(key, R_REASSEMBLY_GAP)
            return None
        buffer.extend(fragment.chunk)
        if len(buffer) == fragment.total_len:
            del self._pending[key]
            return bytes(buffer)
        return None

    def drain(self, reason: str = R_PENDING_AT_CLOSE) -> int:
        """Discard every partial tuple (owner closing), counting each."""
        count = len(self._pending)
        for key in list(self._pending):
            self._discard(key, reason)
        return count

    @property
    def pending_count(self) -> int:
        return len(self._pending)
