"""Byte-accurate Ethernet framing for Typhoon transport packets (Fig. 5).

Frames are real byte strings packed with :mod:`struct`; the switch,
tunnels and worker I/O layers all operate on these bytes, so multiplexing,
segmentation and broadcast replication are exercised end-to-end rather
than hand-waved.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .addresses import TYPHOON_ETHERTYPE, WorkerAddress

HEADER_LEN = 14  # dst(6) + src(6) + ethertype(2)

#: Maximum payload carried by one frame. Typhoon runs over host-local
#: software switches and TCP tunnels, so jumbo frames are usable; the
#: prototype's DPDK OVS is configured likewise.
DEFAULT_MTU = 8950

_TYPE_STRUCT = struct.Struct("!H")


class FrameError(ValueError):
    """Raised for malformed frames."""


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame with worker-ID addressing."""

    dst: WorkerAddress
    src: WorkerAddress
    ethertype: int
    payload: bytes
    #: Same-process delivery annotation: the sending I/O layer's record
    #: of the StreamTuples multiplexed into ``payload`` and their
    #: encoded lengths (``repro.core.io_layer._ChunkAnnotation``),
    #: attached when every tuple is reconstructible without decoding
    #: (all scalar values). Purely an in-memory shortcut — the payload
    #: bytes stay authoritative, ``pack()`` ignores it, ``unpack()``
    #: never restores it, and it is excluded from equality/repr. A
    #: MULTI frame crossing a host tunnel therefore decodes for real
    #: once per receiving host: the receiving fabric attaches an empty
    #: annotation, which the first local replica to decode the payload
    #: fills for the others (unless a value is a container).
    tuples: Optional[object] = field(default=None, compare=False,
                                     repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise FrameError("ethertype out of range: %r" % (self.ethertype,))

    def __len__(self) -> int:
        return HEADER_LEN + len(self.payload)

    @property
    def is_typhoon(self) -> bool:
        return self.ethertype == TYPHOON_ETHERTYPE

    def pack(self) -> bytes:
        return (
            self.dst.pack()
            + self.src.pack()
            + _TYPE_STRUCT.pack(self.ethertype)
            + self.payload
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetFrame":
        if len(data) < HEADER_LEN:
            raise FrameError("frame too short: %d bytes" % len(data))
        dst = WorkerAddress.unpack(data[0:6])
        src = WorkerAddress.unpack(data[6:12])
        (ethertype,) = _TYPE_STRUCT.unpack(data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype, payload=data[14:])

    def with_dst(self, dst: WorkerAddress) -> "EthernetFrame":
        """Copy of this frame with a rewritten destination address.

        Used by the SDN load balancer's select-group action, which rewrites
        the destination worker ID in a weighted round-robin fashion (§4).
        """
        return EthernetFrame(dst=dst, src=self.src, ethertype=self.ethertype,
                             payload=self.payload, tuples=self.tuples)
