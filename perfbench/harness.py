"""Measurement plumbing shared by every workload: the machine-speed
reference loop, timed windows, summary statistics, peak memory and run
provenance.

Nothing here imports ``repro``: the reference loop must measure the
machine, not the program under test.
"""

from __future__ import annotations

import gc
import heapq
import os
import platform
import resource
import statistics
import struct
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Wall seconds one :func:`reference_seconds` pass takes on the machine
#: the benchmark was calibrated on (a 2-vCPU x86-64 container running
#: CPython 3.11). Wall-clock metrics are reported at this reference
#: speed: a window's raw rate is multiplied by ``reference / nominal``
#: measured beside it, so a machine phase that slows the reference loop
#: and the simulator alike cancels out. Raw figures are kept alongside.
REFERENCE_NOMINAL_S = 0.02

_MIX_ITERATIONS = 12_000
_EVENT_ITERATIONS = 5_000
_PACK = struct.Struct("!IQ").pack


class _RefRecord:
    __slots__ = ("key", "tag", "callback", "args")

    def __init__(self, key: int, tag, callback=None, args=()) -> None:
        self.key = key
        self.tag = tag
        self.callback = callback
        self.args = args

    def shifted(self, delta: int) -> int:
        return self.key + delta


def reference_seconds() -> float:
    """Time one pass of a fixed pure-Python loop.

    Two halves, chosen because together they track the simulator's
    speed across machine phases better than either alone:

    * a data-plane mix — small-object allocation, attribute access,
      method calls, dict stores, string formatting, ``struct`` packing
      and ``bytes`` joins;
    * a miniature event loop — a ``heapq`` calendar of slotted event
      records whose callbacks run as they are popped.
    """
    start = time.perf_counter()
    table: Dict[str, int] = {}
    chunks: List[bytes] = []
    for i in range(_MIX_ITERATIONS):
        record = _RefRecord(i, (i, "w%d" % (i & 63)))
        table[record.tag[1]] = record.shifted(i)
        chunks.append(_PACK(i & 0xFFFFFFFF, i))
        if len(chunks) > 256:
            b"".join(chunks)
            chunks.clear()
    fired = [0]

    def callback(amount: int) -> None:
        fired[0] += amount

    calendar: List[tuple] = []
    for i in range(_EVENT_ITERATIONS):
        heapq.heappush(calendar, (i * 0.5 % 97.0, i,
                                  _RefRecord(i, None, callback, (1,))))
        if len(calendar) > 64:
            event = heapq.heappop(calendar)[2]
            event.callback(*event.args)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """How much slower than nominal the machine ran around a window."""
    return (before + after) / (2.0 * REFERENCE_NOMINAL_S)


class WindowLog:
    """Timed windows, each bracketed by reference-loop passes.

    ``reference`` passes interleave with the windows — ref, window, ref,
    window, ref — so each window is scaled by the two passes around it.
    """

    def __init__(self) -> None:
        self.references: List[float] = []
        self.walls: List[float] = []
        self.tuples: List[int] = []

    def time(self, advance, count) -> None:
        """Run ``advance()`` on the wall clock; ``count()`` before and
        after gives the work the window did."""
        if not self.references:
            self.references.append(reference_seconds())
        before = count()
        start = time.perf_counter()
        advance()
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.tuples.append(count() - before)
        self.references.append(reference_seconds())

    def __len__(self) -> int:
        return len(self.walls)

    @property
    def wall_total(self) -> float:
        return sum(self.walls)

    def raw_rates(self) -> List[float]:
        return [n / w for n, w in zip(self.tuples, self.walls) if w > 0]

    def normalized_rates(self) -> List[float]:
        out = []
        for index, (n, wall) in enumerate(zip(self.tuples, self.walls)):
            if wall > 0:
                factor = speed_factor(self.references[index],
                                      self.references[index + 1])
                out.append(n / wall * factor)
        return out

    def normalized_wall(self) -> float:
        """Total window wall time at reference speed."""
        return sum(wall / speed_factor(self.references[i],
                                       self.references[i + 1])
                   for i, wall in enumerate(self.walls))

    def samples(self) -> Dict[str, List[float]]:
        return {"wall_s": list(self.walls), "tuples": list(self.tuples),
                "reference_s": list(self.references)}


def timed_setup(build):
    """Run ``build()`` between two reference passes; returns
    ``(result, raw_seconds, normalized_seconds)``.

    Garbage from earlier clusters is collected first, so every set-up
    starts from the same heap and the process's peak memory does not
    depend on how many set-ups came before."""
    gc.collect()
    before = reference_seconds()
    start = time.perf_counter()
    result = build()
    raw = time.perf_counter() - start
    after = reference_seconds()
    return result, raw, raw / speed_factor(before, after)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int, workload: str,
               seconds: float, trace: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
    }


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (``None`` with
    fewer than two values or a zero median)."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None
