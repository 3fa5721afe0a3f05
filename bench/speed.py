"""A probe of how fast the machine runs pure Python at the moment.

On a shared virtual machine a core's speed can change by up to half for
seconds at a time, and it changes the same way for the package and for
any other Python code run at the same moment.  `Probe.seconds()`
times a fixed slice of work; `run.py` runs it among the operations and
scales each round's time to the speed at which the slice takes `REF_S`
(README, "Speed scaling").  The slice is the benchmark's own code, so a
change to the package cannot move it.
"""

from __future__ import annotations

import random
import time

# The slice's time at the reference speed, near its median on the
# machine of the README's figures.
REF_S = 0.0075
RING_CELLS = 100_000
STEPS = 12_000


class _Cell:
    __slots__ = ("next", "bit")


class Probe:
    """A fixed slice of work of the kinds the package does: dict updates
    and integer arithmetic, then a walk along a ring of objects linked in
    shuffled order, which touches memory out of order as the package's
    trees do.  Each walk goes on from where the last one ended.  The
    slice allocates no object the garbage collector tracks, so no
    collection starts inside it."""

    def __init__(self):
        cells = [_Cell() for _ in range(RING_CELLS)]
        order = list(range(RING_CELLS))
        random.Random(0).shuffle(order)
        for i, j in zip(order, order[1:] + order[:1]):
            cells[i].next = cells[j]
            cells[i].bit = i & 1
        self._at = cells[0]

    def _slice(self) -> int:
        table = {}
        acc = 0
        for i in range(STEPS):
            k = i & 511
            table[k] = table.get(k, 0) + i
            acc ^= (i * 2654435761) & 0xFFFF
        cell = self._at
        for _ in range(STEPS):
            cell = cell.next
            acc += cell.bit
            cell = cell.next
        self._at = cell
        return acc

    def seconds(self) -> float:
        """The time of one slice."""
        start = time.perf_counter()
        self._slice()
        return time.perf_counter() - start

    def scale(self, seconds: float, slice_seconds: float) -> float:
        """`seconds` measured while a slice took `slice_seconds`, at the
        reference speed."""
        return seconds * REF_S / slice_seconds
