"""Deterministic discrete-event kernel.

Virtual clock in integer microseconds, an ordered event queue with
insertion-order tie-breaking, and named seeded random streams.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Callable

import numpy as np

US_PER_MS = 1_000
US_PER_S = 1_000_000


def ms(x: float) -> int:
    """Milliseconds to integer microseconds."""
    return round(x * US_PER_MS)


def sec(x: float) -> int:
    """Seconds to integer microseconds."""
    return round(x * US_PER_S)


class SchedulingError(Exception):
    """Raised when an event is scheduled before the current clock."""


class EventQueue:
    """Priority queue of timed events, popped in (fire_at, seq) order.

    seq is assigned at schedule time, so simultaneous events fire in the
    order they were scheduled. A heap entry is the tuple (fire_at, seq,
    action), which schedule() returns as the event's handle; cancel()
    takes the entry out of the heap.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0
        self.clock = 0

    def schedule(self, fire_at: int, action: Callable[[], None]) -> tuple:
        if fire_at < self.clock:    # the clock is never negative, so a negative time is caught here
            raise SchedulingError(
                f"negative fire time {fire_at}" if fire_at < 0
                else f"cannot schedule at {fire_at} us: clock is already {self.clock} us")
        entry = (fire_at, self._seq, action)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: tuple) -> bool:
        """Cancel a pending event; False if it already fired or was cancelled."""
        try:
            self._heap.remove(entry)    # seq is unique, so only this entry equals it
        except ValueError:
            return False
        heapq.heapify(self._heap)
        return True

    def run_until(self, horizon: int) -> int:
        """Execute all events with fire_at <= horizon; returns the final clock."""
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= horizon:
            self.clock, _, action = pop(heap)
            action()
        if horizon > self.clock:
            self.clock = horizon
        return self.clock


class RandomStream:
    """Named deterministic random stream.

    The same (seed, stream_id) pair yields the same draw sequence no
    matter how other streams are interleaved, so adding a stochastic
    source never perturbs existing ones.
    """

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        key = zlib.crc32(stream_id.encode("utf-8"))
        self._rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, key])

    def lognormal(self, sigma: float) -> float:
        return float(self._rng.lognormal(mean=0.0, sigma=sigma))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self._rng.uniform(lo, hi))

    def poisson(self, lam: float) -> int:
        return int(self._rng.poisson(lam))

    def choice(self, options, p=None):
        return self._rng.choice(options, p=p)


class StreamFactory:
    """Hands out one RandomStream per named source for a base seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, stream_id: str) -> RandomStream:
        if stream_id not in self._streams:
            self._streams[stream_id] = RandomStream(self.seed, stream_id)
        return self._streams[stream_id]
