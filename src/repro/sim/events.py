"""Event queue of the discrete-event simulator.

Events are plain (time, priority, sequence, callback) tuples on a binary heap.
The sequence number makes ordering deterministic for events scheduled at the
same time, and the priority field lets structural events (arrivals, manager
decisions) run before job releases scheduled at the same instant.  Events
cannot be cancelled: a callback that no longer applies checks its own state
when it fires.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

__all__ = ["EventQueue", "EVENT_PRIORITY_STRUCTURAL", "EVENT_PRIORITY_DEFAULT"]

#: Priority for arrivals/departures/requirement changes and manager epochs.
EVENT_PRIORITY_STRUCTURAL = 0
#: Priority for ordinary job release / completion events.
EVENT_PRIORITY_DEFAULT = 10


class EventQueue:
    """A deterministic time-ordered event queue."""

    __slots__ = ("_heap", "_next_sequence", "now_ms", "_end_ms")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._next_sequence = 0
        self.now_ms: float = 0.0
        # End time of the run_until call in progress (-inf between runs).
        self._end_ms = float("-inf")

    def schedule(
        self,
        time_ms: float,
        callback: Callable[[], None],
        priority: int = EVENT_PRIORITY_DEFAULT,
    ) -> None:
        """Schedule ``callback`` to run at ``time_ms``.

        Scheduling in the past is clamped to the current time (the event runs
        next).
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        if time_ms < self.now_ms:
            time_ms = self.now_ms
        heapq.heappush(self._heap, (time_ms, priority, sequence, callback))

    def claim_next(self, time_ms: float, priority: int) -> bool:
        """Whether an event scheduled now at ``(time_ms, priority)`` would run next.

        True when the running :meth:`run_until` would pop such an event
        before anything already queued and without passing its end time; the
        clock then moves to ``time_ms`` and the caller runs the event's work
        inline instead of scheduling it.  A newly scheduled event takes the
        largest sequence number, so it wins only a strict ``(time,
        priority)`` comparison against the queue head.  Outside
        :meth:`run_until` the answer is always False.
        """
        heap = self._heap
        if time_ms > self._end_ms or (heap and (time_ms, priority) >= heap[0][:2]):
            return False
        self.now_ms = time_ms
        return True

    def run_until(self, end_time_ms: float) -> int:
        """Run events in order until the queue is empty or ``end_time_ms`` is reached.

        Returns the number of queued events popped (work a callback runs
        inline through :meth:`claim_next` is not counted).  ``now_ms`` ends
        up at ``end_time_ms`` (or at the last event time if that is later due
        to an event scheduling exactly at the boundary).
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        self._end_ms = end_time_ms
        while heap and heap[0][0] <= end_time_ms:
            time_ms, _, _, callback = heappop(heap)
            self.now_ms = time_ms
            callback()
            executed += 1
        self._end_ms = float("-inf")
        if self.now_ms < end_time_ms:
            self.now_ms = end_time_ms
        return executed
