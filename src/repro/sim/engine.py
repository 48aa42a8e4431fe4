"""Event-queue plumbing shared by both simulation engines."""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import Any

from repro.errors import SimulationError


class EventKind(enum.IntEnum):
    """Event taxonomy. Lower values win ties at equal timestamps.

    COMPLETE precedes ARRIVAL at the same instant so that a chip freed by
    a finishing transfer is seen idle by a simultaneous arrival — matching
    the hardware, where the controller observes completion first.
    """

    COMPLETE = 0
    STREAM_START = 1
    ARRIVAL = 2
    PROC_DONE = 3
    # EPOCH is kept in the queue's slot (EventQueue.set_slot).
    EPOCH = 4
    INTERVAL = 5
    # PROBE (the epoch probe feeding telemetry and digests) pops last at
    # equal timestamps so it observes the settled state of its instant;
    # its handler is read-only.
    PROBE = 6


class EventQueue:
    """A deterministic time-ordered event queue (heapq based).

    Ties are broken by :class:`EventKind`, then by insertion order, so a
    run is fully reproducible.

    Besides the heap the queue holds one *slot*: a single pending event
    of a recurring kind (the DMA-TA epoch), set with :meth:`set_slot`
    and kept outside the heap, so re-arming it costs no heap push or
    pop. :meth:`pop` returns it in the heap's ``(time, kind)`` order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        #: ``(time, kind)`` of the slot event, or ``None``.
        self._slot: tuple[float, Any] | None = None

    @property
    def now(self) -> float:
        """Timestamp of the last popped event."""
        return self._now

    @property
    def slot_time(self) -> float:
        """Time of the slot event (``math.inf`` when the slot is empty)."""
        return self._slot[0] if self._slot is not None else math.inf

    def _check_time(self, time: float) -> None:
        if time < self._now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past ({time} < {self._now})")

    def push(self, time: float, kind: Any, payload: Any = None) -> None:
        """Schedule an event. ``kind`` must be int-comparable (enum or int)."""
        self._check_time(time)
        heapq.heappush(self._heap, (time, kind, next(self._seq), payload))

    def set_slot(self, time: float, kind: Any) -> None:
        """Schedule the slot event (payload ``None``), replacing any
        pending one. At equal ``(time, kind)`` it pops before heap
        events; no heap event shares its kind in practice."""
        self._check_time(time)
        self._slot = (time, kind)

    def pop(self) -> tuple[float, Any, Any]:
        heap = self._heap
        slot = self._slot
        # A 4-tuple sorts after a 2-tuple with the same first two items.
        if heap and (slot is None or heap[0] < slot):
            time, kind, _, payload = heapq.heappop(heap)
        elif slot is not None:
            self._slot = None
            time, kind = slot
            payload = None
        else:
            raise SimulationError("pop from empty event queue")
        if time > self._now:
            self._now = time
        return time, kind, payload

    def __len__(self) -> int:
        return len(self._heap) + (self._slot is not None)

    def __bool__(self) -> bool:
        return self._slot is not None or bool(self._heap)
