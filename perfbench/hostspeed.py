"""Host speed, sampled with a fixed pure-Python kernel.

The machine this benchmark was written on is shared, and its speed moves a
lot: on a 2-core Xeon (2.0 GHz, Python 3.11) a fig5-oltp-st pass took 5.5 to
6.5 s for an hour and then 2.6 s, and within the slow hour it drifted by
±25% over tens of seconds. The simulator and this kernel moved together.
Alternating a 10 ms OLTP-St DMA-TA-PL simulate call with the kernel gave a
call/kernel ratio of 5.8 to 6.8 when the kernel took 47 to 90 ms, and 6.0
to 6.3 when it took 35 to 37 ms.

So each run samples the kernel between its passes. It reports host seconds
scaled by ``NOMINAL_S / kernel seconds``, the median of the run's samples:
that is, seconds on a host where the kernel takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds the kernel takes on the machine above when it is not slowed.
NOMINAL_S = 0.036
#: Kernel samples taken at each sampling point.
SAMPLES = 3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _kernel(n: int = 40_000) -> float:
    """Object allocation, attribute access, dict updates, a heap and float
    arithmetic: the mix the simulator's event loop runs on."""
    table: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    head = None
    acc, x = 0.0, 0.5
    for i in range(n):
        x = (x * 3.7 * (1.0 - x)) % 1.0 or 0.5
        head = _Node(i & 1023, x, head if i % 64 else None)
        table[head.key] = table.get(head.key, 0.0) + head.value
        heapq.heappush(heap, (x, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
    return acc + sum(table.values())


def sample(samples: list[float]) -> None:
    """Append :data:`SAMPLES` kernel times to ``samples``. Garbage
    collection is held off, so a sample does not depend on the size of
    the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
