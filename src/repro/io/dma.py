"""Runtime stream state and chip-capacity allocation.

A *stream* is work flowing through a chip at a (piecewise-constant) rate:

* a **DMA** stream is one released transfer — its nominal demand is its
  bus-bandwidth share divided by the chip bandwidth (1/3 of a chip for a
  full PCI-X bus against RDRAM-1600), because the bus cannot deliver
  DMA-memory requests any faster;
* a **PROC** stream is a burst of processor cache-line accesses served
  back-to-back (demand 1, highest priority per Section 4.1.3);
* a **MIGRATION** stream is a PL page-copy batch that soaks up whatever
  capacity is left (lowest priority, Section 4.2.2).

:func:`allocate_chip_capacity` performs priority-ordered water-filling of
one chip's capacity across its streams; the engine calls it at every
change-point.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.traces.records import DMATransfer, ProcessorBurst

_stream_ids = itertools.count()


class StreamKind(enum.Enum):
    """Stream categories in descending service priority."""

    PROC = 0
    DMA = 1
    MIGRATION = 2


@dataclass
class FluidStream:
    """One in-flight unit of chip work.

    Work is measured in *chip serving cycles*. A granted share ``g`` (a
    fraction of chip capacity) drains work at ``g`` cycles per cycle, so a
    stream with ``remaining_work`` finishes in ``remaining_work / g``.

    Attributes:
        kind: stream category (priority class).
        chip_id: chip the stream runs on.
        bus_id: bus carrying the stream (DMA streams only).
        total_work: total chip serving cycles the stream needs.
        demand: nominal fraction of chip capacity the stream can consume
            (bus-limited for DMA; 1.0 for PROC and MIGRATION).
        record: originating trace record, if any.
        arrival_time: when the transfer arrived at the controller.
        release_time: when service was allowed to begin (gathering and
            wake-up delays push this past ``arrival_time``).
        granted: current granted share of chip capacity.
    """

    kind: StreamKind
    chip_id: int
    total_work: float
    demand: float
    bus_id: int | None = None
    record: DMATransfer | ProcessorBurst | None = None
    arrival_time: float = 0.0
    release_time: float = 0.0
    #: DMA-memory requests this stream stands for (0 for PROC/MIGRATION);
    #: used by DMA-TA to size the stream's per-transfer slack budget.
    num_requests: int = 0
    #: Engine-assigned per-run transfer ordinal; keys the audit layer's
    #: per-transfer waterfall.
    seq: int = 0
    #: Hash and equality key. The engine numbers its streams per run; the
    #: module-wide default only serves streams built outside an engine.
    stream_id: int = field(default_factory=lambda: next(_stream_ids))

    # Dynamics (engine-managed).
    remaining_work: float = field(init=False)
    granted: float = 0.0
    last_sync: float = field(init=False)
    version: int = 0
    #: When the stream actually began serving at its chip (after the
    #: controller release, any bus queueing, and the chip wake-up).
    service_start: float = field(default=0.0, init=False)
    #: Extra per-request service cycles accumulated from chip-side
    #: throttling (processor priority, chip saturation). See DESIGN.md:
    #: a stream slowed from demand d to grant g for dt cycles delays its
    #: requests by (d - g) * dt serving cycles in total.
    extra_service_cycles: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise SimulationError("stream with non-positive work")
        if not 0 < self.demand <= 1.0 + 1e-12:
            raise SimulationError(f"stream demand {self.demand} out of (0,1]")
        self.remaining_work = self.total_work
        self.last_sync = self.release_time

    def __hash__(self) -> int:
        return self.stream_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FluidStream) and other.stream_id == self.stream_id

    # --- dynamics -------------------------------------------------------

    def sync(self, now: float) -> None:
        """Drain work for time elapsed since the last change-point."""
        if now < self.last_sync - 1e-9:
            raise SimulationError("stream time moved backwards")
        elapsed = max(0.0, now - self.last_sync)
        if not self.done and self.is_dma:
            self.extra_service_cycles += elapsed * max(
                0.0, self.demand - self.granted)
        self.remaining_work = max(
            0.0, self.remaining_work - elapsed * self.granted)
        self.last_sync = now

    def projected_completion(self, now: float) -> float:
        """When the stream finishes at its current granted share."""
        if self.remaining_work <= 1e-9:
            return now
        if self.granted <= 0:
            return math.inf
        return now + self.remaining_work / self.granted

    @property
    def done(self) -> bool:
        return self.remaining_work <= 1e-9

    @property
    def is_dma(self) -> bool:
        return self.kind is StreamKind.DMA

    # --- stats ------------------------------------------------------------

    @property
    def head_delay(self) -> float:
        """Delay imposed on the transfer's first request (gather + wake)."""
        return max(0.0, self.release_time - self.arrival_time)


def water_fill(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` across ``demands``.

    Every demand below the fair water level is fully granted; the rest
    split what remains equally. Returns grants in input order.
    """
    if capacity <= 0 or not demands:
        return [0.0] * len(demands)
    total = sum(demands)
    if total <= capacity + 1e-12:
        return list(demands)
    order = sorted(range(len(demands)), key=lambda i: demands[i])
    grants = [0.0] * len(demands)
    remaining = capacity
    active = len(demands)
    for position, index in enumerate(order):
        fair = remaining / active
        grant = min(demands[index], fair)
        grants[index] = grant
        remaining -= grant
        active -= 1
    return grants


def allocate_chip_capacity(streams: list[FluidStream]) -> None:
    """Set each stream's ``granted`` share of one chip's capacity.

    Priority order PROC > DMA > MIGRATION (Section 4.1.3 solution 1 and
    Section 4.2.2): each class water-fills whatever capacity the classes
    above it left. Callers must have synced the streams to the current
    time first; grants apply from now until the next change-point.
    """
    capacity = 1.0
    for kind in (StreamKind.PROC, StreamKind.DMA, StreamKind.MIGRATION):
        group = [s for s in streams if s.kind is kind and not s.done]
        if not group:
            continue
        grants = water_fill([s.demand for s in group], capacity)
        for stream, grant in zip(group, grants):
            stream.granted = grant
        capacity = max(0.0, capacity - sum(grants))
    for stream in streams:
        if stream.done:
            stream.granted = 0.0
