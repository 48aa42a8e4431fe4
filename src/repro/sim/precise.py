"""The precise (per-DMA-memory-request) reference engine.

Every 8-byte DMA-memory request is an explicit event: the bus transmits it
(one request per bus period, FIFO/round-robin among the bus's in-flight
transfers), the chip queues and serves it (4 cycles at Table 1 defaults,
processor accesses first), and the dynamic policy walks the chip down
through its power states with real timers. This reproduces Figure 2(a)
literally — serve 4 cycles, sit active-idle 8 — and is the ground truth
the fluid engine is validated against.

It is two to three orders of magnitude slower than the fluid engine, so
use it for small traces, tests, and spot checks.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque

from repro.config import SimulationConfig
from repro.core.controller import BaselineController, MemoryController
from repro.core.layout import PopularityGrouper
from repro.core.migration import MigrationPlanner
from repro.core.popularity import PopularityTracker
from repro.energy.accounting import (BUCKET_SLOT, EnergyBreakdown,
                                     TimeBreakdown)
from repro.energy.policies import AlwaysOnPolicy
from repro.energy.states import PowerState
from repro.errors import ConfigurationError, GuaranteeViolationError
from repro.io.devices import BusAssigner
from repro.memory.address import MutableLayout, PageLayout, RandomLayout
from repro.obs.events import TRACK_SIM, bus_track, chip_track
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import attach as attach_probe
from repro.obs.tracer import active_tracer
from repro.sim.engine import EventQueue
from repro.sim.results import SimulationResult
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

TECHNIQUES = ("nopm", "baseline", "dma-ta", "pl", "dma-ta-pl")

# Event kinds (kept local: the precise engine has its own taxonomy).
_EV_ARRIVAL = 0
_EV_BUS_FREE = 1
_EV_REQUEST_AT_CHIP = 2
_EV_SERVE_DONE = 3
_EV_CHIP_READY = 4
_EV_DESCENT = 5
_EV_EPOCH = 6  # kept in the queue's slot (EventQueue.set_slot)
_EV_INTERVAL = 7
# Highest kind: the epoch probe pops last at equal timestamps, so it
# observes the settled state of its instant. Handled inline in the run
# loop (read-only, never in _HANDLERS, never extends the run).
_EV_PROBE = 8

# Request priority classes (lower value served first).
_PRIO_PROC = 0
_PRIO_DMA = 1
_PRIO_MIGRATION = 2


@dataclass
class _PTransfer:
    """Runtime state of one DMA transfer in the precise engine."""

    record: DMATransfer
    chip_id: int
    bus_id: int
    total_requests: int
    arrival_time: float
    release_time: float = 0.0
    transmitted: int = 0
    served: int = 0
    #: Requests delivered to the chip but not yet served. The DMA engine
    #: keeps at most two in flight (one in service, one on the wire) —
    #: the pipelining behind Figure 2(a)'s fixed 12-cycle request cadence
    #: — and stalls when the chip falls behind (e.g. while waking).
    outstanding: int = 0
    stalled: bool = False
    #: Engine-assigned per-run transfer ordinal (deterministic, unlike
    #: ``id(self)``); keys the audit layer's per-transfer waterfall.
    seq: int = 0
    #: Wake latency paid by this transfer's release (audit waterfall).
    wake_wait: float = 0.0
    #: Per-request service inflation accumulated for this transfer;
    #: only maintained while a tracer is attached.
    extra_cycles: float = 0.0
    #: Stale ``REQUEST_AT_CHIP`` events to swallow. When the array-
    #: timeline kernel fast-forwards a steady window it re-arms the
    #: in-flight request at the post-window time; the pre-window event
    #: pair is still in the heap and must be ignored once.
    skip_arrivals: int = 0

    @property
    def done(self) -> bool:
        return self.served >= self.total_requests

    @property
    def head_delay(self) -> float:
        return max(0.0, self.release_time - self.arrival_time)

    # Duck-typing for the shared controllers.
    @property
    def is_dma(self) -> bool:
        return True

    @property
    def num_requests(self) -> int:
        return self.total_requests

    @property
    def stream_id(self) -> int:
        return id(self)


@dataclass
class _Request:
    """One queued unit of chip work."""

    priority: int
    arrival: float
    cycles: float
    transfer: _PTransfer | None = None


class _PChip:
    """Per-request chip model with explicit power-state timers."""

    def __init__(self, chip_id: int, model, policy) -> None:
        self.chip_id = chip_id
        self.model = model
        self.schedule = policy.schedule(model)
        self.energy = EnergyBreakdown()
        self.time = TimeBreakdown()
        self.wake_count = 0
        #: Optional event tracer (set by the engine when tracing is live).
        self.tracer = None
        #: ``"from->to"`` power-state transition counts.
        self.transition_counts: dict[str, int] = {}
        self._track = chip_track(chip_id)

        self.queue: list[Deque[_Request]] = [deque(), deque(), deque()]
        self.serving: _Request | None = None
        self.inflight_transfers = 0
        #: Transfers actively streaming to this chip (first request on
        #: the wire through last request served), in stream-start order.
        #: ``inflight_transfers`` also counts transfers parked in a bus
        #: FIFO; the array-timeline kernel needs the distinction.
        self.streams: list = []

        # Power state machinery.
        if self.schedule:
            self.state = self.schedule[-1][1]
        else:
            self.state = PowerState.ACTIVE
        self.descent_generation = 0
        self.descent_index = len(self.schedule)  # fully descended at start
        self.idle_since = 0.0
        self.waking_until: float | None = None
        self.transition_until: float | None = None
        self.transition_target: PowerState | None = None

        # Accrual bookkeeping.
        self._last = 0.0

    # --- accrual ---------------------------------------------------------

    def touch(self, now: float) -> None:
        """Accrue energy/time since the last checkpoint at the current mode."""
        if now <= self._last:
            return
        start = self._last
        delta = now - self._last
        self._last = now
        seconds = delta / self.model.frequency_hz

        if self.serving is not None:
            power = self.model.active_power
            joules = power * seconds
            if self.serving.priority == _PRIO_PROC:
                bucket = "serving_proc"
                self.time.serving_proc += delta
                self.energy.serving_proc += joules
            elif self.serving.priority == _PRIO_DMA:
                bucket = "serving_dma"
                self.time.serving_dma += delta
                self.energy.serving_dma += joules
            else:
                bucket = "migration"
                self.time.migration += delta
                self.energy.migration += joules
            if self.tracer is not None:
                self.tracer.span(start, delta, "serve", self._track,
                                 {"bucket": bucket, "joules": joules})
            return

        if self.waking_until is not None or self.transition_until is not None:
            # In transit between states; power set when transit began.
            self.time.transition += delta
            self.energy.transition += self._transit_power * seconds
            if self.tracer is not None:
                self.tracer.span(start, delta, "transition", self._track,
                                 {"bucket": "transition",
                                  "joules": self._transit_power * seconds})
            return

        power = self.model.power(self.state)
        joules = power * seconds
        if self.state is PowerState.ACTIVE:
            if self.inflight_transfers > 0:
                bucket = "idle_dma"
                self.time.idle_dma += delta
                self.energy.idle_dma += joules
            else:
                bucket = "idle_threshold"
                self.time.idle_threshold += delta
                self.energy.idle_threshold += joules
            name = "active-idle"
        else:
            bucket = "low_power"
            name = self.state.value
            self.time.low_power += delta
            self.energy.low_power += joules
        if self.tracer is not None:
            self.tracer.span(start, delta, name, self._track,
                             {"bucket": bucket, "joules": joules})

    _transit_power = 0.0

    def observe(self, now: float) -> tuple[list[float], float]:
        """Residency-to-date buckets and instantaneous power at ``now``.

        The buckets come as a list laid out like
        :meth:`TimeBreakdown.as_list`. Strictly read-only: the
        pending ``now - _last`` span is classified exactly as
        :meth:`touch` will classify it, but nothing is accrued —
        splitting an accrual at an observation point would change float
        rounding, and observed runs must stay bit-identical in energy.
        Used by the epoch probe only.
        """
        buckets = self.time.as_list()
        in_transit = (self.waking_until is not None
                      or self.transition_until is not None)
        if self.serving is not None:
            power = self.model.active_power
        elif in_transit:
            power = self._transit_power
        else:
            power = self.model.power(self.state)
        delta = now - self._last
        if delta <= 0:
            return buckets, power
        if self.serving is not None:
            if self.serving.priority == _PRIO_PROC:
                bucket = "serving_proc"
            elif self.serving.priority == _PRIO_DMA:
                bucket = "serving_dma"
            else:
                bucket = "migration"
        elif in_transit:
            bucket = "transition"
        elif self.state is PowerState.ACTIVE:
            bucket = ("idle_dma" if self.inflight_transfers > 0
                      else "idle_threshold")
        else:
            bucket = "low_power"
        buckets[BUCKET_SLOT[bucket]] += delta
        return buckets, power

    def _count_transition(self, source: PowerState,
                          target: PowerState) -> None:
        edge = f"{source.value}->{target.value}"
        self.transition_counts[edge] = self.transition_counts.get(edge, 0) + 1

    # --- power state ------------------------------------------------------

    def is_low_power(self, now: float) -> bool:
        if self.waking_until is not None:
            return False  # already on the way up
        return self.state is not PowerState.ACTIVE or self.transition_until is not None

    def begin_wake(self, now: float) -> float:
        """Start (or join) a wake-up; returns the ready time."""
        if self.waking_until is not None:
            return self.waking_until
        if self.state is PowerState.ACTIVE and self.transition_until is None:
            return now
        self.touch(now)
        self.descent_generation += 1
        ready = now
        if self.transition_until is not None and self.transition_target is not None:
            # Finish the downward transition first.
            ready = self.transition_until
            pending_state = self.transition_target
            self._count_transition(self.state, pending_state)
        else:
            pending_state = self.state
        up = self.model.upward[pending_state]
        self._transit_power = up.power_watts
        ready += up.time_cycles
        self.waking_until = ready
        self.wake_count += 1
        # The remaining downward leg is subsumed into the transit window;
        # charge it at the downward power by splitting the accrual.
        if self.transition_until is not None and self.transition_until > now:
            down = self.model.downward[self.transition_target]
            leg = self.transition_until - now
            leg_joules = down.power_watts * leg / self.model.frequency_hz
            self.time.transition += leg
            self.energy.transition += leg_joules
            if self.tracer is not None:
                self.tracer.span(now, leg, "transition", self._track,
                                 {"bucket": "transition",
                                  "joules": leg_joules})
            self._last = self.transition_until
        self.transition_until = None
        self.transition_target = None
        self.state = pending_state
        return ready

    def finish_wake(self, now: float) -> None:
        self.touch(now)
        self.waking_until = None
        self._count_transition(self.state, PowerState.ACTIVE)
        self.state = PowerState.ACTIVE
        self.descent_index = 0
        self.idle_since = now

    def begin_descent_step(self, now: float) -> tuple[float, PowerState] | None:
        """Start the next downward transition; returns (end, target)."""
        if self.descent_index >= len(self.schedule):
            return None
        _, target = self.schedule[self.descent_index]
        self.touch(now)
        down = self.model.downward[target]
        self._transit_power = down.power_watts
        self.transition_until = now + down.time_cycles
        self.transition_target = target
        return self.transition_until, target

    def finish_descent_step(self, now: float) -> None:
        self.touch(now)
        assert self.transition_target is not None
        self._count_transition(self.state, self.transition_target)
        self.state = self.transition_target
        self.transition_until = None
        self.transition_target = None
        self.descent_index += 1

    def next_descent_due(self) -> float | None:
        """Idle offset at which the next descent step begins."""
        if self.descent_index >= len(self.schedule):
            return None
        threshold, _ = self.schedule[self.descent_index]
        return self.idle_since + threshold

    # --- queueing ----------------------------------------------------------

    def enqueue(self, request: _Request) -> None:
        self.queue[request.priority].append(request)

    def pop_request(self) -> _Request | None:
        for bucket in self.queue:
            if bucket:
                return bucket.popleft()
        return None

    @property
    def has_queued(self) -> bool:
        return any(self.queue)


class PreciseEngine:
    """Per-request event-driven simulation (the validation reference)."""

    def __init__(self, trace: Trace, config: SimulationConfig,
                 technique: str = "baseline", seed: int = 0,
                 tracer=None, vectorize: bool = True,
                 telemetry=None, digests=None) -> None:
        if technique not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
        self.trace = trace
        self.config = config
        self.technique = technique
        self.tracer = active_tracer(tracer)
        self.registry = MetricsRegistry()

        from repro.sim.fluid import build_base_layout

        policy = AlwaysOnPolicy() if technique == "nopm" else config.policy
        memory = config.memory
        base_layout = build_base_layout(config, seed)
        self._pl_enabled = technique in ("pl", "dma-ta-pl")
        self.layout = MutableLayout(base_layout) if self._pl_enabled else base_layout
        self.chips = [
            _PChip(i, memory.power_model, policy)
            for i in range(memory.num_chips)
        ]
        if self.tracer is not None:
            for chip in self.chips:
                chip.tracer = self.tracer
        self.assigner = BusAssigner(config.buses.count)

        if technique in ("dma-ta", "dma-ta-pl"):
            self.controller: MemoryController = TemporalAlignmentControllerShim(
                config, self._arrived_requests,
                tracer=self.tracer, registry=self.registry)
        else:
            self.controller = BaselineController()

        if self._pl_enabled:
            self._tracker = PopularityTracker(
                counter_bits=config.layout.counter_bits,
                aging_shift=config.layout.aging_shift)
            self._grouper = PopularityGrouper(
                memory.num_chips, memory.pages_per_chip, config.layout)
            self._planner = MigrationPlanner(
                config.layout, tracer=self.tracer, registry=self.registry)
            self._previous_hot: set[int] = set()
            self._previous_candidates: set[int] | None = None
        else:
            self._tracker = None
            self._previous_hot = set()
            self._previous_candidates = None

        # Bus state: one transfer owns a bus at a time (FIFO), matching
        # the fluid engine's default sharing discipline.
        self._bus_fifo: list[Deque[_PTransfer]] = [
            deque() for _ in range(config.buses.count)]
        self._bus_current: list[_PTransfer | None] = [None] * config.buses.count
        self._bus_free_at = [0.0] * config.buses.count
        #: Stale ``BUS_FREE`` events to swallow per bus (see
        #: :attr:`_PTransfer.skip_arrivals`).
        self._bus_skip = [0] * config.buses.count
        bus_bytes_per_cycle = (config.buses.bandwidth_bytes_per_s
                               / config.frequency_hz)
        self._bus_gap = memory.request_bytes / bus_bytes_per_cycle
        self._serve_cycles = config.serve_cycles
        self._proc_serve_cycles = config.proc_serve_cycles
        self._page_copy_cycles = (
            memory.page_bytes / memory.power_model.bytes_per_cycle)
        self._total_pages = memory.total_pages

        self.queue = EventQueue()
        self._records_done = not trace.records
        self._open_transfers = 0

        # Next times at which shared state can be observed (trace
        # arrival, PL interval, probe tick); with the DMA-TA epoch (the
        # queue's slot time) the array-timeline kernel's batching
        # horizon. Maintained wherever the corresponding events are
        # (re-)scheduled.
        self._next_arrival_time = (trace.records[0].time if trace.records
                                   else math.inf)
        self._next_interval_time = math.inf
        self._next_probe_time = math.inf
        if vectorize:
            from repro.sim.array_timeline import ArrayTimelineKernel

            self._kernel: ArrayTimelineKernel | None = ArrayTimelineKernel(self)
        else:
            self._kernel = None

        # Statistics.
        self.transfers = 0
        self.requests = 0
        self.arrived_requests = 0
        self.proc_accesses = 0
        self.head_delay_total = 0.0
        self.extra_service_total = 0.0
        self.migrations = 0
        self.table_flushes = 0
        self._last_completion: dict[int, float] = {}
        self._dma_service_hist = self.registry.histogram(
            "dma.service_per_request")

        self.probe = attach_probe(self, telemetry, digests)

    def _arrived_requests(self) -> float:
        return float(self.arrived_requests)

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self.tracer is not None:
            self.tracer.instant(0.0, "sim.config", TRACK_SIM, {
                "engine": "precise",
                "technique": self.technique,
                "mu": (self.config.alignment.mu
                       if self.technique in ("dma-ta", "dma-ta-pl")
                       else 0.0),
                "service_cycles": self.config.undisturbed_service_cycles,
                "epoch_cycles": self.config.alignment.epoch_cycles,
                "frequency_hz": self.config.memory.power_model.frequency_hz,
                "chips": self.config.memory.num_chips,
                "buses": self.config.buses.count,
            })
        if self.trace.records:
            self.queue.push(self.trace.records[0].time, _EV_ARRIVAL, 0)
        epoch = self.controller.epoch_cycles()
        if epoch:
            self.queue.set_slot(epoch, _EV_EPOCH)
        if self._pl_enabled:
            self.queue.push(self.config.layout.interval_cycles,
                            _EV_INTERVAL, None)
            self._next_interval_time = self.config.layout.interval_cycles
        if self.probe is not None:
            self._next_probe_time = self.probe.period
            self.queue.push(self._next_probe_time, _EV_PROBE, None)

        # ``progress`` tracks the last state-changing event only:
        # a trailing probe tick must not stretch the simulated horizon
        # (that would accrue extra idle energy and break the
        # bit-identical-to-unobserved guarantee). Unobserved, this
        # equals queue.now exactly (heap pops in order).
        progress = 0.0
        while self.queue:
            now, kind, payload = self.queue.pop()
            if kind == _EV_PROBE:
                self._on_probe(now)
                continue
            progress = now
            handler = self._HANDLERS[int(kind)]
            handler(self, payload, now)
            self._maybe_drain(now)

        end = max(progress, self.trace.duration_cycles)
        for chip in self.chips:
            chip.touch(end)
        if self.probe is not None:
            self.probe.sample(end, final=True)
        return self._build_result(end)

    def _on_probe(self, now: float) -> None:
        self.probe.sample(now)
        if self._work_remaining():
            self._next_probe_time = now + self.probe.period
            self.queue.push(self._next_probe_time, _EV_PROBE, None)
        else:
            self._next_probe_time = math.inf

    def _work_remaining(self) -> bool:
        return (not self._records_done or self._open_transfers > 0
                or self.controller.pending_count() > 0
                or any(c.has_queued or c.serving for c in self.chips))

    def _maybe_drain(self, now: float) -> None:
        if (self._records_done and self._open_transfers == 0
                and self.controller.pending_count() > 0
                and not any(c.has_queued or c.serving for c in self.chips)):
            for chip_id, transfers in self.controller.drain(now).items():
                self._do_release(chip_id, transfers, now, notify=True)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, index: int, now: float) -> None:
        record = self.trace.records[index]
        if index + 1 < len(self.trace.records):
            self._next_arrival_time = self.trace.records[index + 1].time
            self.queue.push(self._next_arrival_time, _EV_ARRIVAL, index + 1)
        else:
            self._next_arrival_time = math.inf
            self._records_done = True
        if isinstance(record, DMATransfer):
            self._on_transfer(record, now)
        elif isinstance(record, ProcessorBurst):
            self._on_proc(record, now)

    def _on_transfer(self, record: DMATransfer, now: float) -> None:
        page = record.page % self._total_pages
        chip_id = self.layout.chip_of(page)
        chip = self.chips[chip_id]
        bus_id = self.assigner.assign(record)
        n_req = record.num_requests(self.config.memory.request_bytes)
        self.transfers += 1
        self.requests += n_req
        transfer = _PTransfer(record=record, chip_id=chip_id, bus_id=bus_id,
                              total_requests=n_req, arrival_time=now,
                              seq=self.transfers)
        if self.tracer is not None:
            self.tracer.instant(now, "dma.arrive", TRACK_SIM,
                                {"id": transfer.seq, "chip": chip_id,
                                 "bus": bus_id, "requests": n_req})
        if self._tracker is not None:
            self._tracker.record(page, 1)  # one reference per transfer

        released = self.controller.admit(transfer, chip, now)
        if released:
            self._do_release(chip_id, released, now, notify=True)

    def _on_proc(self, record: ProcessorBurst, now: float) -> None:
        page = record.page % self._total_pages
        chip_id = self.layout.chip_of(page)
        chip = self.chips[chip_id]
        self.proc_accesses += record.count
        work = record.count * self._proc_serve_cycles
        dma_here = chip.inflight_transfers
        self.controller.on_proc_access(chip_id, work, dma_here, now)
        for _ in range(record.count):
            chip.enqueue(_Request(priority=_PRIO_PROC, arrival=now,
                                  cycles=self._proc_serve_cycles))
        # Buffered DMA heads stay buffered across the burst (the slack
        # account is charged for the coexistence, Section 4.1.3).
        self._kick_chip(chip, now)

    def _do_release(self, chip_id: int, transfers, now: float,
                    notify: bool) -> None:
        chip = self.chips[chip_id]
        latency = 0.0
        if chip.is_low_power(now):
            ready = chip.begin_wake(now)
            latency = ready - now
            self.queue.push(ready, _EV_CHIP_READY, chip_id)
        if notify and latency > 0:
            self.controller.on_wake(chip_id, latency, now, len(transfers))
        for transfer in transfers:
            transfer.release_time = now
            transfer.wake_wait = latency
            self.head_delay_total += transfer.head_delay
            self._open_transfers += 1
            chip.touch(now)
            chip.inflight_transfers += 1
            self._enqueue_on_bus(transfer, now)

    # --- bus -----------------------------------------------------------

    def _enqueue_on_bus(self, transfer: _PTransfer, now: float) -> None:
        bus_id = transfer.bus_id
        if self._bus_current[bus_id] is None:
            self._bus_current[bus_id] = transfer
            self._transmit(transfer, now)
        else:
            self._bus_fifo[bus_id].append(transfer)
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", bus_track(bus_id),
                                    float(len(self._bus_fifo[bus_id])))

    def _transmit(self, transfer: _PTransfer, now: float) -> None:
        """Put one DMA-memory request of ``transfer`` on its bus."""
        bus_id = transfer.bus_id
        if transfer.transmitted == 0:
            self.chips[transfer.chip_id].streams.append(transfer)
        start = max(now, self._bus_free_at[bus_id])
        end = start + self._bus_gap
        self._bus_free_at[bus_id] = end
        transfer.transmitted += 1
        transfer.outstanding += 1
        if self.tracer is not None and transfer.transmitted == 1:
            # The transfer's first request hits the wire: the waterfall's
            # wake and bus-queueing stages are now known.
            self.tracer.instant(now, "dma.start", TRACK_SIM,
                                {"id": transfer.seq,
                                 "chip": transfer.chip_id,
                                 "wake": transfer.wake_wait,
                                 "bus_wait": max(0.0, start
                                                 - transfer.release_time)})
        self.queue.push(end, _EV_REQUEST_AT_CHIP, transfer)
        self.queue.push(end, _EV_BUS_FREE, bus_id)

    def _on_bus_free(self, bus_id: int, now: float) -> None:
        """The wire is free: keep the current transfer streaming, or hand
        the bus to the next queued transfer once this one has transmitted
        everything."""
        if self._bus_skip[bus_id]:
            self._bus_skip[bus_id] -= 1
            return
        transfer = self._bus_current[bus_id]
        if transfer is not None:
            if transfer.transmitted < transfer.total_requests:
                if transfer.outstanding >= 2:
                    transfer.stalled = True  # chip is behind; wait for acks
                else:
                    self._transmit(transfer, now)
                return
            self._bus_current[bus_id] = None
        fifo = self._bus_fifo[bus_id]
        if fifo:
            nxt = fifo.popleft()
            if self.tracer is not None:
                self.tracer.counter(now, "queue_depth", bus_track(bus_id),
                                    float(len(fifo)))
            self._bus_current[bus_id] = nxt
            self._transmit(nxt, now)

    def _on_request_ack(self, transfer: _PTransfer, now: float) -> None:
        """The chip served one of the transfer's requests (the ack that
        releases the DMA engine's next transmission when stalled)."""
        transfer.outstanding -= 1
        if (transfer.stalled
                and transfer.transmitted < transfer.total_requests):
            transfer.stalled = False
            self._transmit(transfer, now)
        elif (self._bus_current[transfer.bus_id] is transfer
                and transfer.transmitted >= transfer.total_requests):
            # Last requests acked; pass the bus on if the wire is idle.
            if self._bus_free_at[transfer.bus_id] <= now + 1e-12:
                self._on_bus_free(transfer.bus_id, now)

    # --- chip -----------------------------------------------------------

    def _on_request_at_chip(self, transfer: _PTransfer, now: float) -> None:
        if transfer.skip_arrivals:
            transfer.skip_arrivals -= 1
            return
        chip = self.chips[transfer.chip_id]
        self.arrived_requests += 1
        # A request landing during a wake window starts its service clock
        # when the chip is ready: the wake latency belongs to the power
        # policy (paid in the baseline too), not to the DMA-TA guarantee.
        arrival = now
        if chip.waking_until is not None:
            arrival = max(arrival, chip.waking_until)
        chip.enqueue(_Request(priority=_PRIO_DMA, arrival=arrival,
                              cycles=self._serve_cycles, transfer=transfer))
        self._kick_chip(chip, now)

    def _kick_chip(self, chip: _PChip, now: float) -> None:
        """Start serving if the chip is free, active, and has work."""
        if chip.serving is not None or not chip.has_queued:
            return
        if chip.waking_until is not None:
            return  # CHIP_READY will kick again
        if chip.is_low_power(now):
            ready = chip.begin_wake(now)
            self.queue.push(ready, _EV_CHIP_READY, chip.chip_id)
            return
        chip.touch(now)
        request = chip.pop_request()
        assert request is not None
        chip.serving = request
        chip.descent_generation += 1  # cancel any pending descent timer
        self.queue.push(now + request.cycles, _EV_SERVE_DONE, chip.chip_id)

    def _on_chip_ready(self, chip_id: int, now: float) -> None:
        chip = self.chips[chip_id]
        if chip.waking_until is None or chip.waking_until > now + 1e-9:
            return  # stale (a later wake superseded this one)
        chip.finish_wake(now)
        self._kick_chip(chip, now)
        if chip.serving is None:
            self._arm_descent(chip, now)

    def _on_serve_done(self, chip_id: int, now: float) -> None:
        chip = self.chips[chip_id]
        request = chip.serving
        assert request is not None
        chip.touch(now)
        chip.serving = None

        if request.priority == _PRIO_DMA and request.transfer is not None:
            transfer = request.transfer
            transfer.served += 1
            extra = (now - request.arrival) - request.cycles
            self.extra_service_total += max(0.0, extra)
            if self.tracer is not None:
                transfer.extra_cycles += max(0.0, extra)
            self._dma_service_hist.record(
                max(request.cycles, now - request.arrival)
                + transfer.head_delay / transfer.total_requests)
            self._on_request_ack(transfer, now)
            if transfer.done:
                chip.inflight_transfers -= 1
                chip.streams.remove(transfer)
                self._open_transfers -= 1
                if self.tracer is not None:
                    self.tracer.instant(
                        now, "dma.done", TRACK_SIM,
                        {"id": transfer.seq, "chip": transfer.chip_id,
                         "extra": transfer.extra_cycles,
                         "waited": transfer.head_delay,
                         "mig": int(bool(chip.queue[_PRIO_MIGRATION]))})
                record = transfer.record
                if record.request_id is not None:
                    prior = self._last_completion.get(record.request_id, 0.0)
                    self._last_completion[record.request_id] = max(prior, now)

        if chip.has_queued:
            self._kick_chip(chip, now)
        else:
            chip.idle_since = now
            chip.descent_index = 0
            self._arm_descent(chip, now)
            if self._kernel is not None and chip.streams:
                self._kernel.try_batch(chip, now)

    # --- power descent ----------------------------------------------------

    def _arm_descent(self, chip: _PChip, now: float) -> None:
        due = chip.next_descent_due()
        if due is None:
            return
        chip.descent_generation += 1
        self.queue.push(max(due, now), _EV_DESCENT,
                        (chip.chip_id, chip.descent_generation))

    def _on_descent(self, payload, now: float) -> None:
        chip_id, generation = payload
        chip = self.chips[chip_id]
        if generation != chip.descent_generation:
            return
        if (chip.serving is not None or chip.has_queued
                or chip.waking_until is not None):
            return
        step = chip.begin_descent_step(now)
        if step is None:
            return
        end, _ = step
        # Finish the transition, then arm the next step.
        self.queue.push(end, _EV_DESCENT, (chip_id, -chip.descent_generation))

    def _on_descent_finish(self, chip: _PChip, now: float) -> None:
        chip.finish_descent_step(now)
        self._arm_descent(chip, now)

    # --- epochs and intervals ------------------------------------------------

    def _on_epoch(self, payload, now: float) -> None:
        if not self._work_remaining():
            return
        self.registry.counter("sim.epochs").inc()
        if self.tracer is not None:
            self.tracer.counter(now, "pending_heads", TRACK_SIM,
                                float(self.controller.pending_count()))
            self.tracer.counter(now, "served_requests", TRACK_SIM,
                                float(self.arrived_requests))
        for chip_id, transfers in self.controller.on_epoch(now).items():
            self._do_release(chip_id, transfers, now, notify=True)
        self.queue.set_slot(now + self.controller.epoch_cycles(), _EV_EPOCH)

    def _on_interval(self, payload, now: float) -> None:
        if self._records_done and self._open_transfers == 0:
            self._next_interval_time = math.inf
            return
        assert self._tracker is not None
        ranked = self._tracker.ranked_pages()
        if ranked:
            plan = self._grouper.build_plan(
                ranked, self._previous_hot, self._previous_candidates)
            cold_index = plan.groups[-1].index
            self._previous_hot = {
                page for page, group in plan.page_group.items()
                if group != cold_index}
            self._previous_candidates = plan.candidates
            migration = self._planner.plan_and_apply(plan, self.layout, now)
            self._tracker.age()
            self.migrations += migration.num_moves
            self.table_flushes += migration.table_flushes
            for chip_id, cycles in migration.copy_cycles_per_chip(
                    self._page_copy_cycles).items():
                chip = self.chips[chip_id]
                pages = max(1, round(cycles / self._page_copy_cycles))
                for _ in range(pages):
                    chip.enqueue(_Request(priority=_PRIO_MIGRATION,
                                          arrival=now,
                                          cycles=self._page_copy_cycles))
                self._kick_chip(chip, now)
        if not self._records_done:
            self._next_interval_time = now + self.config.layout.interval_cycles
            self.queue.push(self._next_interval_time, _EV_INTERVAL, None)
        else:
            self._next_interval_time = math.inf

    # ------------------------------------------------------------------

    _HANDLERS = {}

    def _build_result(self, end: float) -> SimulationResult:
        energy = EnergyBreakdown()
        time = TimeBreakdown()
        wakes = 0
        for chip in self.chips:
            energy.add(chip.energy)
            time.add(chip.time)
            wakes += chip.wake_count
        energy.validate()
        time.validate()

        mu = (self.config.alignment.mu
              if self.technique in ("dma-ta", "dma-ta-pl") else 0.0)
        service = self.config.undisturbed_service_cycles
        avg_extra = ((self.head_delay_total + self.extra_service_total)
                     / self.requests) if self.requests else 0.0
        violated = mu > 0 and avg_extra > mu * service * (1 + 1e-6) + 1e-9
        if violated and self.config.strict_guarantee:
            raise GuaranteeViolationError(
                f"average extra service {avg_extra:.3f} cycles exceeds "
                f"mu*T = {mu * service:.3f}")

        responses = {}
        for request_id, client in self.trace.clients.items():
            completion = self._last_completion.get(request_id)
            if completion is None:
                continue
            responses[request_id] = max(
                0.0, completion - client.arrival + client.base_cycles)

        return SimulationResult(
            metrics=self._build_metrics(mu, service),
            trace_name=self.trace.name,
            technique=self.technique,
            engine="precise",
            duration_cycles=end,
            energy=energy,
            time=time,
            transfers=self.transfers,
            requests=self.requests,
            proc_accesses=self.proc_accesses,
            mu=mu,
            service_cycles=service,
            head_delay_cycles=self.head_delay_total,
            extra_service_cycles=self.extra_service_total,
            client_responses=responses,
            migrations=self.migrations,
            table_flushes=self.table_flushes,
            wakes=wakes,
            controller_stats=self.controller.stats(),
            guarantee_violated=violated,
            chip_energy=[c.energy.total for c in self.chips],
        )

    def _build_metrics(self, mu: float, service_cycles: float):
        """Snapshot the run's registry into a :class:`MetricsReport`."""
        registry = self.registry
        registry.counter("sim.transfers").inc(self.transfers)
        registry.counter("sim.requests").inc(self.requests)
        registry.counter("sim.proc_accesses").inc(self.proc_accesses)
        registry.counter("sim.wakes").inc(
            sum(c.wake_count for c in self.chips))
        if self._kernel is not None:
            registry.counter("kernel.batches").inc(self._kernel.batches)
            registry.counter("kernel.batched_requests").inc(
                self._kernel.batched_requests)
        registry.gauge("dma.service_bound").set((1 + mu) * service_cycles)
        slack = getattr(self.controller, "slack", None)
        if slack is not None:
            registry.counter("slack.violations").inc(slack.violations)
        chip_residency: dict[int, dict[str, float]] = {}
        transitions: dict[str, int] = {}
        for chip in self.chips:
            buckets = chip.time.as_dict()
            buckets.pop("total", None)
            chip_residency[chip.chip_id] = buckets
            for edge, count in chip.transition_counts.items():
                transitions[edge] = transitions.get(edge, 0) + count
        return registry.report(chip_residency=chip_residency,
                               transitions=transitions)


def _dispatch_descent(engine: PreciseEngine, payload, now: float) -> None:
    chip_id, generation = payload
    chip = engine.chips[chip_id]
    if generation < 0:
        # Transition-finish marker (generation stored negated).
        if -generation == chip.descent_generation and chip.transition_target:
            engine._on_descent_finish(chip, now)
        return
    engine._on_descent(payload, now)


PreciseEngine._HANDLERS = {
    _EV_ARRIVAL: PreciseEngine._on_arrival,
    _EV_BUS_FREE: PreciseEngine._on_bus_free,
    _EV_REQUEST_AT_CHIP: PreciseEngine._on_request_at_chip,
    _EV_SERVE_DONE: PreciseEngine._on_serve_done,
    _EV_CHIP_READY: PreciseEngine._on_chip_ready,
    _EV_DESCENT: _dispatch_descent,
    _EV_EPOCH: PreciseEngine._on_epoch,
    _EV_INTERVAL: PreciseEngine._on_interval,
}


class TemporalAlignmentControllerShim:
    """A thin import indirection so both engines share one controller.

    The precise engine's transfers duck-type the fluid streams (only
    ``bus_id`` and identity are used by the controller), so the shared
    :class:`~repro.core.temporal_alignment.TemporalAlignmentController`
    works unchanged; this subclass exists purely to keep the import local
    and the intent explicit.
    """

    def __new__(cls, config, arrived_requests, tracer=None, registry=None):
        from repro.core.temporal_alignment import TemporalAlignmentController

        return TemporalAlignmentController(config, arrived_requests,
                                           tracer=tracer, registry=registry)
