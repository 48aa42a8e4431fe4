"""The fluid (change-point) simulation engine.

State only changes at *change-points*: transfer arrivals and completions,
gather releases, processor bursts, epoch/interval ticks, and wake
completions. Between change-points every chip carries a set of
constant-rate streams and energy accrues in closed form
(:class:`~repro.memory.chip.FluidChip`). For the paper's strictly periodic
DMA-memory request streams this is exact in aggregate while being orders
of magnitude faster than per-request simulation; the test suite
cross-validates it against :class:`~repro.sim.precise.PreciseEngine`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from repro.config import SimulationConfig
from repro.core.controller import BaselineController, MemoryController
from repro.core.layout import PopularityGrouper
from repro.core.migration import MigrationPlanner
from repro.core.popularity import PopularityTracker
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.energy.policies import AlwaysOnPolicy
from repro.errors import ConfigurationError, GuaranteeViolationError
from repro.io.bus import FluidBus
from repro.io.devices import BusAssigner
from repro.io.dma import FluidStream, StreamKind, allocate_chip_capacity
from repro.memory.address import (
    InterleavedLayout,
    MutableLayout,
    PageLayout,
    RandomLayout,
    SequentialLayout,
)
from repro.memory.chip import ChipRates, FluidChip
from repro.memory.system import MemorySystem
from repro.obs.events import TRACK_SIM
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import attach as attach_probe
from repro.obs.tracer import active_tracer
from repro.sim.engine import EventKind, EventQueue
from repro.sim.results import SimulationResult
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace

#: Remaining-work threshold (serving cycles) below which a stream is done.
_DONE_EPS = 1e-6

TECHNIQUES = ("nopm", "baseline", "dma-ta", "pl", "dma-ta-pl")


def build_base_layout(config: SimulationConfig, seed: int) -> PageLayout:
    """The initial page placement selected by ``config.base_layout``."""
    memory = config.memory
    if config.base_layout == "sequential":
        return SequentialLayout(memory.num_chips, memory.pages_per_chip)
    if config.base_layout == "interleaved":
        return InterleavedLayout(memory.num_chips, memory.pages_per_chip)
    return RandomLayout(memory.num_chips, memory.pages_per_chip, seed=seed)


class FluidEngine:
    """One simulation run of a trace under a technique.

    Args:
        trace: the input trace.
        config: platform and technique parameters.
        technique: one of ``nopm`` (no power management, the performance
            reference), ``baseline`` (the low-level dynamic policy alone),
            ``dma-ta``, ``pl``, or ``dma-ta-pl``.
        seed: seed of the baseline random page layout.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; when given
            (and enabled) the run emits power-state residency spans, TA
            buffering/release decisions, slack charges, PL migrations,
            and per-epoch progress counters. A disabled or ``None``
            tracer is normalised away so the hot paths pay a single
            ``is not None`` check.
        telemetry: optional
            :class:`~repro.obs.telemetry.TelemetrySampler`.
        digests: optional :class:`~repro.obs.diff.DigestRecorder`.
            When either is given, one :class:`~repro.obs.probe.EpochProbe`
            feeds both from read-only PROBE events at their shared
            cadence. The probe never touches chip accrual, so an
            observed run stays bit-identical in energy.
    """

    def __init__(self, trace: Trace, config: SimulationConfig,
                 technique: str = "baseline", seed: int = 0,
                 record_timeline: bool = False,
                 tracer=None, telemetry=None, digests=None) -> None:
        if technique not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
        self.trace = trace
        self.config = config
        self.technique = technique
        self._record_timeline = record_timeline
        self.tracer = active_tracer(tracer)
        self.registry = MetricsRegistry()

        policy = AlwaysOnPolicy() if technique == "nopm" else config.policy
        memory_config = config.memory
        base_layout = build_base_layout(config, seed)
        self._pl_enabled = technique in ("pl", "dma-ta-pl")
        layout = MutableLayout(base_layout) if self._pl_enabled else base_layout
        self.memory = MemorySystem(memory_config, policy, layout)
        if record_timeline:
            for chip in self.memory.chips:
                chip.timeline = []
        if self.tracer is not None:
            for chip in self.memory.chips:
                chip.tracer = self.tracer

        model = memory_config.power_model
        self.buses = [
            FluidBus(i, config.buses.bandwidth_bytes_per_s, model,
                     sharing=config.buses.sharing)
            for i in range(config.buses.count)
        ]
        if self.tracer is not None:
            for bus in self.buses:
                bus.tracer = self.tracer
        self.assigner = BusAssigner(config.buses.count)

        if technique in ("dma-ta", "dma-ta-pl"):
            self.controller: MemoryController = TemporalAlignmentController(
                config, self._served_requests,
                tracer=self.tracer, registry=self.registry)
        else:
            self.controller = BaselineController()

        if self._pl_enabled:
            self._tracker = PopularityTracker(
                counter_bits=config.layout.counter_bits,
                aging_shift=config.layout.aging_shift)
            self._grouper = PopularityGrouper(
                memory_config.num_chips, memory_config.pages_per_chip,
                config.layout)
            self._planner = MigrationPlanner(
                config.layout, tracer=self.tracer, registry=self.registry)
            self._previous_hot: set[int] = set()
            self._previous_candidates: set[int] | None = None
        else:
            self._tracker = None
            self._grouper = None
            self._planner = None
            self._previous_hot = set()
            self._previous_candidates = None

        # Runtime state.
        self.queue = EventQueue()
        #: Per-run stream numbering: streams hash by id and the sets below
        #: are walked in hash order, so numbering shared across runs would
        #: let earlier runs in the process change this run's floats.
        self._stream_ids = itertools.count()
        self._streams_at: dict[int, set[FluidStream]] = defaultdict(set)
        self._active: set[FluidStream] = set()
        self._records_done = not trace.records
        self._pending_starts = 0
        #: Time of the last event that actually changed state. Stale
        #: (version-superseded) completion events may sit far in the
        #: future; they must not stretch the simulated horizon.
        self._last_progress = 0.0

        # Global DMA work integral (for slack credits).
        self._dma_work_base = 0.0
        self._dma_work_rate = 0.0
        self._dma_work_time = 0.0

        # Statistics.
        self.transfers = 0
        self.requests = 0
        self.proc_accesses = 0
        self.head_delay_total = 0.0
        self.extra_service_total = 0.0
        self.bus_wait_total = 0.0
        self.migrations = 0
        self.table_flushes = 0
        self._last_completion: dict[int, float] = {}

        self._opportunistic = config.layout.opportunistic_copies
        self._dma_service_hist = self.registry.histogram(
            "dma.service_per_request")
        self._epoch = self.controller.epoch_cycles()
        #: Bound on the first handled epoch, so a run that handles none
        #: reports no ``sim.epochs`` counter.
        self._epochs_counter = None

        # Cached geometry.
        self._serve_cycles = config.serve_cycles
        self._proc_serve_cycles = config.proc_serve_cycles
        self._page_copy_cycles = (
            memory_config.page_bytes / model.bytes_per_cycle)
        self._total_pages = memory_config.total_pages

        self.probe = attach_probe(self, telemetry, digests)

    # ------------------------------------------------------------------
    # Global request-arrival accounting (slack credits)
    # ------------------------------------------------------------------

    def _served_dma_work(self, now: float) -> float:
        return self._dma_work_base + self._dma_work_rate * (
            now - self._dma_work_time)

    def _served_requests(self) -> float:
        """Arrived (~served) DMA-memory requests, excluding buffered heads.

        ``_served_dma_work(queue.now)`` inlined: the controller reads
        this once per epoch.
        """
        return (self._dma_work_base + self._dma_work_rate * (
            self.queue._now - self._dma_work_time)) / self._serve_cycles

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        if self.tracer is not None:
            # Run parameters up front, so sinks (the auditor especially)
            # can bootstrap the guarantee/slack replay from the stream
            # alone.
            self.tracer.instant(0.0, "sim.config", TRACK_SIM, {
                "engine": "fluid",
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
            self.queue.push(self.trace.records[0].time, EventKind.ARRIVAL, 0)
        if self._epoch:
            self.queue.set_slot(self._epoch, EventKind.EPOCH)
        if self._pl_enabled:
            self.queue.push(
                self.config.layout.interval_cycles, EventKind.INTERVAL, None)
        if self.probe is not None:
            self.queue.push(self.probe.period, EventKind.PROBE, None)

        while self.queue:
            now, kind, payload = self.queue.pop()
            if kind is EventKind.PROBE:
                # Read-only snapshot: no drain, no progress update — an
                # observed run must replay the unobserved run's event
                # sequence exactly.
                self._on_probe(now)
                continue
            if kind is EventKind.ARRIVAL:
                self._on_arrival(payload, now)
            elif kind is EventKind.COMPLETE:
                self._on_complete(payload, now)
            elif kind is EventKind.STREAM_START:
                self._on_stream_start(payload, now)
            elif kind is EventKind.EPOCH:
                self._on_epoch(now)
            elif kind is EventKind.INTERVAL:
                self._on_interval(now)
            self._maybe_drain(now)
            if self._records_done and not self._work_remaining():
                break  # only stale/periodic events can remain

        end = max(self._last_progress, self.trace.duration_cycles)
        self.memory.advance_all(end)
        if self.probe is not None:
            self.probe.sample(end, final=True)
        return self._build_result(end)

    def _work_remaining(self) -> bool:
        return (not self._records_done or self._has_live_streams()
                or self._pending_starts > 0
                or any(bus.queue for bus in self.buses)
                or self.controller.pending_count() > 0)

    def _has_live_streams(self) -> bool:
        """Active streams that can still make progress on their own.

        Parked opportunistic migration copies (zero grant, waiting for
        real traffic to ride on) must not keep the run alive forever.
        """
        return any(s.kind is not StreamKind.MIGRATION or s.granted > 0
                   for s in self._active)

    def _maybe_drain(self, now: float) -> None:
        if (self._records_done and not self._active
                and self._pending_starts == 0
                and not any(bus.queue for bus in self.buses)
                and self.controller.pending_count() > 0):
            for chip_id, streams in self.controller.drain(now).items():
                self._release(self.memory.chips[chip_id], streams, now,
                              notify=True)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, index: int, now: float) -> None:
        self._last_progress = max(self._last_progress, now)
        record = self.trace.records[index]
        if index + 1 < len(self.trace.records):
            self.queue.push(self.trace.records[index + 1].time,
                            EventKind.ARRIVAL, index + 1)
        else:
            self._records_done = True

        if isinstance(record, DMATransfer):
            self._on_transfer(record, now)
        elif isinstance(record, ProcessorBurst):
            self._on_proc_burst(record, now)

    def _on_transfer(self, record: DMATransfer, now: float) -> None:
        page = record.page % self._total_pages
        chip = self.memory.chips[self.memory.layout.chip_of(page)]
        bus_id = self.assigner.assign(record)
        n_req = record.num_requests(self.config.memory.request_bytes)
        self.transfers += 1
        self.requests += n_req

        stream = FluidStream(
            kind=StreamKind.DMA,
            chip_id=chip.chip_id,
            total_work=n_req * self._serve_cycles,
            demand=self.buses[bus_id].full_share_demand,
            bus_id=bus_id,
            record=record,
            arrival_time=now,
            release_time=now,
            num_requests=n_req,
            seq=self.transfers,
            stream_id=next(self._stream_ids),
        )
        if self.tracer is not None:
            self.tracer.instant(now, "dma.arrive", TRACK_SIM,
                                {"id": stream.seq, "chip": chip.chip_id,
                                 "bus": bus_id, "requests": n_req})
        if self._tracker is not None:
            # One reference per DMA transfer: counting individual
            # DMA-memory requests would saturate the narrow counters on a
            # single 8-KB transfer (1024 requests against a 255 cap) and
            # reduce the ranking to "touched recently".
            self._tracker.record(page, 1)

        chip.advance(now)
        released = self.controller.admit(stream, chip, now)
        if released:
            self._release(chip, released, now, notify=True)

    def _on_proc_burst(self, record: ProcessorBurst, now: float) -> None:
        page = record.page % self._total_pages
        chip = self.memory.chips[self.memory.layout.chip_of(page)]
        work = record.count * self._proc_serve_cycles
        self.proc_accesses += record.count

        dma_here = sum(1 for s in self._streams_at[chip.chip_id] if s.is_dma)
        self.controller.on_proc_access(chip.chip_id, work, dma_here, now)

        stream = FluidStream(
            kind=StreamKind.PROC,
            chip_id=chip.chip_id,
            total_work=work,
            demand=1.0,
            record=record,
            arrival_time=now,
            release_time=now,
            stream_id=next(self._stream_ids),
        )
        # Buffered DMA heads stay buffered: the chip wakes only for the
        # burst and returns to gathering afterwards. The slack account is
        # charged for exactly this coexistence (Section 4.1.3).
        self._release(chip, [stream], now, notify=False)

    def _on_stream_start(self, payload, now: float) -> None:
        chip_id, streams = payload
        self._pending_starts -= 1
        self._start_streams(self.memory.chips[chip_id], list(streams), now)

    def _on_complete(self, payload, now: float) -> None:
        stream, version = payload
        if stream.version != version or stream not in self._active:
            return
        chip = self.memory.chips[stream.chip_id]
        chip.advance(now)
        for other in self._streams_at[chip.chip_id]:
            other.sync(now)
        if stream.remaining_work > _DONE_EPS:
            # Numerical drift: reschedule at the refreshed projection.
            stream.version += 1
            self.queue.push(stream.projected_completion(now),
                            EventKind.COMPLETE, (stream, stream.version))
            return
        bus_ids = {stream.bus_id} if stream.is_dma else set()
        granted = self._finish_stream(stream, now)
        self._rebalance(bus_ids, {chip.chip_id}, now)
        if granted is not None:
            self._activate(self.memory.chips[granted.chip_id],
                           [granted], now, notify=True)

    def _on_epoch(self, now: float) -> None:
        if not self._work_remaining():
            return
        if self._epochs_counter is None:
            self._epochs_counter = self.registry.counter("sim.epochs")
        self._epochs_counter.inc()
        if self.tracer is not None:
            self.tracer.counter(now, "pending_heads", TRACK_SIM,
                                float(self.controller.pending_count()))
            self.tracer.counter(now, "served_requests", TRACK_SIM,
                                self._served_requests())
        released = self.controller.on_epoch(now)
        for chip_id, streams in released.items():
            self._release(self.memory.chips[chip_id], streams, now,
                          notify=True)
        if not released and self.tracer is None:
            now = self._quiet_epochs(now)
        self.queue.set_slot(now + self._epoch, EventKind.EPOCH)

    def _quiet_epochs(self, now: float) -> float:
        """Handle the epochs after a quiet one (it released nothing)
        until one releases or a heap event is due first; returns the
        time of the last epoch handled.

        Between such epochs nothing but the slack charge changes: no
        stream, bus or buffered head moves, so the main loop's drain
        and end-of-work checks, which ran after the quiet epoch, would
        decide the same again. Each epoch here is what popping it would
        do: move the clock (``_served_requests`` reads it), count it and
        run the controller.
        """
        queue = self.queue
        # Nothing is pushed while epochs stay quiet: the first heap
        # event due is the same for the whole loop.
        due, kind = queue._heap[0][:2] if queue._heap else (math.inf, 0)
        # At equal times the epoch goes first only before a higher kind.
        epoch_first = kind > EventKind.EPOCH
        epoch = self._epoch
        on_epoch = self.controller.on_epoch
        handled = 0
        released: dict = {}
        while not released:
            time = now + epoch
            if time > due or (time == due and not epoch_first):
                break
            queue._now = now = time
            handled += 1
            released = on_epoch(now)
        self._epochs_counter.inc(handled)
        for chip_id, streams in released.items():
            self._release(self.memory.chips[chip_id], streams, now,
                          notify=True)
        return now

    def _on_probe(self, now: float) -> None:
        self.probe.sample(now)
        if self._work_remaining():
            self.queue.push(now + self.probe.period, EventKind.PROBE, None)

    def _on_interval(self, now: float) -> None:
        if self._records_done and not self._active:
            return
        assert self._tracker and self._grouper and self._planner
        ranked = self._tracker.ranked_pages()
        if ranked:
            plan = self._grouper.build_plan(
                ranked, self._previous_hot, self._previous_candidates)
            cold_index = plan.groups[-1].index
            self._previous_hot = {
                page for page, group in plan.page_group.items()
                if group != cold_index}
            self._previous_candidates = plan.candidates
            migration = self._planner.plan_and_apply(
                plan, self.memory.layout, now)  # type: ignore[arg-type]
            self._tracker.age()
            self.migrations += migration.num_moves
            self.table_flushes += migration.table_flushes
            for chip_id, cycles in migration.copy_cycles_per_chip(
                    self._page_copy_cycles).items():
                stream = FluidStream(
                    kind=StreamKind.MIGRATION,
                    chip_id=chip_id,
                    total_work=cycles,
                    demand=1.0,
                    arrival_time=now,
                    release_time=now,
                    stream_id=next(self._stream_ids),
                )
                if self._opportunistic:
                    # Section 4.2.2: copies piggyback on cycles the chip
                    # is active for other traffic — never wake it.
                    stream.service_start = now
                    stream.last_sync = now
                    self._streams_at[chip_id].add(stream)
                    self._active.add(stream)
                    self._rebalance(set(), {chip_id}, now)
                else:
                    self._release(self.memory.chips[chip_id], [stream],
                                  now, notify=False)
        if not self._records_done:
            self.queue.push(now + self.config.layout.interval_cycles,
                            EventKind.INTERVAL, None)

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    def _release(self, chip: FluidChip, streams: list[FluidStream],
                 now: float, notify: bool) -> None:
        """Let ``streams`` proceed: DMA streams enter their bus queues
        (one transfer owns a bus at a time under FIFO sharing); processor
        and migration streams go straight to the chip."""
        direct: list[FluidStream] = []
        for stream in streams:
            stream.release_time = now
            if not stream.is_dma:
                direct.append(stream)
                continue
            if self.buses[stream.bus_id].enqueue(stream, now):
                self._activate(self.memory.chips[stream.chip_id],
                               [stream], now, notify=notify)
        if direct:
            self._activate(chip, direct, now, notify=False)

    def _activate(self, chip: FluidChip, streams: list[FluidStream],
                  now: float, notify: bool) -> None:
        """A bus grant (or direct release) reached the chip: wake it if
        needed and begin serving when it is ready."""
        chip.advance(now)
        latency = chip.wake_latency(now)
        dma_count = sum(1 for s in streams if s.is_dma)
        if notify and latency > 0 and dma_count:
            self.controller.on_wake(chip.chip_id, latency, now, dma_count)
        ready = chip.wake(now)
        for stream in streams:
            stream.service_start = ready
            stream.last_sync = ready
            if stream.is_dma:
                # The gather delay is what DMA-TA's guarantee covers;
                # wake latency is the low-level policy's cost and is
                # paid under the baseline as well (more often, in fact).
                self.head_delay_total += (
                    stream.release_time - stream.arrival_time)
                self.bus_wait_total += max(
                    0.0, now - stream.release_time)
                if self.tracer is not None:
                    self.tracer.instant(
                        now, "dma.start", TRACK_SIM,
                        {"id": stream.seq, "chip": chip.chip_id,
                         "wake": max(0.0, ready - now),
                         "bus_wait": max(0.0, now - stream.release_time)})
        if ready > now + 1e-9:
            self._pending_starts += 1
            self.queue.push(ready, EventKind.STREAM_START,
                            (chip.chip_id, tuple(streams)))
        else:
            self._start_streams(chip, streams, now)

    def _start_streams(self, chip: FluidChip, streams: list[FluidStream],
                       now: float) -> None:
        bus_ids: set[int] = set()
        for stream in streams:
            if stream.is_dma:
                bus_ids.add(stream.bus_id)
            self._streams_at[chip.chip_id].add(stream)
            self._active.add(stream)
        self._rebalance(bus_ids, {chip.chip_id}, now)

    def _finish_stream(self, stream: FluidStream,
                       now: float) -> FluidStream | None:
        """Retire a completed stream; returns the next bus grant, if any."""
        self._streams_at[stream.chip_id].discard(stream)
        self._active.discard(stream)
        granted = None
        if stream.is_dma:
            granted = self.buses[stream.bus_id].finish(stream, now)
            self.extra_service_total += stream.extra_service_cycles
            requests = stream.num_requests or 1
            per_request_extra = (
                stream.release_time - stream.arrival_time
                + stream.extra_service_cycles) / requests
            self._dma_service_hist.record(
                self.config.undisturbed_service_cycles + per_request_extra)
            if self.tracer is not None:
                self.tracer.instant(
                    now, "dma.done", TRACK_SIM,
                    {"id": stream.seq, "chip": stream.chip_id,
                     "extra": stream.extra_service_cycles,
                     "waited": max(0.0, stream.release_time
                                   - stream.arrival_time),
                     "mig": int(any(
                         s.kind is StreamKind.MIGRATION
                         for s in self._streams_at[stream.chip_id]))})
            record = stream.record
            if isinstance(record, DMATransfer) and record.request_id is not None:
                prior = self._last_completion.get(record.request_id, 0.0)
                self._last_completion[record.request_id] = max(prior, now)
        return granted

    # ------------------------------------------------------------------
    # Rate recomputation (the heart of the fluid model)
    # ------------------------------------------------------------------

    def _rebalance(self, bus_ids: set[int], chip_ids: set[int],
                   now: float) -> None:
        self._last_progress = max(self._last_progress, now)
        touched = set(chip_ids)
        for bus_id in bus_ids:
            touched |= {s.chip_id for s in self.buses[bus_id].members}

        # Phase 1: bring accounting up to date at the old rates.
        for chip_id in touched:
            self.memory.chips[chip_id].advance(now)
            for stream in self._streams_at[chip_id]:
                stream.sync(now)

        # Capture the global work integral before rates change.
        self._dma_work_base = self._served_dma_work(now)
        self._dma_work_time = now

        # Phase 2: refresh bus shares; retire streams that just finished.
        granted_now: list[FluidStream] = []
        pending_buses = set(bus_ids)
        while True:
            for bus_id in pending_buses:
                extra = self.buses[bus_id].refresh_demands()
                for chip_id in extra - touched:
                    self.memory.chips[chip_id].advance(now)
                    for stream in self._streams_at[chip_id]:
                        stream.sync(now)
                touched |= extra
            pending_buses = set()
            finished = [s for chip_id in touched
                        for s in self._streams_at[chip_id]
                        if s.remaining_work <= _DONE_EPS]
            if not finished:
                break
            for stream in finished:
                if stream.is_dma:
                    pending_buses.add(stream.bus_id)
                granted = self._finish_stream(stream, now)
                if granted is not None:
                    granted_now.append(granted)
            if not pending_buses:
                break

        # Phase 3: re-allocate chip capacity and reschedule completions.
        for chip_id in touched:
            chip = self.memory.chips[chip_id]
            active = list(self._streams_at[chip_id])
            if self._opportunistic and active and all(
                    s.kind is StreamKind.MIGRATION for s in active):
                # Opportunistic copies alone must not hold the chip up:
                # park them (zero grant) and let the chip descend; they
                # resume at the next rebalance that brings real traffic.
                for stream in active:
                    stream.granted = 0.0
                    stream.version += 1
                if chip.busy:
                    chip.set_idle(now)
                continue
            if not active:
                if chip.busy:
                    chip.set_idle(now)
                continue
            allocate_chip_capacity(active)
            rates = ChipRates(
                dma=sum(s.granted for s in active if s.kind is StreamKind.DMA),
                proc=sum(s.granted for s in active if s.kind is StreamKind.PROC),
                migration=sum(s.granted for s in active
                              if s.kind is StreamKind.MIGRATION),
            )
            has_dma = any(s.is_dma for s in active)
            chip.set_busy(now, has_dma, rates)
            for stream in active:
                stream.version += 1
                completion = stream.projected_completion(now)
                if completion != float("inf"):
                    self.queue.push(completion, EventKind.COMPLETE,
                                    (stream, stream.version))

        # Phase 4: refresh the global DMA work rate.
        self._dma_work_rate = sum(
            s.granted for s in self._active if s.is_dma)

        # Phase 5: hand freed buses to their next queued transfers.
        for stream in granted_now:
            self._activate(self.memory.chips[stream.chip_id],
                           [stream], now, notify=True)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _build_result(self, end: float) -> SimulationResult:
        energy = self.memory.total_energy()
        time = self.memory.total_time()
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
            engine="fluid",
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
            wakes=self.memory.total_wakes(),
            controller_stats=self.controller.stats(),
            guarantee_violated=violated,
            timeline=({c.chip_id: c.timeline for c in self.memory.chips}
                      if self._record_timeline else None),
            chip_energy=[c.energy.total for c in self.memory.chips],
        )

    def _build_metrics(self, mu: float, service_cycles: float):
        """Snapshot the run's registry into a :class:`MetricsReport`."""
        registry = self.registry
        registry.counter("sim.transfers").inc(self.transfers)
        registry.counter("sim.requests").inc(self.requests)
        registry.counter("sim.proc_accesses").inc(self.proc_accesses)
        registry.counter("sim.wakes").inc(self.memory.total_wakes())
        registry.gauge("dma.service_bound").set((1 + mu) * service_cycles)
        slack = getattr(self.controller, "slack", None)
        if slack is not None:
            registry.counter("slack.violations").inc(slack.violations)
        chip_residency: dict[int, dict[str, float]] = {}
        transitions: dict[str, int] = {}
        for chip in self.memory.chips:
            buckets = chip.time.as_dict()
            buckets.pop("total", None)
            chip_residency[chip.chip_id] = buckets
            for edge, count in chip.transition_counts.items():
                transitions[edge] = transitions.get(edge, 0) + count
        return registry.report(chip_residency=chip_residency,
                               transitions=transitions)
