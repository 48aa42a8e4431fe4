"""The batched array-timeline kernel behind the vectorized precise engine.

The scalar precise engine walks every 8-byte DMA-memory request through
four heap events (bus-free, request-at-chip, serve-done, and a stale
descent timer). On the paper's geometry — a 12-cycle bus period against a
4-cycle chip service — a released transfer quickly settles into the
Figure 2(a) steady state: serve 4 cycles, sit active-idle 8, repeat, with
exactly one request on the wire at all times. With several transfers
streaming to one chip from different buses the pattern is the merge of
one such arithmetic progression per bus. Inside these windows nothing is
*decided*; the event machinery only re-derives the progressions, one
heap operation at a time.

This module collapses those windows. When a serve completes and the chip
goes idle while transfers are still streaming to it, the kernel:

1. checks every streaming transfer is in the steady pipeline shape (one
   request on the wire, one just acknowledged, owning its bus, unstalled)
   and the chip is ACTIVE with nothing queued and no wake or descent in
   progress;
2. computes a safe horizon — the next event that can observe shared
   simulation state (trace arrival, DMA-TA epoch, PL migration interval,
   or a bus handoff that would start another stream to this chip);
3. materialises each stream's request schedule as a numpy event vector
   (`np.add.accumulate` over the bus period, so the timestamps are
   bit-identical to the scalar engine's iterative ``end = start + gap``
   bus bookkeeping) and merges them into one chip timeline;
4. keeps the longest prefix on which the merge is conflict-free — every
   serve completes strictly before the next arrival, the horizon, and
   every stream's first unbatched request — so each request is served
   the instant it arrives, exactly as the scalar engine would;
5. applies the per-request residency, energy, degradation, and histogram
   accounting in vectorized form, using sequential-semantics reductions
   (`np.add.accumulate` seeded with the running value) so every
   accumulator receives exactly the floating-point value the scalar
   engine's repeated ``+=`` would have produced;
6. rewrites the engine state (bus occupancy, per-transfer progress, chip
   clock, descent generation) to the state the scalar engine would hold,
   and re-arms the in-flight heap events.

Everything outside these windows — wake and descent transitions, DMA-TA
gather/release decisions, migrations, bus handoffs, transfer heads and
tails, windows where requests actually queue at the chip — stays on the
scalar event path, which is why the kernel is bit-exact by construction
rather than by tolerance. The scalar path remains available as the
oracle via ``engine="precise-scalar"`` (see ``docs/ENGINES.md``).

Only numpy APIs present since 1.20 are used (``np.add.accumulate``,
``np.maximum``, ``np.searchsorted``, ``np.argsort``); CI pins
``numpy==1.20.*`` on one matrix leg to keep it that way.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.energy.states import PowerState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.precise import PreciseEngine, _PChip

#: Below this many requests the batch bookkeeping costs more than the
#: scalar events it replaces.
MIN_BATCH = 8

#: Maximum streams merged per window; chips fed by more are left scalar.
_MAX_STREAMS = 4

#: Margin (cycles) for the cheap phase-compatibility precheck. Streams
#: share one bus period, so their relative phases are constant across a
#: window up to accumulate-chain ulp drift (sub-microcycle for any
#: batchable window); a millicycle margin dwarfs it.
_PHASE_MARGIN = 1e-3

#: Safety margin (cycles) subtracted from projected bus-handoff times.
#: The projection uses ``free_at + remaining * gap`` while the engine
#: accumulates iteratively; the float discrepancy is bounded by
#: ``remaining * ulp(t)`` — sub-microcycle at simulation scales — so a
#: millicycle margin is overwhelmingly conservative.
_HANDOFF_MARGIN = 1e-3


def _seq_add(seed: float, values: np.ndarray) -> float:
    """``seed + v0 + v1 + ...`` with scalar left-to-right semantics.

    ``np.add.accumulate`` is specified as the sequential partial-sum
    scan, so the result is bit-identical to a Python ``+=`` loop — the
    property the energy-conservation gate (``energy_delta == 0`` against
    the scalar oracle) rests on.
    """
    arr = np.empty(len(values) + 1)
    arr[0] = seed
    arr[1:] = values
    return float(np.add.accumulate(arr)[-1])


class ArrayTimelineKernel:
    """Steady-window batching for one :class:`PreciseEngine` run."""

    def __init__(self, engine: "PreciseEngine") -> None:
        self.engine = engine
        model = engine.config.memory.power_model
        self.gap = engine._bus_gap
        self.serve = engine._serve_cycles
        self.frequency = model.frequency_hz
        #: Scalar ``touch`` uses ``model.active_power`` while serving and
        #: ``model.power(state)`` while active-idle; keep both even though
        #: they are numerically equal, so the arithmetic provenance is
        #: explicit.
        self.p_serve = model.active_power
        self.p_idle = model.power(PowerState.ACTIVE)
        schedule = engine.chips[0].schedule if engine.chips else ()
        first_threshold = schedule[0][0] if schedule else math.inf
        #: Batching requires (a) a strictly positive idle stretch between
        #: back-to-back requests of one stream (otherwise the pipeline
        #: stalls and the cadence is different) and (b) a power policy
        #: whose first descent threshold cannot fire inside the longest
        #: possible idle stretch, ``gap - serve`` (otherwise the scalar
        #: engine would begin a downward transition mid-stream).
        self.enabled = (self.gap - self.serve > 1e-9
                        and first_threshold >= self.gap - self.serve)
        # Window statistics (surfaced as kernel.* counters).
        self.batches = 0
        self.batched_requests = 0

    # ------------------------------------------------------------------

    def _horizon(self, chip_id: int, own_buses: set) -> float:
        """Latest time the steady window is provably undisturbed.

        Trace arrivals, DMA-TA epochs, and PL migration intervals all
        observe shared state (slack credits, ``arrived_requests``, the
        page layout), so the window must close strictly before any of
        them. A transfer queued in another bus's FIFO and bound for this
        chip starts streaming when that bus's current transfer finishes
        transmitting; a conservative lower bound on that handoff closes
        the window too. (The window's own buses cannot hand off: every
        stream keeps at least one request untransmitted.)
        """
        engine = self.engine
        # The epoch probe must observe scalar-consistent state, so a
        # pending probe time closes the window like any other shared-
        # state observer (math.inf — no cut at all — when unobserved).
        horizon = min(engine._next_arrival_time,
                      engine.queue.slot_time,
                      engine._next_interval_time,
                      engine._next_probe_time)
        for other_bus, fifo in enumerate(engine._bus_fifo):
            if other_bus in own_buses or not fifo:
                continue
            if not any(queued.chip_id == chip_id for queued in fifo):
                continue
            current = engine._bus_current[other_bus]
            if current is None:
                return -math.inf  # inconsistent bus state: never batch
            remaining = current.total_requests - current.transmitted
            handoff = (engine._bus_free_at[other_bus]
                       + remaining * self.gap - _HANDOFF_MARGIN)
            horizon = min(horizon, handoff)
        return horizon

    # ------------------------------------------------------------------

    def try_batch(self, chip: "_PChip", now: float) -> bool:
        """Fast-forward the steady window of ``chip``'s streams starting
        after the serve that just completed at ``now``. Returns True if a
        batch was applied (the engine state then matches the scalar
        engine at the last batched serve completion)."""
        if not self.enabled:
            return False
        streams = chip.streams
        n_streams = len(streams)
        if not 0 < n_streams <= _MAX_STREAMS:
            return False
        # The chip must be this window's alone: ACTIVE, nothing queued,
        # no transition in flight. (Transfers parked in a bus FIFO are
        # dormant — counted in ``inflight_transfers`` but invisible
        # until their handoff, which the horizon accounts for.)
        if (chip.serving is not None or chip.has_queued
                or chip.waking_until is not None
                or chip.transition_until is not None
                or chip.state is not PowerState.ACTIVE):
            return False
        engine = self.engine
        # Every stream must be in the steady pipeline shape: one request
        # on the wire, one just acknowledged, owning its bus. The final
        # request's tail (bus handoff, transfer completion) stays
        # scalar, so at most total-1 requests are ever batched.
        for t in streams:
            if (t.outstanding != 1 or t.stalled
                    or t.transmitted != t.served + 1
                    or engine._bus_current[t.bus_id] is not t
                    or not engine._bus_free_at[t.bus_id] > now):
                return False

        own_buses = {t.bus_id for t in streams}
        if len(own_buses) != n_streams:
            return False  # two streams on one bus: not steady
        if n_streams > 1:
            # Cheap phase precheck before any array work: all streams
            # advance by the same period, so the merge is conflict-free
            # iff consecutive phases (cyclically) are more than a serve
            # apart. This is advisory — the exact per-pair check on the
            # merged timeline below is what guarantees correctness — but
            # it rejects hopeless windows in O(k log k).
            phases = sorted(math.fmod(engine._bus_free_at[t.bus_id],
                                      self.gap) for t in streams)
            spacing = min(b - a for a, b in zip(phases, phases[1:]))
            spacing = min(spacing, self.gap - (phases[-1] - phases[0]))
            if spacing < self.serve + _PHASE_MARGIN:
                return False
        if sum(t.total_requests - t.served - 1 for t in streams) < MIN_BATCH:
            return False
        horizon = self._horizon(chip.chip_id, own_buses)
        if not now < horizon:
            return False

        # One event vector per stream: chain[j] is the chip-arrival time
        # of its (j+1)-th upcoming request; the accumulate chain
        # reproduces the scalar bus bookkeeping ``end = start + gap``
        # bit-for-bit. The last element is the first arrival *not*
        # batchable for that stream (its tail, or past the horizon) and
        # acts as a window cut in the merge below.
        chains = []
        for t in streams:
            first = engine._bus_free_at[t.bus_id]
            limit = t.total_requests - t.served - 1
            if math.isfinite(horizon):
                by_horizon = int((horizon - self.serve - first)
                                 / self.gap) + 2
                if by_horizon < limit:
                    limit = max(0, by_horizon)
            chain = np.empty(limit + 1)
            chain[0] = first
            chain[1:] = self.gap
            np.add.accumulate(chain, out=chain)
            chains.append(chain)

        if n_streams == 1:
            merged = chains[0]
            stream_of = None
            order = None
        else:
            merged = np.concatenate(chains)
            stream_of = np.repeat(np.arange(n_streams),
                                  [len(c) for c in chains])
            order = np.argsort(merged, kind="stable")
            merged = merged[order]
            stream_of = stream_of[order]

        # Longest conflict-free prefix: every serve must complete
        # strictly before the next arrival (no queueing at the chip —
        # each batched request is served the instant it lands, exactly
        # the scalar cadence), strictly before the horizon, and strictly
        # before any stream's first unbatched request. Under-batching is
        # always safe; every cut below is conservative.
        serve_ends = merged + self.serve
        count = len(merged) - 1  # never batch past the last cut element
        if n_streams > 1:
            gap_ok = serve_ends[:-1] < merged[1:]
            if not gap_ok.all():
                count = min(count, int(np.argmin(gap_ok)))
            # Cut at each stream's final (unbatchable) chain element.
            for s in range(n_streams):
                positions = np.nonzero(stream_of == s)[0]
                count = min(count, int(positions[-1]))
        if math.isfinite(horizon):
            count = min(count,
                        int(np.searchsorted(serve_ends, horizon,
                                            side="left")))
        if count < MIN_BATCH:
            return False

        arrivals = merged[:count]
        ends = serve_ends[:count]
        if n_streams == 1:
            per_stream = [count]
            next_up = [(float(chains[0][count]), streams[0])]
        else:
            counts = np.bincount(stream_of[:count], minlength=n_streams)
            per_stream = counts.tolist()
            next_up = [(float(chains[s][per_stream[s]]), streams[s])
                       for s in range(n_streams) if per_stream[s]]
            next_up.sort(key=lambda pair: pair[0])
            # The re-armed wire events must keep the scalar heap order;
            # bail on exact timestamp collisions rather than guess.
            for (t_a, _), (t_b, _) in zip(next_up, next_up[1:]):
                if t_a == t_b:
                    return False

        starts = np.empty(count)
        starts[0] = chip._last
        starts[1:] = ends[:-1]

        # Residency and energy accounting, exactly as the scalar
        # ``touch`` pair per request: an active-idle span from the
        # previous serve end to this arrival, then a serve span.
        idle_cycles = arrivals - starts
        serve_cycles = ends - arrivals
        idle_joules = self.p_idle * (idle_cycles / self.frequency)
        serve_joules = self.p_serve * (serve_cycles / self.frequency)
        chip.time.idle_dma = _seq_add(chip.time.idle_dma, idle_cycles)
        chip.energy.idle_dma = _seq_add(chip.energy.idle_dma, idle_joules)
        chip.time.serving_dma = _seq_add(chip.time.serving_dma, serve_cycles)
        chip.energy.serving_dma = _seq_add(chip.energy.serving_dma,
                                           serve_joules)

        # Degradation accounting (scalar: ``extra = (now - arrival) -
        # cycles`` clamped at zero, accumulated sequentially) and the
        # per-request service histogram, including each transfer's
        # amortised head delay.
        extras = np.maximum(0.0, serve_cycles - self.serve)
        engine.extra_service_total = _seq_add(engine.extra_service_total,
                                              extras)
        heads = np.array([t.head_delay / t.total_requests for t in streams])
        if n_streams == 1:
            hist_values = np.maximum(self.serve, serve_cycles) + heads[0]
        else:
            hist_values = (np.maximum(self.serve, serve_cycles)
                           + heads[stream_of[:count]])
        engine._dma_service_hist.record_many(hist_values.tolist())

        if engine.tracer is not None:
            span = engine.tracer.span
            track = chip._track
            starts_l = starts.tolist()
            arrivals_l = arrivals.tolist()
            idle_c = idle_cycles.tolist()
            serve_c = serve_cycles.tolist()
            idle_j = idle_joules.tolist()
            serve_j = serve_joules.tolist()
            for i in range(count):
                span(starts_l[i], idle_c[i], "active-idle", track,
                     {"bucket": "idle_dma", "joules": idle_j[i]})
                span(arrivals_l[i], serve_c[i], "serve", track,
                     {"bucket": "serving_dma", "joules": serve_j[i]})
            for s, t in enumerate(streams):
                if per_stream[s]:
                    mine = (extras if n_streams == 1
                            else extras[stream_of[:count] == s])
                    t.extra_cycles = _seq_add(t.extra_cycles, mine)

        # Advance the discrete state to the post-window scalar state.
        from repro.sim.precise import _EV_BUS_FREE, _EV_REQUEST_AT_CHIP

        engine.arrived_requests += count
        for s, t in enumerate(streams):
            if not per_stream[s]:
                continue
            t.served += per_stream[s]
            t.transmitted += per_stream[s]
            t.skip_arrivals += 1       # the pre-batch wire event pair
            engine._bus_skip[t.bus_id] += 1  # is now stale; swallow it
        chip._last = float(ends[-1])
        chip.idle_since = chip._last
        chip.descent_index = 0
        # Scalar bookkeeping bumps the generation once per serve start
        # and once per descent (re-)arm; replicate so any descent timer
        # left in the heap is recognised as stale.
        chip.descent_generation += count * (2 if chip.schedule else 1)
        # Re-arm each stream's in-flight request at the post-window time
        # (same push order as ``_transmit``: request-at-chip, bus-free;
        # streams ordered by wire time as their transmits would have
        # been).
        for time_next, t in next_up:
            engine._bus_free_at[t.bus_id] = time_next
            engine.queue.push(time_next, _EV_REQUEST_AT_CHIP, t)
            engine.queue.push(time_next, _EV_BUS_FREE, t.bus_id)

        self.batches += 1
        self.batched_requests += count
        return True


__all__ = ["ArrayTimelineKernel", "MIN_BATCH"]
