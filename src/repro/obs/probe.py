"""One read-only epoch probe behind every per-epoch observer.

An engine built with ``telemetry=`` and/or ``digests=`` carries one
:class:`EpochProbe`. The probe binds to the engine once, resolves the
sampling cadence once, and at each probe tick reads the observable
state into one value vector (laid out as :attr:`EpochProbe.fields`):

* the scalars :data:`SCALAR_FIELDS` — clock, requests,
  degradation-to-date, slack balance, pending transfers, migrations;
* per chip: energy-to-date, instantaneous power and the seven
  :data:`~repro.obs.export.RESIDENCY_BUCKETS` (one ``observe`` call);
* per bus: busy indicator and queue depth.

The vector (a fresh list of Python floats each tick) goes to each
subscribed consumer's ``sample(values)`` —
:class:`~repro.obs.telemetry.TelemetrySampler` and
:class:`~repro.obs.diff.DigestRecorder`. Consumers keep their own
stores and fault injection and must not mutate the shared vector. A
value that did not change since the last tick is usually the very same
float object (``observe`` reads the chip's attributes as they are), so
a consumer may reuse what it derived from an unchanged object.

The probe never calls ``touch``/``advance`` on a chip, its event kind
pops last at equal timestamps and never extends the run, and the
array-timeline kernel cuts its batching windows at the next probe time
— so an observed run is bit-identical to an unobserved one.
"""

from __future__ import annotations

import math
from operator import is_

from repro.errors import ConfigurationError
from repro.obs.export import RESIDENCY_BUCKETS

#: Run-wide scalar fields, in vector order (per-chip and per-bus blocks
#: follow them).
SCALAR_FIELDS = ("ts", "requests", "degradation_cycles", "slack_balance",
                 "slack_pending", "migrations")

#: Vector positions of the scalars consumers read or perturb.
I_TS, I_REQ, I_DEG, I_BAL, I_PEND, I_MIG = range(len(SCALAR_FIELDS))

#: Values per chip block: energy, power, then the residency buckets.
CHIP_WIDTH = 2 + len(RESIDENCY_BUCKETS)


class EpochProbe:
    """Per-tick reader of one engine's observable state.

    Built by :func:`attach` from an engine constructor: it resolves the
    cadence, builds the readers and binds every consumer. The engine
    schedules a probe event every :attr:`period` cycles and calls
    :meth:`sample` at each one plus once at the end of the run.

    Raises:
        ConfigurationError: the consumers ask for different cadences.
    """

    def __init__(self, engine, consumers) -> None:
        self.consumers = tuple(consumers)
        default = (engine.controller.epoch_cycles()
                   or engine.config.alignment.epoch_cycles)
        cadences = {float(default if c.requested_cycles is None
                          else c.requested_cycles) for c in self.consumers}
        if len(cadences) > 1:
            raise ConfigurationError(
                "telemetry and digests share one epoch probe, so their "
                f"sampling periods must agree (got {sorted(cadences)})")
        self.period = cadences.pop()
        self.tracer = engine.tracer
        self.duration_cycles = engine.trace.duration_cycles
        self._engine = engine
        self._slack = getattr(engine.controller, "slack", None)
        self._last_ts = -math.inf

        if hasattr(engine, "memory"):  # fluid
            self.label = "fluid"
            self._chips = list(engine.memory.chips)
            self._read_requests = engine._served_requests
            buses = engine.buses

            def read_bus(bus_id: int) -> tuple[float, float]:
                bus = buses[bus_id]
                busy = 1.0 if (bus.current is not None or bus.members) else 0.0
                return busy, float(len(bus.queue))
        else:  # precise
            self.label = "precise"
            self._chips = list(engine.chips)
            self._read_requests = engine._arrived_requests
            current, fifo = engine._bus_current, engine._bus_fifo

            def read_bus(bus_id: int) -> tuple[float, float]:
                busy = 1.0 if current[bus_id] is not None else 0.0
                return busy, float(len(fifo[bus_id]))
        self._read_bus = read_bus
        self.n_buses = engine.config.buses.count
        self.chip_ids = tuple(chip.chip_id for chip in self._chips)
        # Per chip, the energy buckets and total of the last tick
        # (``(None,)`` matches no bucket list, so the first tick sums).
        self._energies = [(None,)] * len(self._chips)
        self._totals = [0.0] * len(self._chips)

        fields = list(SCALAR_FIELDS)
        for chip_id in self.chip_ids:
            fields.append(f"chip{chip_id}.energy_j")
            fields.append(f"chip{chip_id}.power_w")
            fields.extend(f"chip{chip_id}.{bucket}"
                          for bucket in RESIDENCY_BUCKETS)
        for bus_id in range(self.n_buses):
            fields.append(f"bus{bus_id}.busy")
            fields.append(f"bus{bus_id}.queue_depth")
        self.fields = tuple(fields)

        for consumer in self.consumers:
            consumer.bind(self)

    def sample(self, now: float, final: bool = False) -> None:
        """Read the state at ``now`` once and pass it to every consumer."""
        if final and now <= self._last_ts:
            return  # the last periodic tick already covered the end
        self._last_ts = now
        engine = self._engine
        requests = self._read_requests()
        values = [
            now,
            float(requests),
            float(engine.head_delay_total + engine.extra_service_total),
            (float(self._slack.slack(requests))
             if self._slack is not None else 0.0),
            float(engine.controller.pending_count()),
            float(engine.migrations),
        ]
        energies, totals = self._energies, self._totals
        for slot, chip in enumerate(self._chips):
            buckets, power = chip.observe(now)
            energy = chip.energy.as_list()
            if not all(map(is_, energy, energies[slot])):
                # Some bucket object changed: a new total, the same sum
                # as ``energy.total``. Otherwise the last total object
                # goes out again, so consumers see an unchanged object.
                energies[slot] = energy
                totals[slot] = sum(energy)
            values.append(totals[slot])
            values.append(float(power))
            values.extend(buckets)
        for bus_id in range(self.n_buses):
            values.extend(self._read_bus(bus_id))
        for consumer in self.consumers:
            consumer.sample(values)


def attach(engine, *consumers) -> EpochProbe | None:
    """A probe over the given consumers, bound to ``engine``.

    ``None`` consumers are skipped; with none left there is no probe.
    """
    consumers = [c for c in consumers if c is not None]
    return EpochProbe(engine, consumers) if consumers else None
