"""Live per-epoch telemetry: sampler, bounded store, and exporters.

Both engines can carry a :class:`TelemetrySampler` (``simulate(...,
telemetry=sampler)``). The sampler subscribes to the run's
:class:`~repro.obs.probe.EpochProbe`, which ticks at a fixed cadence (the
DMA-TA epoch length by default, so "per-epoch" is literal when a DMA-TA
technique runs and epoch-equivalent otherwise), and keeps:

* per-chip power-state residency-to-date (the seven
  :data:`RESIDENCY_BUCKETS`) and instantaneous power draw,
* the slack account balance and pending (buffered) transfer count,
* cumulative ``pl.migration`` moves plus a derived wave counter,
* per-bus utilization and queue depth,
* degradation-to-date (head delay + extra service cycles) and the
  cumulative arrived-request count.

Samples land in a :class:`TelemetryStore` — a fixed-width numpy ring
with deterministic 2:1 downsampling on overflow, so memory stays
O(capacity) regardless of trace length — and fan out to pluggable
streaming exporters (:class:`JsonlExporter`, :class:`PrometheusExporter`,
:class:`SseBroker`; see :mod:`repro.obs.serve` for the HTTP side).

Two online anomaly detectors watch the stream: a CUSUM on the
degradation rate and a threshold on slack-pending drift. Alarms are
recorded on ``sampler.anomalies`` and — when the run is traced — emitted
as ``telemetry.anomaly`` instants into the existing tracer/audit
pipeline.

The probe is strictly observational, so a telemetry-enabled run is
bit-identical in :class:`~repro.energy.accounting.EnergyBreakdown` to a
disabled one — the same guarantee the tracer and auditor meet (gated by
``tests/integration/test_telemetry_equivalence.py``).
"""

from __future__ import annotations

import json
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, TelemetryError
from repro.obs.events import TRACK_SIM
from repro.obs.export import RESIDENCY_BUCKETS
from repro.obs.probe import (CHIP_WIDTH, I_DEG, I_MIG, I_PEND, I_TS,
                             SCALAR_FIELDS)

#: Run-wide scalar columns, in row order: the probe's scalars plus two
#: derived ones (per-chip and per-bus blocks follow them; see
#: :meth:`TelemetrySampler.bind`).
SCALAR_COLUMNS = SCALAR_FIELDS + ("migration_waves", "power_w")

_I_WAVES, _I_POWER = len(SCALAR_FIELDS), len(SCALAR_FIELDS) + 1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryConfig:
    """Sampler parameters.

    Attributes:
        sample_cycles: sampling period in memory cycles. ``None`` (the
            default) uses the run's DMA-TA epoch length when the
            controller has one, else ``config.alignment.epoch_cycles``.
        capacity: ring rows kept in memory; on overflow every other row
            is dropped and the acceptance stride doubles (deterministic
            2:1 downsampling, O(capacity) memory forever).
        detectors: run the online anomaly detectors.
        cusum_warmup: samples used to estimate the degradation-rate
            reference mean/sigma before the CUSUM arms (and re-arms
            after each alarm).
        cusum_k_sigmas: CUSUM slack ``k`` in estimated sigmas.
        cusum_h_sigmas: CUSUM alarm threshold ``h`` in estimated sigmas.
        pending_warmup: samples used to baseline the pending count.
        pending_limit: absolute slack-pending alarm threshold; ``None``
            derives ``max(8, 4 * warmup max)`` from the warmup window.
        inject_spike_cycles: fault injection — add this many phantom
            degradation cycles to the *observed* series (the simulation
            is untouched) at the first sample past
            ``inject_spike_at_frac`` of the trace, so tests and CI can
            prove the CUSUM detector fires.
        inject_spike_at_frac: where in the trace the spike lands.
    """

    sample_cycles: float | None = None
    capacity: int = 2048
    detectors: bool = True
    cusum_warmup: int = 16
    cusum_k_sigmas: float = 1.0
    cusum_h_sigmas: float = 10.0
    pending_warmup: int = 8
    pending_limit: float | None = None
    inject_spike_cycles: float = 0.0
    inject_spike_at_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.sample_cycles is not None and self.sample_cycles <= 0:
            raise ConfigurationError("sample_cycles must be positive")
        if self.capacity < 8 or self.capacity % 2:
            raise ConfigurationError("capacity must be an even number >= 8")
        if self.cusum_warmup < 2 or self.pending_warmup < 1:
            raise ConfigurationError("detector warmup windows are too short")
        if not 0.0 <= self.inject_spike_at_frac <= 1.0:
            raise ConfigurationError(
                "inject_spike_at_frac must be in [0, 1]")


# ---------------------------------------------------------------------------
# Bounded columnar store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetrySnapshot:
    """A consistent copy of the store (safe to read from any thread)."""

    columns: tuple[str, ...]
    data: np.ndarray  # shape (rows, len(columns))
    stride: int
    ticks: int
    dropped: int

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def __len__(self) -> int:
        return self.data.shape[0]


class TelemetryStore:
    """Fixed-width columnar ring with deterministic 2:1 downsampling.

    Row ``i`` always holds the sample whose tick index is ``i * stride``:
    when the ring fills, every other row is compacted away in place and
    the acceptance stride doubles, so the retained rows remain an evenly
    spaced, deterministic subsample of the full stream no matter how
    long the run is. All methods are thread-safe (the HTTP exporters
    read while the simulation thread appends).
    """

    def __init__(self, columns: Sequence[str], capacity: int = 2048) -> None:
        if capacity < 8 or capacity % 2:
            raise ConfigurationError("capacity must be an even number >= 8")
        self.columns = tuple(columns)
        self.capacity = int(capacity)
        self._data = np.zeros((self.capacity, len(self.columns)))
        self._count = 0
        self._stride = 1
        self._ticks = 0
        self._dropped = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def stride(self) -> int:
        with self._lock:
            return self._stride

    @property
    def ticks(self) -> int:
        with self._lock:
            return self._ticks

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def append(self, row: np.ndarray) -> bool:
        """Offer one sample; returns True if it was retained.

        Ticks that are not multiples of the current stride are dropped
        (they were already represented by a coarser retained sample
        after a compaction doubled the stride).
        """
        with self._lock:
            tick = self._ticks
            self._ticks += 1
            if tick % self._stride:
                self._dropped += 1
                return False
            if self._count == self.capacity:
                # Compact in place: keep ticks 0, 2s, 4s, ... The
                # triggering tick is stride * capacity — a multiple of
                # the doubled stride (capacity is even), so the row
                # layout invariant survives the compaction.
                half = self.capacity // 2
                self._data[:half] = self._data[0:self.capacity:2]
                self._count = half
                self._stride *= 2
            self._data[self._count] = row
            self._count += 1
            return True

    def snapshot(self) -> TelemetrySnapshot:
        with self._lock:
            return TelemetrySnapshot(
                columns=self.columns,
                data=self._data[:self._count].copy(),
                stride=self._stride,
                ticks=self._ticks,
                dropped=self._dropped,
            )


# ---------------------------------------------------------------------------
# Anomaly detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryAnomaly:
    """One online-detector alarm."""

    kind: str
    ts: float
    sample_index: int
    value: float
    threshold: float
    message: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "ts": self.ts,
                "sample": self.sample_index, "value": self.value,
                "threshold": self.threshold, "message": self.message}


class CusumDetector:
    """One-sided CUSUM on the per-sample degradation increment.

    Degradation increments are heavy-tailed and bursty (a wake cascade
    lands tens of thousands of head-delay cycles in one sample), so a
    plain fixed-reference CUSUM drowns in false alarms. Three
    robustness measures keep the detector quiet on healthy runs while
    still catching genuine shifts:

    * the reference mean/sigma come from a warmup window with scale
      floors (``std``, ``5% |mean|``, ``50%`` of the largest warmup
      increment), so a zero-variance warmup cannot collapse sigma;
    * between alarms, mean and sigma adapt by asymmetric EWMA — fast
      up (0.25), slow down (0.01) — so the learned burst scale is
      sticky and routine bursts stop re-alarming;
    * after an alarm the recursion resets and the reference re-enters
      warmup (keeping the learned sigma as a floor), so a sustained
      shift yields one alarm per regime, not one per sample.

    The recursion itself is the classic ``s = max(0, s + x - (mean +
    k*sigma))`` with alarm at ``s > h*sigma``.
    """

    kind = "degradation-cusum"

    _ALPHA_UP = 0.25
    _ALPHA_DOWN = 0.01
    #: |deviation| -> sigma scale factor for a normal distribution
    #: (E|X-mu| = sigma * sqrt(2/pi), so sigma = dev * 1.2533).
    _DEV_TO_SIGMA = 1.2533

    def __init__(self, warmup: int = 16, k_sigmas: float = 1.0,
                 h_sigmas: float = 10.0) -> None:
        self._warmup = warmup
        self._k_sigmas = k_sigmas
        self._h_sigmas = h_sigmas
        self._window: list[float] = []
        self._mean: float | None = None
        self._sigma = 0.0
        self._s = 0.0
        self._prev: float | None = None

    def observe(self, index: int, ts: float,
                total: float) -> TelemetryAnomaly | None:
        if self._prev is None:
            self._prev = total
            return None
        x = total - self._prev
        self._prev = total
        if self._mean is None:
            self._window.append(x)
            if len(self._window) >= self._warmup:
                mean = sum(self._window) / len(self._window)
                var = sum((v - mean) ** 2
                          for v in self._window) / len(self._window)
                estimate = max(math.sqrt(var), abs(mean) * 0.05,
                               0.5 * max(abs(v) for v in self._window),
                               1e-9)
                self._mean = mean
                self._sigma = max(estimate, self._sigma)
            return None
        self._s = max(0.0, self._s + x - (self._mean
                                          + self._k_sigmas * self._sigma))
        threshold = self._h_sigmas * self._sigma
        if self._s > threshold:
            score = self._s
            mean = self._mean
            self._s = 0.0
            self._window = []
            self._mean = None  # re-baseline; sigma floor carries over
            return TelemetryAnomaly(
                kind=self.kind, ts=ts, sample_index=index, value=x,
                threshold=threshold,
                message=(f"degradation rate shifted: CUSUM score "
                         f"{score:.3g} > h={threshold:.3g} (increment "
                         f"{x:.3g} cycles/sample vs reference "
                         f"{mean:.3g})"))
        deviation = abs(x - self._mean) * self._DEV_TO_SIGMA
        alpha = (self._ALPHA_UP if deviation > self._sigma
                 else self._ALPHA_DOWN)
        self._mean += alpha * (x - self._mean)
        self._sigma = max((1 - alpha) * self._sigma + alpha * deviation,
                          0.05 * abs(self._mean), 1e-9)
        return None


class PendingDriftDetector:
    """Threshold alarm on slack-pending drift.

    The limit is either configured absolutely or derived from the warmup
    window (``max(8, 4 * warmup max)``); once tripped, the detector
    re-arms only after the pending count falls back below half the
    limit, so one sustained excursion yields one alarm.
    """

    kind = "slack-pending-drift"

    def __init__(self, warmup: int = 8, limit: float | None = None) -> None:
        self._warmup = warmup
        self._limit = limit
        self._window: list[float] = []
        self._armed = True

    def observe(self, index: int, ts: float,
                pending: float) -> TelemetryAnomaly | None:
        if self._limit is None:
            self._window.append(pending)
            if len(self._window) >= self._warmup:
                self._limit = max(8.0, 4.0 * max(self._window))
            return None
        if not self._armed:
            if pending <= self._limit / 2.0:
                self._armed = True
            return None
        if pending <= self._limit:
            return None
        self._armed = False
        return TelemetryAnomaly(
            kind=self.kind, ts=ts, sample_index=index, value=pending,
            threshold=self._limit,
            message=(f"pending transfers drifted to {pending:.0f} "
                     f"(> limit {self._limit:.0f}): the gather backlog "
                     "is growing faster than releases clear it"))


# ---------------------------------------------------------------------------
# Streaming exporters
# ---------------------------------------------------------------------------

class TelemetryExporter:
    """Exporter interface: receives every captured sample, pre-downsample."""

    def on_bind(self, columns: tuple[str, ...]) -> None:  # pragma: no cover
        pass

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class JsonlExporter(TelemetryExporter):
    """Append-stream JSONL: one ``telemetry.sample`` object per sample
    (flat, column name -> value) and one ``telemetry.anomaly`` object per
    alarm, flushed per line so the stream can be tailed live."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._columns: tuple[str, ...] = ()
        self.lines = 0

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        payload = {"event": "telemetry.sample"}
        payload.update(zip(self._columns, (float(v) for v in row)))
        self._handle.write(json.dumps(payload) + "\n")
        self.lines += 1
        for anomaly in anomalies:
            self._handle.write(json.dumps(
                {"event": "telemetry.anomaly", **anomaly.as_dict()}) + "\n")
            self.lines += 1
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def prometheus_series(column: str) -> tuple[str, dict[str, str]]:
    """Map a store column to its Prometheus metric name and labels."""
    if column.startswith("chip"):
        head, _, bucket = column.partition(".")
        chip = head[4:]
        if bucket == "power_w":
            return "repro_chip_power_watts", {"chip": chip}
        return "repro_chip_residency_cycles", {"chip": chip,
                                               "bucket": bucket}
    if column.startswith("bus"):
        head, _, field_name = column.partition(".")
        bus = head[3:]
        name = {"util": "repro_bus_utilization",
                "queue_depth": "repro_bus_queue_depth"}[field_name]
        return name, {"bus": bus}
    return {
        "ts": "repro_sim_cycles",
        "requests": "repro_requests_total",
        "degradation_cycles": "repro_degradation_cycles_total",
        "slack_balance": "repro_slack_balance_cycles",
        "slack_pending": "repro_slack_pending_transfers",
        "migrations": "repro_migrations_total",
        "migration_waves": "repro_migration_waves_total",
        "power_w": "repro_power_watts",
    }[column], {}


_PROM_HELP = {
    "repro_sim_cycles": "Simulation clock at the latest sample",
    "repro_requests_total": "Arrived DMA-memory requests",
    "repro_degradation_cycles_total":
        "Head delay plus extra service cycles to date",
    "repro_slack_balance_cycles": "DMA-TA slack account balance",
    "repro_slack_pending_transfers": "Buffered (gathered) DMA transfers",
    "repro_migrations_total": "Cumulative PL page moves",
    "repro_migration_waves_total": "Distinct PL migration waves",
    "repro_power_watts": "Instantaneous memory-system power draw",
    "repro_chip_power_watts": "Instantaneous per-chip power draw",
    "repro_chip_residency_cycles": "Per-chip residency-to-date by bucket",
    "repro_bus_utilization": "Bus busy indicator (transfer on the wire)",
    "repro_bus_queue_depth": "Transfers parked in the bus FIFO",
    "repro_telemetry_samples_total": "Telemetry samples captured",
    "repro_telemetry_anomalies_total": "Online-detector alarms emitted",
}


class PrometheusExporter(TelemetryExporter):
    """Latest-sample holder rendering Prometheus text exposition.

    ``render()`` (served at ``/metrics`` by
    :class:`repro.obs.serve.TelemetryServer`) groups series by metric
    family with ``# HELP`` / ``# TYPE`` headers; ``*_total`` families are
    counters (they are cumulative in the simulation), everything else a
    gauge.
    """

    def __init__(self) -> None:
        self._columns: tuple[str, ...] = ()
        self._latest: np.ndarray | None = None
        self.samples = 0
        self.anomalies = 0
        self._lock = threading.Lock()

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        with self._lock:
            self._latest = row.copy()
            self.samples += 1
            self.anomalies += len(anomalies)

    def render(self) -> str:
        with self._lock:
            latest = self._latest
            samples = self.samples
            anomalies = self.anomalies
        families: dict[str, list[str]] = {}
        order: list[str] = []
        if latest is not None:
            for column, value in zip(self._columns, latest):
                name, labels = prometheus_series(column)
                if name not in families:
                    families[name] = []
                    order.append(name)
                if labels:
                    label_text = ",".join(
                        f'{k}="{v}"' for k, v in labels.items())
                    series = f"{name}{{{label_text}}}"
                else:
                    series = name
                families[name].append(f"{series} {float(value):g}")
        for name, value in (("repro_telemetry_samples_total", samples),
                            ("repro_telemetry_anomalies_total", anomalies)):
            families[name] = [f"{name} {value}"]
            order.append(name)
        lines: list[str] = []
        for name in order:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} {_PROM_HELP.get(name, name)}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(families[name])
        return "\n".join(lines) + "\n"


class SseBroker(TelemetryExporter):
    """Fan-out queue bridge for the ``/events`` Server-Sent-Events feed.

    Each subscriber gets a bounded queue of ``(event, json-payload)``
    pairs; slow consumers drop oldest-first rather than stalling the
    simulation thread. ``close()`` wakes every subscriber with a ``None``
    sentinel.
    """

    def __init__(self, max_queued: int = 256) -> None:
        self._max_queued = max_queued
        self._subscribers: list[queue.Queue] = []
        self._columns: tuple[str, ...] = ()
        self._lock = threading.Lock()
        self.closed = False

    def on_bind(self, columns: tuple[str, ...]) -> None:
        self._columns = columns

    def subscribe(self) -> queue.Queue:
        subscriber: queue.Queue = queue.Queue(maxsize=self._max_queued)
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: queue.Queue) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _publish(self, item) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            while True:
                try:
                    subscriber.put_nowait(item)
                    break
                except queue.Full:
                    try:
                        subscriber.get_nowait()
                    except queue.Empty:  # pragma: no cover - race only
                        break

    def publish(self, event: str, payload: str) -> None:
        """Fan one already-serialised SSE event out to every subscriber.

        The sample path goes through :meth:`on_sample`; this is the
        generic entry point other producers (the fleet collector) use to
        ride the same bounded drop-oldest queues.
        """
        self._publish((event, payload))

    def on_sample(self, row: np.ndarray,
                  anomalies: Sequence[TelemetryAnomaly]) -> None:
        payload = dict(zip(self._columns, (float(v) for v in row)))
        self._publish(("sample", json.dumps(payload)))
        for anomaly in anomalies:
            self._publish(("anomaly", json.dumps(anomaly.as_dict())))

    def close(self) -> None:
        self.closed = True
        self._publish(None)


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

class TelemetrySampler:
    """Per-epoch read-only sampler attached to one engine run.

    Pass an instance as ``simulate(..., telemetry=sampler)``; the run's
    :class:`~repro.obs.probe.EpochProbe` calls :meth:`bind` at engine
    construction and :meth:`sample` at each probe tick plus once at the
    end of the run. A sampler is single-use — bind a fresh one per run.
    """

    def __init__(self, config: TelemetryConfig | None = None,
                 exporters: Sequence[TelemetryExporter] = ()) -> None:
        self.config = config or TelemetryConfig()
        self.exporters = list(exporters)
        self.store: TelemetryStore | None = None
        self.columns: tuple[str, ...] = ()
        self.anomalies: list[TelemetryAnomaly] = []
        self.samples_captured = 0
        self.sample_cycles = 0.0
        self._tracer = None
        self._chip_power: list[int] = []
        self._source: np.ndarray | None = None
        self._last_migrations = 0.0
        self._waves = 0
        self._spike_at = math.inf
        self._spike_pending = 0.0
        self._cusum: CusumDetector | None = None
        self._pending: PendingDriftDetector | None = None

    @property
    def requested_cycles(self) -> float | None:
        """The configured period (``None``: the probe's default)."""
        return self.config.sample_cycles

    # --- binding ----------------------------------------------------------

    def bind(self, probe) -> None:
        """Attach to a run's epoch probe before the run starts."""
        if self.store is not None:
            raise TelemetryError(
                "TelemetrySampler is single-use: already bound to a run")
        self._tracer = probe.tracer
        self.sample_cycles = probe.period

        # Per-chip power and residency, then per-bus busy and depth,
        # picked out of the probe vector (which also carries energy).
        columns = list(SCALAR_COLUMNS)
        source: list[int] = []
        base = len(SCALAR_FIELDS)
        for chip_id in probe.chip_ids:
            columns.append(f"chip{chip_id}.power_w")
            columns.extend(f"chip{chip_id}.{bucket}"
                           for bucket in RESIDENCY_BUCKETS)
            self._chip_power.append(base + 1)
            source.extend(range(base + 1, base + CHIP_WIDTH))
            base += CHIP_WIDTH
        for bus_id in range(probe.n_buses):
            columns.append(f"bus{bus_id}.util")
            columns.append(f"bus{bus_id}.queue_depth")
            source.extend((base, base + 1))
            base += 2
        self.columns = tuple(columns)
        self._source = np.array(source, dtype=np.intp)
        self.store = TelemetryStore(self.columns,
                                    capacity=self.config.capacity)

        if self.config.inject_spike_cycles > 0:
            self._spike_at = (self.config.inject_spike_at_frac
                              * probe.duration_cycles)
            self._spike_pending = self.config.inject_spike_cycles
        if self.config.detectors:
            self._cusum = CusumDetector(
                warmup=self.config.cusum_warmup,
                k_sigmas=self.config.cusum_k_sigmas,
                h_sigmas=self.config.cusum_h_sigmas)
            self._pending = PendingDriftDetector(
                warmup=self.config.pending_warmup,
                limit=self.config.pending_limit)
        for exporter in self.exporters:
            exporter.on_bind(self.columns)

    # --- sampling ---------------------------------------------------------

    def sample(self, values: list[float]) -> None:
        """Capture one probe vector (see :class:`~repro.obs.probe.EpochProbe`)."""
        if self.store is None:
            raise TelemetryError("sample() before bind(): attach the "
                                 "sampler via simulate(telemetry=...)")
        now = values[I_TS]
        degradation = values[I_DEG]
        if self._spike_pending and now >= self._spike_at:
            degradation += self._spike_pending
            self._spike_pending = 0.0
        pending = values[I_PEND]
        migrations = values[I_MIG]
        if migrations > self._last_migrations:
            self._waves += 1
            self._last_migrations = migrations
        total_power = 0.0
        for index in self._chip_power:
            total_power += values[index]

        row = np.empty(len(self.columns))
        row[:_I_WAVES] = values[:_I_WAVES]
        row[I_DEG] = degradation
        row[_I_WAVES] = self._waves
        row[_I_POWER] = total_power
        row[len(SCALAR_COLUMNS):] = np.take(values, self._source)

        index = self.samples_captured
        self.samples_captured += 1

        fresh: list[TelemetryAnomaly] = []
        if self._cusum is not None:
            alarm = self._cusum.observe(index, now, degradation)
            if alarm is not None:
                fresh.append(alarm)
        if self._pending is not None:
            alarm = self._pending.observe(index, now, pending)
            if alarm is not None:
                fresh.append(alarm)
        for anomaly in fresh:
            self.anomalies.append(anomaly)
            if self._tracer is not None:
                self._tracer.instant(now, "telemetry.anomaly", TRACK_SIM,
                                     anomaly.as_dict())

        self.store.append(row)
        for exporter in self.exporters:
            exporter.on_sample(row, fresh)

    # --- teardown / convenience ------------------------------------------

    def close(self) -> None:
        for exporter in self.exporters:
            exporter.close()

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(ts, values) arrays for one retained column."""
        if self.store is None:
            raise TelemetryError("series() before bind()")
        snapshot = self.store.snapshot()
        return snapshot.column("ts"), snapshot.column(name)


__all__ = [
    "RESIDENCY_BUCKETS", "SCALAR_COLUMNS",
    "TelemetryConfig", "TelemetryStore", "TelemetrySnapshot",
    "TelemetrySampler", "TelemetryAnomaly",
    "CusumDetector", "PendingDriftDetector",
    "TelemetryExporter", "JsonlExporter", "PrometheusExporter",
    "SseBroker", "prometheus_series",
]
