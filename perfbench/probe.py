"""Layer probes: time the calls into each layer's public functions.

A :class:`LayerProbe` patches every target name *where its caller looks
it up* (a module global such as ``repro.sim.run.calibrate_mu``, or a
method on its class) with a timing wrapper, and puts the originals back
on :meth:`LayerProbe.restore`. Nothing under ``src/`` is edited.

Coarse calls (simulate, the sweep, ``run_many``, ``calibrate_mu``, trace
generation, ``plan_and_apply``) keep a real span each: name, start, end,
parent span and run id. Hot per-call methods keep only a call count and
total/self time per (function, parent). A function's self time is its
span time minus the time of the wrapped calls made inside it; a layer's
self time is the sum over its functions.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One patched name.

    Attributes:
        owner: ``"module"`` or ``"module:Class"`` holding the name the
            caller looks up.
        attr: the attribute patched on ``owner``.
        layer: the layer its self time is folded into.
        name: the function's metric name (``<layer>.<attr>`` if empty).
        coarse: keep one span per call instead of an aggregate.
        outcome: ``hook(probe, args, kwargs, result)`` run after a
            successful call, to count useful outcomes.
    """

    owner: str
    attr: str
    layer: str
    name: str = ""
    coarse: bool = False
    outcome: Callable | None = None

    @property
    def label(self) -> str:
        return self.name or f"{self.layer}.{self.attr}"


def _count(key: str) -> Callable:
    """Outcome hook counting calls whose result is truthy."""
    def hook(probe, args, kwargs, result):
        if result:
            probe.counters[key] += 1
    return hook


def _records(probe, args, kwargs, result):
    probe.counters["traces.records"] += len(result.records)


def _migration(probe, args, kwargs, result):
    layout = args[2] if len(args) > 2 else kwargs["layout"]
    probe.counters["core.migration.pages_moved"] += result.num_moves
    # The swap-pool scan walks every page of the layout once per call.
    probe.counters["core.migration.pages_scanned"] += layout.total_pages


def _release(probe, args, kwargs, result):
    if result:
        probe.counters["core.slack.releases"] += 1
    # Violations are read off each account once the run is over.
    probe.slack_accounts[id(args[0])] = args[0]


def _jobs(probe, args, kwargs, result):
    probe.counters["exec.jobs"] += len(result)


def _job_key(probe, args, kwargs, result):
    probe.job_keys.add(result)


def _requests(probe, args, kwargs, result):
    probe.counters["sim.loop.requests"] += result.requests


def _simulate_label(args, kwargs) -> str:
    technique = kwargs.get("technique", "baseline")
    cp_limit = kwargs.get("cp_limit")
    label = technique if cp_limit is None else f"{technique}@{cp_limit:g}"
    if kwargs.get("telemetry") is not None or kwargs.get("digests") is not None:
        label += "+observed"
    return label


#: Where ``simulate`` is looked up: by the job runner behind the sweep,
#: and by the benchmark's own direct (observed) call.
SIMULATE = (
    Target("repro.exec.runner", "simulate", "sim.run", coarse=True),
    Target("repro.sim.run", "simulate", "sim.run", coarse=True),
)

#: The trace generators, timed once per run while the traces are made.
TRACES = (
    Target("repro.traces.oltp", "oltp_storage_trace", "traces",
           coarse=True, outcome=_records),
    Target("repro.traces.oltp", "oltp_database_trace", "traces",
           coarse=True, outcome=_records),
    Target("repro.traces.synthetic", "synthetic_storage_trace", "traces",
           coarse=True, outcome=_records),
)

#: Every layer the traced passes time. Order does not matter.
LAYERS = SIMULATE + (
    Target("repro.analysis.sweep", "sweep_cp_limit", "analysis.sweep",
           coarse=True),
    Target("repro.analysis.sweep", "run_many", "exec.runner", coarse=True,
           outcome=_jobs),
    Target("repro.exec.jobs:SimJob", "key", "exec.runner", outcome=_job_key),
    Target("repro.analysis.sweep", "audit_result", "obs.audit"),
    Target("repro.sim.run", "calibrate_mu", "core.cp_limit", coarse=True),
    Target("repro.sim.fluid", "build_base_layout",
           "sim.fluid.build_base_layout", name="sim.fluid.build_base_layout"),
    Target("repro.memory.address:MutableLayout", "chip_of", "memory.address"),
    Target("repro.memory.address:MutableLayout", "move", "memory.address"),
    Target("repro.memory.address:MutableLayout", "swap", "memory.address"),
    Target("repro.core.popularity:PopularityTracker", "record",
           "core.popularity"),
    Target("repro.core.popularity:PopularityTracker", "age",
           "core.popularity"),
    Target("repro.core.layout:PopularityGrouper", "build_plan",
           "core.layout"),
    Target("repro.core.migration:MigrationPlanner", "plan_and_apply",
           "core.migration", coarse=True, outcome=_migration),
    Target("repro.core.temporal_alignment:TemporalAlignmentController",
           "admit", "core.temporal_alignment"),
    Target("repro.core.temporal_alignment:TemporalAlignmentController",
           "on_epoch", "core.temporal_alignment",
           outcome=_count("core.temporal_alignment.useful_epochs")),
    Target("repro.core.temporal_alignment:TemporalAlignmentController",
           "drain", "core.temporal_alignment"),
    Target("repro.core.slack:SlackAccount", "should_release", "core.slack",
           outcome=_release),
    Target("repro.core.slack:SlackAccount", "charge_epoch", "core.slack"),
    Target("repro.core.slack:SlackAccount", "charge_wake", "core.slack"),
    Target("repro.core.slack:SlackAccount", "charge_processor", "core.slack"),
    Target("repro.core.slack:SlackAccount", "refund", "core.slack"),
    Target("repro.memory.chip:FluidChip", "advance", "memory.chip"),
    Target("repro.memory.chip:FluidChip", "wake", "memory.chip"),
    Target("repro.memory.chip:FluidChip", "set_busy", "memory.chip"),
    Target("repro.memory.chip:FluidChip", "set_idle", "memory.chip"),
    Target("repro.memory.chip:FluidChip", "observe", "memory.chip"),
    Target("repro.sim.fluid", "allocate_chip_capacity", "io.dma"),
    Target("repro.io.dma", "water_fill", "io.dma"),
    Target("repro.io.dma:FluidStream", "sync", "io.dma"),
    Target("repro.sim.engine:EventQueue", "pop", "sim.engine"),
    # The two engines' run loops share one layer, so every workload
    # reports its loop's self time under the same name.
    Target("repro.sim.fluid:FluidEngine", "run", "sim.loop",
           name="sim.fluid.run", outcome=_requests),
    Target("repro.sim.precise:PreciseEngine", "run", "sim.loop",
           name="sim.precise.run", outcome=_requests),
    Target("repro.sim.array_timeline:ArrayTimelineKernel", "try_batch",
           "sim.array_timeline",
           outcome=_count("sim.array_timeline.batch_hits")),
    Target("repro.obs.telemetry:TelemetrySampler", "sample", "obs.telemetry"),
    Target("repro.obs.diff:DigestRecorder", "sample", "obs.diff"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class LayerProbe:
    """Timing wrappers over a set of :class:`Target` names.

    Use as a context manager, or call :meth:`install` and
    :meth:`restore`. One probe records one run; ``run_id`` tags its
    spans.
    """

    def __init__(self, targets=LAYERS, run_id: str = "run") -> None:
        self.targets = tuple(targets)
        self.run_id = run_id
        #: ``(function, parent function) -> [calls, total_s, self_s]``.
        self.hot: dict[tuple[str, str], list] = {}
        #: Coarse-call spans, in completion order.
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.job_keys: set[str] = set()
        self.slack_accounts: dict[int, object] = {}
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_span = 0

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe is already installed")
        try:
            for target in self.targets:
                owner = _resolve(target.owner)
                saved = (owner.__dict__.get(target.attr, _MISSING)
                         if isinstance(owner, type)
                         else getattr(owner, target.attr))
                wrapper = self._wrap(target, getattr(owner, target.attr))
                setattr(owner, target.attr, wrapper)
                self._saved.append((owner, target.attr, saved))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.label
        coarse = target.coarse
        outcome = target.outcome
        stack = self._stack
        hot = self.hot
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else None
            if coarse:
                span_id = self._next_span
                self._next_span += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent else "")
                stat = hot.get(key)
                if stat is None:
                    stat = hot[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if coarse:
                    span = {"id": span_id, "name": name, "start": start,
                            "end": end,
                            "parent": parent[2] if parent else None,
                            "run": self.run_id}
                    if name == "sim.run.simulate":
                        span["label"] = _simulate_label(args, kwargs)
                    self.spans.append(span)
            if outcome is not None:
                outcome(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    # --- folded views ----------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Exact call count per function, over every target."""
        counts = {target.label: 0 for target in self.targets}
        for (name, _), stat in self.hot.items():
            counts[name] += stat[0]
        return counts

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, over every target's layer."""
        layer_of = {target.label: target.layer for target in self.targets}
        seconds = {layer: 0.0 for layer in layer_of.values()}
        for (name, _), stat in self.hot.items():
            seconds[layer_of[name]] += stat[2]
        return seconds

    def counts(self) -> Counter:
        """Every deterministic work counter: calls plus outcome counts."""
        counts = Counter({f"{name}.calls": n
                          for name, n in self.calls().items()})
        counts.update(self.counters)
        counts["exec.unique_jobs"] = len(self.job_keys)
        counts["core.slack.violations"] = sum(
            account.violations for account in self.slack_accounts.values())
        return counts

    def dump(self) -> dict:
        """Spans and the hot-call table, JSON-ready."""
        return {
            "run": self.run_id,
            "spans": self.spans,
            "hot": [{"function": name, "parent": parent, "calls": stat[0],
                     "total_s": stat[1], "self_s": stat[2]}
                    for (name, parent), stat in sorted(self.hot.items())],
        }
