"""Timed passes, the traced run, and the metrics they give."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from typing import Callable

import hostspeed
import workloads
from probe import LAYERS, TRACES, LayerProbe

#: Fewest untraced passes one run times, however short its time is.
MIN_PASSES = 2
#: Length of the warm-up trace that loads lazily imported modules.
WARMUP_MS = 0.5

#: Layers that some workload never enters report their self time as a
#: share of the traced pass, so no metric is a time that is always zero.
PARTIAL_LAYERS = ("core.layout", "core.migration", "memory.chip", "io.dma",
                  "sim.array_timeline", "obs.telemetry", "obs.diff")


class Tally:
    """Attempted and failed simulate calls, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.drifted_floats = 0

    def add_pass(self, result, reference) -> None:
        check = workloads.check_pass(result, reference)
        self.attempted += len(result.calls)
        self.failed += len(check.failures)
        self.drifted_floats += check.drifted_floats
        self.problems += [f"{label}: {why}"
                          for label, why in check.failures.items()]

    def add_oracle(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"precise-scalar: {problem}")


def _warm_up(workload, seed: int) -> None:
    trace = workloads.make_trace(workload, seed, duration_ms=WARMUP_MS)
    workloads.run_pass(workload, trace)


def pass_figures(workload, results) -> dict[str, float]:
    """The end-to-end figures of one pass (one result per trace)."""
    calls = [call for result in results for call in result.calls]
    figures = {
        "wall_s": sum(result.wall_s for result in results),
        "sim_ms_per_s": (len(calls) * workload.duration_ms
                         / sum(call.seconds for call in calls)),
    }
    if workload.observed:
        def seconds(label):
            return sum(c.seconds for c in calls if c.label == label)
        figures["observe_overhead_x"] = (seconds("dma-ta-pl@0.1+observed")
                                         / seconds("dma-ta-pl@0.1"))
    return figures


def _checked_pass(workload, traces, tally: Tally, references) -> list:
    """One pass over every trace, each result checked against its
    reference (``None`` in the first pass)."""
    results = []
    for index, trace in enumerate(traces):
        result = workloads.run_pass(workload, trace)
        tally.add_pass(result, references[index] if references else None)
        results.append(result)
    return results


def _timed_passes(workload, traces, seconds: float, tally: Tally,
                  kernel: list[float]):
    """(first pass, figures of every pass). Only the first pass is kept,
    so peak memory does not grow with the number of passes. The host-speed
    kernel is sampled into ``kernel`` before each pass and after the last."""
    first, references, figures = None, None, []
    deadline = time.perf_counter() + seconds
    while len(figures) < MIN_PASSES or time.perf_counter() < deadline:
        hostspeed.sample(kernel)
        gc.collect()
        results = _checked_pass(workload, traces, tally, references)
        if first is None:
            first = results
            references = [workloads.fingerprints(r) for r in results]
        figures.append(pass_figures(workload, results))
        results = None
    hostspeed.sample(kernel)
    return first, figures


def _check_oracle(workload, traces, results, tally: Tally) -> None:
    """The untimed precise-scalar check, on the seed's own trace."""
    if workload.scalar_oracle:
        tally.add_oracle(
            workloads.check_scalar_oracle(workload, traces[0], results[0]))


def untraced(workload, seed: int, seconds: float, tally: Tally,
             setup_s: float, kernel: list[float]):
    """(end-to-end metrics, printed-only metrics, record) of timed passes.

    ``setup_s`` is measured by the caller before the passes, with
    host-speed kernel samples in ``kernel``. Host seconds are scaled to the
    nominal host speed by the median of all the run's kernel samples (see
    :mod:`hostspeed`); the raw figures are printed beside them.
    """
    traces = workloads.make_traces(workload, seed)
    _warm_up(workload, seed)
    first, figures = _timed_passes(workload, traces, seconds, tally, kernel)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_oracle(workload, traces, first, tally)
    slowdown = statistics.median(kernel) / hostspeed.NOMINAL_S

    def median(name):
        return statistics.median(f[name] for f in figures)

    metrics = {
        "sim_ms_per_s": (median("sim_ms_per_s") * slowdown, "sim-ms/s"),
        "wall_s": (median("wall_s") / slowdown, "s"),
        "setup_s": (setup_s / slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"raw_sim_ms_per_s": (median("sim_ms_per_s"), "sim-ms/s"),
             "raw_wall_s": (median("wall_s"), "s"),
             "raw_setup_s": (setup_s, "s"),
             "host_slowdown": (slowdown, "x"),
             "error_rate": (tally.failed / tally.attempted, "fraction"),
             "drifted_floats": (tally.drifted_floats, "count"),
             "passes": (len(figures), "count")}
    if workload.name == "fig5-oltp-st":
        from benchmarks.bench_fig5_savings_vs_cplimit import PAPER_SAVINGS

        extra["fig5_abs_dev"] = (
            workloads.fig5_abs_dev(first[0], PAPER_SAVINGS), "fraction")
    if workload.observed:
        extra["observe_overhead_x"] = (median("observe_overhead_x"), "x")
    return metrics, extra, {"passes": figures, "kernel_s": kernel}


def layer_metrics(counts: Counter, self_seconds: dict[str, float],
                  wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass that took ``wall_s``, from
    :meth:`LayerProbe.counts` and :meth:`LayerProbe.self_seconds`."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, value in counts.items():
        if name.endswith(".calls"):
            metrics[name] = (value, "count")
    metrics["sim.engine.events_popped"] = (
        metrics.pop("sim.engine.pop.calls")[0], "count")
    for layer, seconds in self_seconds.items():
        if layer in PARTIAL_LAYERS:
            metrics[f"{layer}.self_frac"] = (seconds / wall_s, "fraction")
        else:
            metrics[f"{layer}.self_s"] = (seconds, "s")

    def share(numerator: str, denominator: str) -> float:
        return counts[numerator] / counts[denominator] \
            if counts[denominator] else 0.0

    metrics.update({
        "core.migration.pages_moved": (
            counts["core.migration.pages_moved"], "count"),
        "core.migration.moved_frac": (share(
            "core.migration.pages_moved", "core.migration.pages_scanned"),
            "fraction"),
        "core.temporal_alignment.epoch_useful_frac": (share(
            "core.temporal_alignment.useful_epochs",
            "core.temporal_alignment.on_epoch.calls"), "fraction"),
        "core.slack.release_frac": (share(
            "core.slack.releases", "core.slack.should_release.calls"),
            "fraction"),
        "core.slack.violations": (counts["core.slack.violations"], "count"),
        "sim.array_timeline.batch_hit_frac": (share(
            "sim.array_timeline.batch_hits",
            "sim.array_timeline.try_batch.calls"), "fraction"),
        "sim.loop.ns_per_request": (
            self_seconds["sim.loop"] / counts["sim.loop.requests"] * 1e9,
            "ns"),
        "exec.jobs": (counts["exec.jobs"], "count"),
        "exec.unique_jobs": (counts["exec.unique_jobs"], "count"),
    })
    return metrics


def traced_pass(workload, seed: int, run_id: str, references) -> dict:
    """One traced pass, JSON-ready, checked against ``references``.

    Made in an interpreter of its own after the same trace generation and
    warm-up as the plain pass, so that both start from the same process
    state. In one process, repeated runs differ (see
    ``workloads.FLOAT_REL_TOL``): in the order some floats are summed and
    in how often some chip methods are called.
    """
    traces = workloads.make_traces(workload, seed)
    _warm_up(workload, seed)
    gc.collect()
    tally = Tally()
    with LayerProbe(LAYERS, run_id=run_id) as probe:
        results = _checked_pass(workload, traces, tally, references)
    return {"wall_s": sum(r.wall_s for r in results),
            "counts": probe.counts(), "self_seconds": probe.self_seconds(),
            "attempted": tally.attempted, "failed": tally.failed,
            "problems": tally.problems,
            "drifted_floats": tally.drifted_floats, "probe": probe.dump()}


def traced(workload, seed: int, tally: Tally,
           spawn: Callable[[str, list], dict]):
    """(per-layer metrics, {}, record) of one plain pass here and two
    traced passes, each made by ``spawn(run_id, references)`` in a fresh
    interpreter; the two traced passes must repeat every work counter."""
    with LayerProbe(TRACES, run_id="setup") as setup_probe:
        traces = workloads.make_traces(workload, seed)
    _warm_up(workload, seed)
    gc.collect()
    plain = _checked_pass(workload, traces, tally, None)
    references = [workloads.fingerprints(r) for r in plain]
    _check_oracle(workload, traces, plain, tally)

    runs = [spawn(f"traced-{index}", references) for index in (1, 2)]
    for run in runs:
        tally.attempted += run["attempted"]
        tally.failed += run["failed"]
        tally.problems += run["problems"]
        tally.drifted_floats += run["drifted_floats"]
    first, second = (Counter(run["counts"]) for run in runs)
    if first != second:
        differ = sorted(k for k in first.keys() | second.keys()
                        if first[k] != second[k])
        tally.problems.append(f"work counters differ between traced runs: "
                              f"{', '.join(differ)}")

    per_run = [layer_metrics(Counter(run["counts"]), run["self_seconds"],
                             run["wall_s"]) for run in runs]
    # Counts are equal in both traced passes (checked above); times and
    # shares are their median.
    metrics = {name: (value if unit == "count" else statistics.median(
                          m[name][0] for m in per_run), unit)
               for name, (value, unit) in per_run[0].items()}
    metrics["traces.gen_s"] = (setup_probe.self_seconds()["traces"], "s")
    metrics["traces.records"] = (setup_probe.counters["traces.records"],
                                 "count")
    traced_wall = statistics.median(run["wall_s"] for run in runs)
    metrics["trace.overhead_x"] = (
        traced_wall / sum(r.wall_s for r in plain), "x")
    record = {"probes": [setup_probe.dump()] + [run["probe"] for run in runs]}
    return metrics, {}, record
