"""The benchmark's workloads, one timed pass of each, and its output checks.

Every workload is a closed loop with one client: the simulate calls of a
pass run serially in this process, each after the previous one returns.
Each workload's trace is generated from the benchmark's ``--seed`` and is
the only input the simulator receives.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass

import repro.analysis.sweep
import repro.sim.run
from repro.obs.diff import DigestRecorder
from repro.obs.telemetry import TelemetrySampler

from probe import SIMULATE, LayerProbe

#: family -> (generator module, generator function, today's default seed).
GENERATORS = {
    "OLTP-St": ("repro.traces.oltp", "oltp_storage_trace", 1),
    "OLTP-Db": ("repro.traces.oltp", "oltp_database_trace", 2),
    "Synthetic-St": ("repro.traces.synthetic", "synthetic_storage_trace", 11),
}


@dataclass(frozen=True)
class Workload:
    """One named workload: a trace and the simulate calls of one pass.

    A pass is ``sweep_cp_limit(trace, cp_limits, techniques, engine,
    max_workers=1)`` — one shared baseline plus one call per (CP-Limit,
    technique) — and, when ``observed``, one more DMA-TA-PL call with a
    ``TelemetrySampler`` and a ``DigestRecorder`` attached.
    """

    name: str
    why: str
    family: str
    duration_ms: float
    techniques: tuple[str, ...] = ("dma-ta-pl",)
    cp_limits: tuple[float, ...] = (0.10,)
    engine: str = "fluid"
    observed: bool = False
    #: Check the breakdowns against ``precise-scalar`` (untimed).
    scalar_oracle: bool = False
    #: Independent traces per pass (see :func:`make_traces`).
    traces: int = 1

    def default_seed(self) -> int:
        return GENERATORS[self.family][2]


WORKLOADS = {w.name: w for w in (
    Workload(
        "fig5-oltp-st",
        "The paper's headline Figure 5 grid on OLTP-St (baseline, DMA-TA and "
        "DMA-TA-PL at CP 2/10/30%) and the ROADMAP's speed target.",
        "OLTP-St", 25.0, techniques=("dma-ta", "dma-ta-pl"),
        cp_limits=(0.02, 0.10, 0.30)),
    Workload(
        "oltp-db",
        "Processor-access-heavy OLTP-Db (baseline plus DMA-TA-PL at CP=10%): "
        "the control case where TA and page-table work should show no gain.",
        "OLTP-Db", 25.0),
    Workload(
        "precise-synthetic-st",
        "Synthetic-St DMA-TA-PL at CP=10% on the precise engine, where TA "
        "aligns most: the only workload that reaches the array-timeline kernel.",
        # A precise run's cost depends on its trace (2 ms traces of ten
        # seeds took 1.3-2.4 s), so a pass runs six traces.
        "Synthetic-St", 2.0, engine="precise", scalar_oracle=True, traces=6),
    Workload(
        "observed-oltp-st",
        "OLTP-St DMA-TA-PL at CP=10% run plain and with telemetry and digests "
        "attached: the only workload that runs obs.telemetry and obs.diff.",
        "OLTP-St", 5.0, observed=True),
)}


#: Seed offset between a workload's traces: trace ``j`` of seed ``s`` uses
#: ``s + j * SEED_STRIDE``, so no two seeds below the stride share a trace.
SEED_STRIDE = 1_000_003


def make_trace(workload: Workload, seed: int, duration_ms: float | None = None):
    """Generate one trace; looked up at call time so a probe installed on
    the generator sees the call."""
    module, function, _ = GENERATORS[workload.family]
    generator = getattr(importlib.import_module(module), function)
    return generator(duration_ms=duration_ms or workload.duration_ms,
                     seed=seed)


def make_traces(workload: Workload, seed: int) -> list:
    """The workload's traces for ``seed``; the first uses ``seed`` itself."""
    return [make_trace(workload, seed + j * SEED_STRIDE)
            for j in range(workload.traces)]


@dataclass
class Call:
    """One simulate call of a pass."""

    label: str
    seconds: float
    result: object | None
    error: str | None = None
    cp_limit: float | None = None


@dataclass
class PassResult:
    wall_s: float
    calls: list[Call]
    points: list


def run_pass(workload: Workload, trace) -> PassResult:
    """Run one pass over one trace, timing each simulate call with a
    probe over ``simulate`` alone (nested inside the traced run's probe,
    if any)."""
    probe = LayerProbe(SIMULATE, run_id="pass")
    start = time.perf_counter()
    with probe:
        points = repro.analysis.sweep.sweep_cp_limit(
            trace, list(workload.cp_limits), list(workload.techniques),
            engine=workload.engine, max_workers=1)
        observed = None
        if workload.observed:
            try:
                observed = repro.sim.run.simulate(
                    trace, technique="dma-ta-pl", cp_limit=0.10,
                    engine=workload.engine, telemetry=TelemetrySampler(),
                    digests=DigestRecorder())
            except Exception as exc:  # counted as a failed call
                observed = exc
    wall = time.perf_counter() - start
    seconds = {span["label"]: span["end"] - span["start"]
               for span in probe.spans}

    baseline = points[0].baseline if points else None
    calls = [Call("baseline", seconds.get("baseline", 0.0), baseline,
                  None if baseline is not None else "baseline failed")]
    for point in points:
        label = f"{point.technique}@{point.x:g}"
        calls.append(Call(label, seconds.get(label, 0.0), point.result,
                          point.error, cp_limit=point.x))
    if workload.observed:
        label = "dma-ta-pl@0.1+observed"
        failed = isinstance(observed, Exception)
        calls.append(Call(label, seconds.get(label, 0.0),
                          None if failed else observed,
                          repr(observed) if failed else None, cp_limit=0.10))
    return PassResult(wall, calls, points)


# --- output checks -------------------------------------------------------

def breakdowns(result) -> tuple:
    """The energy and time breakdowns, exact."""
    return (dataclasses.astuple(result.energy),
            dataclasses.astuple(result.time))


def statistics_of(result) -> list:
    """Every simulated statistic of a run, flattened to numbers."""
    energy, time_ = breakdowns(result)
    values = [result.duration_cycles, *energy, *time_, result.transfers,
              result.requests, result.proc_accesses, result.mu,
              result.service_cycles, result.head_delay_cycles,
              result.extra_service_cycles, result.migrations,
              result.table_flushes, result.wakes, result.guarantee_violated,
              *result.chip_energy]
    for mapping in (result.client_responses, result.controller_stats):
        for key in sorted(mapping):
            values += [key, mapping[key]]
    return values


#: Floating-point statistics may differ from a repetition's by this share.
#: They are not bit-stable across runs in one process: ``repro.io.dma``
#: numbers streams from a process-wide counter and hashes them by that
#: number, so a chip's set of concurrent streams is water-filled in an
#: order that depends on the runs made before it (seen on OLTP-Db, whose
#: processor bursts share chips with DMA). Exact mismatches are counted
#: and reported; everything that is not a float must match exactly.
FLOAT_REL_TOL = 1e-12


def compare_statistics(values: list, reference: list) -> tuple[int, float]:
    """(floats that differ at all, largest relative difference); the
    difference is infinite if anything else differs."""
    if len(values) != len(reference):
        return 0, float("inf")
    drifted, worst = 0, 0.0
    for value, expected in zip(values, reference):
        if value == expected:
            continue
        if not (isinstance(value, float) and isinstance(expected, float)):
            return drifted, float("inf")
        drifted += 1
        worst = max(worst, abs(value - expected)
                    / max(abs(value), abs(expected)))
    return drifted, worst


@dataclass
class Check:
    """Outcome of checking one pass."""

    #: Failed calls: ``label -> reason``.
    failures: dict[str, str]
    #: Floats that differ from the reference's at all, within
    #: :data:`FLOAT_REL_TOL`.
    drifted_floats: int = 0


def check_pass(result: PassResult, reference: dict | None = None) -> Check:
    """Check every call of a pass.

    A call fails if it raised, served a different number of DMA-memory
    requests than its baseline, violated its guarantee or CP-Limit, was
    flagged by the sweep's audit, or (given ``reference`` from
    :func:`fingerprints` of an earlier pass) changed any simulated
    statistic. The observed call must also match the plain call's
    breakdowns bit for bit.
    """
    failures: dict[str, str] = {}
    drifted = 0
    calls = {call.label: call for call in result.calls}
    baseline = calls["baseline"].result
    for call in result.calls:
        if call.error is not None or call.result is None:
            failures[call.label] = f"raised: {call.error}"
            continue
        run = call.result
        expected = reference.get(call.label) if reference is not None else None
        if baseline is not None and run.requests != baseline.requests:
            failures[call.label] = (
                f"served {run.requests} requests, baseline {baseline.requests}")
        elif call.cp_limit is not None and run.guarantee_violated:
            failures[call.label] = "guarantee violated"
        elif call.cp_limit is not None and baseline is not None \
                and run.client_degradation_vs(baseline) > call.cp_limit:
            failures[call.label] = (
                f"client degradation {run.client_degradation_vs(baseline):.4f}"
                f" above CP-Limit {call.cp_limit:g}")
        elif reference is not None:
            floats, worst = (compare_statistics(statistics_of(run), expected)
                             if expected is not None else (0, float("inf")))
            if worst > FLOAT_REL_TOL:
                failures[call.label] = (
                    "simulated statistics differ from the first pass")
            drifted += floats
    for point in result.points:
        label = f"{point.technique}@{point.x:g}"
        if point.audit and label not in failures:
            failures[label] = "audit: " + "; ".join(point.audit)
    observed = calls.get("dma-ta-pl@0.1+observed")
    plain = calls.get("dma-ta-pl@0.1")
    if observed is not None and observed.result is not None \
            and plain is not None and plain.result is not None \
            and breakdowns(observed.result) != breakdowns(plain.result) \
            and observed.label not in failures:
        failures[observed.label] = "breakdowns differ from the plain run"
    return Check(failures, drifted)


def fingerprints(result: PassResult) -> dict[str, list]:
    """The reference a later pass is checked against."""
    return {call.label: statistics_of(call.result)
            for call in result.calls if call.result is not None}


def check_scalar_oracle(workload: Workload, trace, result: PassResult
                        ) -> str | None:
    """Bit-identity of the precise DMA-TA-PL run against precise-scalar."""
    call = next(c for c in result.calls if c.cp_limit is not None)
    if call.result is None:
        return None  # already counted as failed
    try:
        oracle = repro.sim.run.simulate(
            trace, technique="dma-ta-pl", cp_limit=call.cp_limit,
            engine="precise-scalar")
    except Exception as exc:  # counted as a failed call
        return f"raised: {exc!r}"
    if breakdowns(oracle) != breakdowns(call.result):
        return "breakdowns differ from precise-scalar"
    return None


def fig5_abs_dev(result: PassResult, paper: dict) -> float:
    """Mean |relative deviation| from the paper's published points."""
    deviations = [
        abs(point.savings / paper[point.technique][point.x] - 1.0)
        for point in result.points
        if point.x in paper.get(point.technique, {})]
    return sum(deviations) / len(deviations)
