"""Exporters: Chrome trace-event / Perfetto JSON and text summaries.

:func:`chrome_trace` maps a run's event stream onto the Chrome
trace-event JSON format (the JSON Perfetto, ``chrome://tracing``, and
``ui.perfetto.dev`` all load): one *thread* (track row) per memory chip,
one per I/O bus, plus controller and simulator rows, with power-state
residency spans as complete ("X") slices and policy decisions as
instants. Timestamps convert from memory cycles to microseconds using
the platform clock.

:func:`validate_chrome_trace` checks an exported object against the
format's structural rules — the CI smoke test runs it on the artifact it
uploads, so a malformed trace fails the build rather than failing
silently in the viewer.

:func:`residency_from_events` folds the span stream back into per-chip
time-bucket totals; the test suite uses it to assert the exported trace
agrees with the run's :class:`~repro.obs.metrics.MetricsReport` (the
acceptance criterion of the observability PR).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro import units
from repro.energy.accounting import BUCKETS
from repro.obs.events import (
    PH_COUNTER,
    PH_INSTANT,
    PH_SPAN,
    PHASES,
    TRACK_AUDIT,
    TRACK_BUS,
    TRACK_CHIP,
    TRACK_FLEET,
    TRACK_PROFILE,
    TRACK_WORKER,
    Event,
)

#: Process ids of the exported track groups.
_PID_MEMORY = 1
_PID_IO = 2
_PID_POLICY = 3
_PID_PROFILE = 4
_PID_AUDIT = 5
_PID_FLEET = 6

#: The time buckets a residency span may claim (TimeBreakdown fields).
RESIDENCY_BUCKETS = BUCKETS


def _track_key(track: str) -> tuple[int, int, str]:
    """Deterministic (pid, tid-order, label) for a track name."""
    kind, _, index = track.partition(":")
    if kind == TRACK_CHIP and index.isdigit():
        return (_PID_MEMORY, int(index), f"chip {index}")
    if kind == TRACK_BUS and index.isdigit():
        return (_PID_IO, int(index), f"bus {index}")
    if kind == TRACK_PROFILE:
        return (_PID_PROFILE, 0, "hot paths (cProfile)")
    if kind == TRACK_AUDIT:
        rank = int(index) if index.isdigit() else 0
        return (_PID_AUDIT, rank, f"waterfall #{rank}" if index else "audit")
    if kind == TRACK_FLEET:
        return (_PID_FLEET, 0, "sweep lane")
    if kind == TRACK_WORKER and index.isdigit():
        slot = int(index)
        label = "serial (parent)" if slot == 0 else f"worker {slot}"
        return (_PID_FLEET, slot + 1, label)
    return (_PID_POLICY, 0, track)


def chrome_trace(events: Iterable[Event],
                 frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
                 label: str | None = None) -> dict[str, Any]:
    """Convert an event stream to a Chrome trace-event JSON object.

    Args:
        events: the run's events (any order; the format is order-free).
        frequency_hz: memory clock used to convert cycles to
            microseconds.
        label: optional run label stored in ``otherData``.

    Returns:
        A JSON-serialisable dict with ``traceEvents`` (spans, instants,
        counters, and the thread/process metadata naming every track)
        and ``displayTimeUnit: "ms"``.
    """
    scale = 1e6 / frequency_hz  # cycles -> microseconds
    trace_events: list[dict[str, Any]] = []
    tracks: dict[str, tuple[int, int, str]] = {}

    def tid_of(track: str) -> tuple[int, int]:
        try:
            pid, order, _ = tracks[track]
        except KeyError:
            pid, order, label_ = _track_key(track)
            tracks[track] = (pid, order, label_)
        else:
            return pid, order
        return pid, order

    for event in events:
        pid, tid = tid_of(event.track)
        out: dict[str, Any] = {
            "name": event.name,
            "ph": event.ph,
            "ts": event.ts * scale,
            "pid": pid,
            "tid": tid,
        }
        if event.ph == PH_SPAN:
            out["dur"] = event.dur * scale
        if event.ph == PH_INSTANT:
            out["s"] = "t"  # instant scope: thread
        if event.args:
            out["args"] = dict(event.args)
        trace_events.append(out)

    process_names = {_PID_MEMORY: "memory chips", _PID_IO: "I/O buses",
                     _PID_POLICY: "policies", _PID_PROFILE: "profiler",
                     _PID_AUDIT: "audit waterfalls", _PID_FLEET: "fleet"}
    for pid in sorted({pid for pid, _, _ in tracks.values()}):
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_names.get(pid, f"group {pid}")},
        })
    for _track, (pid, tid, label_) in sorted(tracks.items()):
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label_},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "frequency_hz": frequency_hz,
            **({"label": label} if label else {}),
        },
    }


#: PID offset applied to run B's tracks in :func:`diff_chrome_trace` so
#: the two runs render as separate, vertically aligned process groups.
_DIFF_PID_OFFSET = 100


def diff_chrome_trace(events_a: Iterable[Event],
                      events_b: Iterable[Event],
                      frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
                      label_a: str = "run A",
                      label_b: str = "run B") -> dict[str, Any]:
    """Merge two runs' event streams into one aligned Chrome trace.

    Run A keeps the standard track layout; run B's process ids are
    shifted by a constant offset and its process names suffixed with the
    run label, so Perfetto shows ``memory chips — run A`` directly above
    ``memory chips — run B`` on a shared time axis. This is the visual
    companion of :func:`repro.obs.diff.diff_runs`: scroll to the
    reported divergence epoch and compare the two runs' spans in place.
    """
    merged = chrome_trace(events_a, frequency_hz=frequency_hz,
                          label=f"{label_a} vs {label_b}")
    trace_b = chrome_trace(events_b, frequency_hz=frequency_hz)
    for event in merged["traceEvents"]:
        if event["ph"] == "M" and event["name"] == "process_name":
            event["args"]["name"] += f" — {label_a}"
    for event in trace_b["traceEvents"]:
        event = dict(event)
        event["pid"] += _DIFF_PID_OFFSET
        if event["ph"] == "M" and event["name"] == "process_name":
            event["args"] = {"name": f"{event['args']['name']} — {label_b}"}
        merged["traceEvents"].append(event)
    return merged


def write_chrome_trace(events: Iterable[Event], path: str | Path,
                       frequency_hz: float = units.RDRAM_FREQUENCY_HZ,
                       label: str | None = None) -> Path:
    """Export ``events`` to ``path`` as Chrome trace JSON; returns path."""
    path = Path(path)
    payload = chrome_trace(events, frequency_hz=frequency_hz, label=label)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def validate_chrome_trace(obj: Any) -> list[str]:
    """Structural problems of a Chrome trace-event object ([] if valid).

    Checks the rules the viewers actually enforce: a ``traceEvents``
    list whose members carry ``name``/``ph``/``pid``/``tid``, numeric
    non-negative ``ts`` on timed phases, a numeric non-negative ``dur``
    on every complete ("X") event, and ``args`` dicts where present.
    """
    problems: list[str] = []
    if not isinstance(obj, Mapping):
        return ["top level is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, Sequence) or isinstance(events, (str, bytes)):
        return ["traceEvents is missing or not an array"]
    known_phases = set(PHASES) | {"M", "B", "E", "b", "e", "n", "s", "t", "f"}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in known_phases:
            problems.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where}: missing {key}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == PH_SPAN:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if "args" in event and not isinstance(event["args"], Mapping):
            problems.append(f"{where}: args is not an object")
    return problems


def residency_from_events(events: Iterable[Event]) -> dict[int, dict[str, float]]:
    """Per-chip time-bucket totals (cycles) recovered from span events.

    Spans carry either a single ``bucket`` arg (idle descent, wake
    transitions) or per-bucket cycle splits (busy spans, whose duration
    divides between serving and active-idle). The result is directly
    comparable to :attr:`~repro.obs.metrics.MetricsReport.chip_residency`.
    """
    residency: dict[int, dict[str, float]] = {}
    for event in events:
        if event.ph != PH_SPAN:
            continue
        kind, _, index = event.track.partition(":")
        if kind != TRACK_CHIP or not index.isdigit():
            continue
        chip = residency.setdefault(
            int(index), {bucket: 0.0 for bucket in RESIDENCY_BUCKETS})
        args = event.args or {}
        bucket = args.get("bucket")
        if bucket in chip:
            chip[bucket] += event.dur
            continue
        # Busy span: args carry explicit per-bucket cycle splits.
        for name in RESIDENCY_BUCKETS:
            value = args.get(name)
            if isinstance(value, (int, float)):
                chip[name] += value
    return residency


__all__ = [
    "RESIDENCY_BUCKETS", "chrome_trace", "diff_chrome_trace",
    "write_chrome_trace", "validate_chrome_trace",
    "residency_from_events",
]
