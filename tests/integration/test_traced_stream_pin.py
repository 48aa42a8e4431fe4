"""The traced DMA-TA path emits a pinned event stream.

With a tracer attached, the TA controller tests every buffered chip at
every epoch (each slack test emits a ``slack`` counter) and the fluid
engine handles each epoch as its own event. Without one, the quiet-epoch
pre-check and loop skip that work. The stream below was recorded before
the pre-check and the loop existed; it pins the traced path and,
through it, the audit replay that reads it. The untraced run must match
the traced run's statistics exactly.
"""

import hashlib
import io
import json
from collections import Counter

import pytest

from repro.obs.tracer import JsonlTracer
from repro.sim.run import simulate
from repro.traces.oltp import oltp_storage_trace

#: JSONL event stream of a fluid DMA-TA-PL run, 5 ms OLTP-St (seed 1),
#: CP-Limit 10%.
STREAM_SHA256 = (
    "0b53b67e9ff1b259d346e1ec69b33fea5616ef984a2ad585944f7030ac3dfe71")
STREAM_COUNTS = {
    "active": 223, "active-idle": 180, "dma.arrive": 241, "dma.done": 241,
    "dma.release": 218, "dma.start": 241, "nap": 180, "pending_heads": 4009,
    "powerdown": 426, "queue_depth": 482, "served_requests": 4009,
    "sim.config": 1, "slack": 3133, "slack.charge_epoch": 2346,
    "slack.charge_wake": 181, "slack.violation": 1, "standby": 180,
    "ta.buffer": 218, "ta.release": 181, "to-nap": 180, "to-powerdown": 180,
    "to-standby": 180, "wake": 181,
}


@pytest.fixture(scope="module")
def runs():
    trace = oltp_storage_trace(duration_ms=5.0, seed=1)
    stream = io.StringIO()
    traced = simulate(trace, technique="dma-ta-pl", cp_limit=0.10,
                      tracer=JsonlTracer(stream))
    plain = simulate(trace, technique="dma-ta-pl", cp_limit=0.10)
    return stream.getvalue(), traced, plain


def test_traced_stream_is_pinned(runs):
    text, _, _ = runs
    counts = Counter(json.loads(line)["name"] for line in text.splitlines())
    assert dict(counts) == STREAM_COUNTS
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_SHA256


def test_untraced_run_matches_traced(runs):
    _, traced, plain = runs
    assert plain.energy == traced.energy
    assert plain.time == traced.time
    assert plain.duration_cycles == traced.duration_cycles
    assert plain.head_delay_cycles == traced.head_delay_cycles
    assert plain.controller_stats == traced.controller_stats
    assert (plain.metrics.counters["slack.violations"]
            == traced.metrics.counters["slack.violations"])
    assert (plain.metrics.counters["sim.epochs"]
            == traced.metrics.counters["sim.epochs"])
