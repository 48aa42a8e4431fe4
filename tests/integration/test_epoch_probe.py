"""Tier-1 gate: telemetry and digests share one epoch probe.

With both observers attached, each must see exactly what it sees alone,
the physics must match the unobserved run bit for bit, and each chip is
read once per probe tick, not once per observer.
"""

import pytest

from repro import simulate
from repro.errors import ConfigurationError
from repro.memory.chip import FluidChip
from repro.obs.diff import DigestConfig, DigestRecorder
from repro.obs.telemetry import TelemetryConfig, TelemetrySampler
from repro.traces.synthetic import synthetic_storage_trace

PERIOD = 2000.0


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=1.0, transfers_per_ms=100,
                                   seed=51)


def observers(telemetry_cycles=PERIOD, digest_cycles=PERIOD):
    return (TelemetrySampler(TelemetryConfig(sample_cycles=telemetry_cycles)),
            DigestRecorder(DigestConfig(epoch_cycles=digest_cycles)))


def run(trace, engine, **observed):
    return simulate(trace, technique="dma-ta-pl", engine=engine, mu=2.0,
                    **observed)


@pytest.mark.parametrize("engine", ["fluid", "precise"])
def test_both_observers_match_each_alone(trace, engine):
    plain = run(trace, engine)
    alone_sampler, alone_recorder = observers()
    run(trace, engine, telemetry=alone_sampler)
    alone_trail = run(trace, engine, digests=alone_recorder).digests

    sampler, recorder = observers()
    both = run(trace, engine, telemetry=sampler, digests=recorder)

    assert sampler.store.snapshot().data.tobytes() \
        == alone_sampler.store.snapshot().data.tobytes()
    assert both.digests.chain_tip == alone_trail.chain_tip
    assert both.digests.ticks == sampler.samples_captured > 100
    assert both.energy.as_dict() == plain.energy.as_dict()
    assert both.time.as_dict() == plain.time.as_dict()
    assert both.duration_cycles == plain.duration_cycles


def test_mismatched_cadences_raise(trace):
    sampler, recorder = observers(telemetry_cycles=PERIOD,
                                  digest_cycles=2 * PERIOD)
    with pytest.raises(ConfigurationError):
        run(trace, "fluid", telemetry=sampler, digests=recorder)


def test_each_chip_is_read_once_per_tick(trace, paper_config, monkeypatch):
    calls = 0
    observe = FluidChip.observe

    def counted(self, now):
        nonlocal calls
        calls += 1
        return observe(self, now)

    monkeypatch.setattr(FluidChip, "observe", counted)
    sampler, recorder = observers()
    result = run(trace, "fluid", telemetry=sampler, digests=recorder)
    ticks = result.digests.ticks
    assert ticks == sampler.samples_captured > 100
    assert calls == ticks * paper_config.memory.num_chips
