"""Tier-1 gate: the digest recorder's chain equals a from-scratch one.

``DigestRecorder`` reuses the previous tick's ``repr`` for every slot
whose value object is unchanged. A reference consumer bound to the same
epoch probe re-``repr``s every value at every tick; both chains, the
recorder's captures and the probe's value types must agree, on both
engines, with fault injection and capture windows set. Each energy
value must be its chip's ``energy.total`` at that tick.
"""

import hashlib

import pytest

from repro import simulate
from repro.obs import probe as probe_module
from repro.obs.diff import DigestConfig, DigestRecorder
from repro.obs.probe import CHIP_WIDTH, I_DEG, SCALAR_FIELDS
from repro.traces.oltp import oltp_storage_trace
from repro.traces.synthetic import synthetic_storage_trace

EPOCH_CYCLES = 2000.0


class ReferenceDigest:
    """Probe consumer hashing ``repr`` of every value at every tick."""

    def __init__(self, config: DigestConfig) -> None:
        self.config = config
        self.requested_cycles = config.epoch_cycles
        self.chain = b""
        self.ticks = 0
        self.vectors: dict[int, list[float]] = {}

    def bind(self, probe) -> None:
        self.width = len(probe.fields)

    def sample(self, values: list[float]) -> None:
        assert len(values) == self.width
        assert all(type(v) is float for v in values)
        # The probe hands on the last tick's energy total when no bucket
        # changed; it must still be the chip's total, bit for bit.
        for k, chip in enumerate(self.chips):
            energy = values[len(SCALAR_FIELDS) + k * CHIP_WIDTH]
            assert energy.hex() == chip.energy.total.hex()
        if self.ticks == self.config.inject_skew_epoch:
            values = list(values)
            values[I_DEG] += self.config.inject_skew_cycles
        payload = "|".join(repr(v) for v in values).encode("ascii")
        self.chain = hashlib.blake2b(self.chain + payload,
                                     digest_size=16).digest()
        capture = self.config.capture_range
        if capture is not None and capture[0] <= self.ticks <= capture[1]:
            self.vectors[self.ticks] = list(values)
        self.ticks += 1


def run_with_reference(monkeypatch, trace, engine, technique, config):
    """Run with a recorder and a reference consumer on one probe."""
    reference = ReferenceDigest(config)

    def attach(engine_, *consumers):
        reference.chips = (engine_.memory.chips if engine == "fluid"
                           else engine_.chips)
        return probe_module.attach(engine_, *consumers, reference)

    monkeypatch.setattr(f"repro.sim.{engine}.attach_probe", attach)
    mu = 2.0 if "dma-ta" in technique else None
    result = simulate(trace, technique=technique, engine=engine, mu=mu,
                      digests=DigestRecorder(config))
    return result.digests, reference


CONFIGS = {
    "plain": DigestConfig(epoch_cycles=EPOCH_CYCLES),
    "skew-and-capture": DigestConfig(epoch_cycles=EPOCH_CYCLES,
                                     inject_skew_epoch=120,
                                     capture_range=(100, 140)),
}


@pytest.fixture(scope="module")
def synthetic():
    return synthetic_storage_trace(duration_ms=1.0, transfers_per_ms=100,
                                   seed=51)


@pytest.fixture(scope="module")
def oltp():
    return oltp_storage_trace(duration_ms=1.0, seed=301)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("engine, technique", [
    ("fluid", "dma-ta-pl"), ("fluid", "baseline"),
    ("precise", "dma-ta-pl"), ("precise", "pl"),
])
def test_recorder_chain_equals_reference(monkeypatch, synthetic, engine,
                                         technique, config):
    trail, reference = run_with_reference(monkeypatch, synthetic, engine,
                                          technique, config)
    assert trail.ticks == reference.ticks > 100
    assert trail.chain_tip == reference.chain.hex()
    if config.capture_range is not None:
        lo, hi = config.capture_range
        assert [c.tick for c in trail.captures] == list(range(lo, hi + 1))
        for capture in trail.captures:
            assert list(capture.fields.values()) \
                == reference.vectors[capture.tick]


def test_recorder_chain_equals_reference_on_oltp(monkeypatch, oltp):
    trail, reference = run_with_reference(
        monkeypatch, oltp, "fluid", "dma-ta-pl",
        CONFIGS["skew-and-capture"])
    assert trail.chain_tip == reference.chain.hex()
