"""Reproducibility: identical inputs must give identical outputs."""

import random
from dataclasses import replace

import pytest

from repro import simulate
from repro.config import SimulationConfig
from repro.memory.address import RandomLayout
from repro.traces.oltp import oltp_database_trace, oltp_storage_trace
from repro.traces.synthetic import synthetic_database_trace, synthetic_storage_trace


class TestSimulationDeterminism:
    @pytest.mark.parametrize("technique", ["baseline", "dma-ta",
                                           "dma-ta-pl"])
    def test_same_run_twice(self, technique):
        trace = synthetic_storage_trace(duration_ms=4.0, seed=33)
        a = simulate(trace, technique=technique, mu=50.0)
        b = simulate(trace, technique=technique, mu=50.0)
        assert a.energy.as_dict() == b.energy.as_dict()
        assert a.time.as_dict() == b.time.as_dict()
        assert a.client_responses == b.client_responses
        assert a.controller_stats == b.controller_stats

    def test_repeat_after_other_runs_is_bit_identical(self):
        """A run must not depend on the runs made before it in the same
        process. Stream sets are walked in hash order, so this catches
        stream numbering that carries over from one run to the next."""
        trace = oltp_database_trace(duration_ms=2.0, seed=2)
        other = oltp_database_trace(duration_ms=0.2, seed=3)
        reference = statistics(simulate(trace, technique="dma-ta-pl",
                                        mu=10.0))
        for _ in range(4):
            simulate(other, technique="baseline")
            again = simulate(trace, technique="dma-ta-pl", mu=10.0)
            assert statistics(again) == reference

    def test_back_to_back_pl_runs(self):
        """PL runs edit their own copy of the shared base layout: two in a
        row agree exactly, and the base table is left as shuffled."""
        config = SimulationConfig()
        config = replace(config, layout=replace(config.layout,
                                                interval_cycles=400_000.0))
        trace = oltp_storage_trace(duration_ms=3.0, seed=4)
        a = simulate(trace, config=config, technique="dma-ta-pl", mu=10.0)
        b = simulate(trace, config=config, technique="dma-ta-pl", mu=10.0)
        assert a.migrations > 0
        assert statistics(a) == statistics(b)
        expected = [page // 4096 for page in range(32 * 4096)]
        random.Random(0).shuffle(expected)
        assert list(RandomLayout(32, 4096, seed=0).placement()) == expected

    def test_layout_seed_changes_results(self):
        trace = synthetic_storage_trace(duration_ms=4.0, seed=33)
        a = simulate(trace, technique="baseline", seed=0)
        b = simulate(trace, technique="baseline", seed=1)
        # Different page scattering -> different chip-level coincidences.
        assert a.chip_energy != b.chip_energy

    def test_precise_engine_deterministic(self):
        trace = synthetic_storage_trace(duration_ms=1.0, seed=34)
        a = simulate(trace, technique="baseline", engine="precise")
        b = simulate(trace, technique="baseline", engine="precise")
        assert a.energy.as_dict() == b.energy.as_dict()


class TestGeneratorDeterminism:
    def test_synthetic_generators(self):
        for maker in (synthetic_storage_trace, synthetic_database_trace):
            a = maker(duration_ms=2.0, seed=9)
            b = maker(duration_ms=2.0, seed=9)
            assert a.records == b.records
            assert a.clients == b.clients

    def test_oltp_generator(self):
        a = oltp_storage_trace(duration_ms=2.0, seed=9)
        b = oltp_storage_trace(duration_ms=2.0, seed=9)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        a = synthetic_storage_trace(duration_ms=2.0, seed=1)
        b = synthetic_storage_trace(duration_ms=2.0, seed=2)
        assert a.records != b.records


def statistics(result):
    """Every simulated statistic of a run, for exact comparison."""
    return (result.duration_cycles, result.energy.as_dict(),
            result.time.as_dict(), result.transfers, result.requests,
            result.proc_accesses, result.head_delay_cycles,
            result.extra_service_cycles, result.migrations,
            result.table_flushes, result.wakes, result.guarantee_violated,
            result.chip_energy, result.client_responses,
            result.controller_stats)
