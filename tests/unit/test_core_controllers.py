"""Units for the admission controllers (baseline and DMA-TA)."""

import pytest

from repro.config import SimulationConfig
from repro.core.controller import BaselineController
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.energy.policies import default_dynamic_policy
from repro.energy.rdram import rdram_1600_model
from repro.io.dma import FluidStream, StreamKind
from repro.memory.chip import FluidChip


def make_chip(asleep=True):
    model = rdram_1600_model()
    return FluidChip(0, model, default_dynamic_policy(model),
                     start_asleep=asleep)


def make_stream(bus=0, arrival=0.0, n_req=1024):
    return FluidStream(kind=StreamKind.DMA, chip_id=0,
                       total_work=n_req * 4.0, demand=1 / 3, bus_id=bus,
                       arrival_time=arrival, num_requests=n_req)


def make_ta(mu=10.0, arrived=lambda: 0.0):
    config = SimulationConfig().with_mu(mu)
    return TemporalAlignmentController(config, arrived)


class TestBaseline:
    def test_everything_passes(self):
        controller = BaselineController()
        chip = make_chip()
        released = controller.admit(make_stream(), chip, 0.0)
        assert len(released) == 1
        assert controller.pending_count() == 0
        assert controller.epoch_cycles() is None

    def test_stats(self):
        controller = BaselineController()
        controller.admit(make_stream(), make_chip(), 0.0)
        assert controller.stats()["transfers_admitted"] == 1.0


class TestTemporalAlignment:
    def test_active_chip_passes_through(self):
        controller = make_ta()
        chip = make_chip(asleep=False)
        released = controller.admit(make_stream(), chip, 5.0)
        assert len(released) == 1
        assert controller.transfers_passed_through == 1

    def test_sleeping_chip_buffers(self):
        controller = make_ta()
        released = controller.admit(make_stream(), make_chip(), 100.0)
        assert released == []
        assert controller.pending_count() == 1

    def test_zero_mu_never_buffers(self):
        controller = make_ta(mu=0.0)
        released = controller.admit(make_stream(), make_chip(), 100.0)
        assert len(released) == 1

    def test_k_distinct_buses_release(self):
        controller = make_ta(mu=1000.0)
        chip = make_chip()
        assert controller.admit(make_stream(bus=0), chip, 0.0) == []
        assert controller.admit(make_stream(bus=1), chip, 1.0) == []
        released = controller.admit(make_stream(bus=2), chip, 2.0)
        assert len(released) == 3
        assert controller.releases_by_gather == 1
        assert controller.pending_count() == 0

    def test_same_bus_does_not_count_twice(self):
        controller = make_ta(mu=1e6)
        chip = make_chip()
        for _ in range(3):
            released = controller.admit(make_stream(bus=0), chip, 0.0)
        assert released == []
        assert controller.pending_count() == 3

    def test_pass_through_takes_riders(self):
        controller = make_ta(mu=1e6)
        sleeping = make_chip()
        controller.admit(make_stream(bus=0), sleeping, 0.0)
        active = make_chip(asleep=False)
        active.chip_id = 0  # same chip, now active
        released = controller.admit(make_stream(bus=1), active, 10.0)
        assert len(released) == 2

    def test_epoch_deadline_release(self):
        arrived = {"count": 0.0}
        controller = make_ta(mu=10.0, arrived=lambda: arrived["count"])
        chip = make_chip()
        stream = make_stream(arrival=0.0, n_req=1024)
        assert controller.admit(stream, chip, 0.0) == []
        # Way past the stream's allowance: the epoch must release it.
        releases = controller.on_epoch(1e9)
        assert 0 in releases
        assert controller.releases_by_deadline == 1

    def test_tiny_budget_passes_through(self):
        """A transfer whose waiting budget is below the epoch resolution
        is not buffered at all (the guarantee could not be honoured)."""
        controller = make_ta(mu=10.0)
        chip = make_chip()
        released = controller.admit(make_stream(n_req=4), chip, 0.0)
        assert len(released) == 1
        assert controller.pending_count() == 0

    def test_epoch_keeps_fresh_streams(self):
        controller = make_ta(mu=1e6, arrived=lambda: 1e6)
        chip = make_chip()
        controller.admit(make_stream(arrival=0.0), chip, 0.0)
        releases = controller.on_epoch(10.0)
        assert releases == {}

    def test_drain_releases_everything(self):
        controller = make_ta(mu=1e6)
        chip = make_chip()
        controller.admit(make_stream(bus=0), chip, 0.0)
        controller.admit(make_stream(bus=1), chip, 0.0)
        releases = controller.drain(100.0)
        assert len(releases[0]) == 2
        assert controller.pending_count() == 0

    def test_wake_and_proc_charges(self):
        controller = make_ta(mu=10.0)
        chip = make_chip()
        controller.admit(make_stream(), chip, 0.0)
        before = controller.slack.total_charges
        controller.on_wake(0, 96.0, 1.0, pending_requests=2)
        controller.on_proc_access(0, 32.0, dma_streams_at_chip=1, now=2.0)
        # wake: 96*2, proc: 32*(1 pending + 1 in service) = 64.
        assert controller.slack.total_charges - before == pytest.approx(
            192.0 + 64.0)

    def test_proc_charge_skipped_when_nothing_pending(self):
        controller = make_ta(mu=10.0)
        before = controller.slack.total_charges
        controller.on_proc_access(5, 32.0, dma_streams_at_chip=0, now=0.0)
        assert controller.slack.total_charges == before

    def test_stats_keys(self):
        controller = make_ta()
        stats = controller.stats()
        for key in ("transfers_buffered", "releases_by_gather",
                    "releases_by_deadline", "slack_charges"):
            assert key in stats


class TestPinnedEpochDecisions:
    """DMA-TA decisions on a short OLTP-St trace, recorded before the
    epoch path computed its shared values once per epoch. Every release
    trigger, the total charge and the violation count must stay put."""

    #: CP-Limit -> (gather, slack, deadline, drain releases,
    #: slack_charges, slack.violations).
    PINNED = {
        0.02: (0, 203, 1, 0, 1954800.0, 203),
        0.10: (3, 1, 176, 1, 8609600.0, 1),
        0.30: (9, 1, 136, 1, 25158800.0, 1),
    }

    def test_counters_match_pins(self):
        from repro.analysis.sweep import sweep_cp_limit
        from repro.traces.oltp import oltp_storage_trace

        trace = oltp_storage_trace(duration_ms=5.0, seed=1)
        points = sweep_cp_limit(trace, sorted(self.PINNED), ["dma-ta"])
        observed = {}
        for point in points:
            stats = point.result.controller_stats
            observed[point.x] = (
                stats["releases_by_gather"], stats["releases_by_slack"],
                stats["releases_by_deadline"], stats["releases_by_drain"],
                stats["slack_charges"],
                point.result.metrics.counters["slack.violations"])
        assert observed == self.PINNED
