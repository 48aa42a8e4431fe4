"""Units for the event queue and the result object."""

import pytest

from repro.energy.accounting import EnergyBreakdown, TimeBreakdown
from repro.errors import SimulationError
from repro.sim.engine import EventKind, EventQueue
from repro.sim.results import SimulationResult


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "b")
        q.push(1.0, EventKind.ARRIVAL, "a")
        assert q.pop()[2] == "a"
        assert q.pop()[2] == "b"

    def test_kind_breaks_ties(self):
        """COMPLETE before ARRIVAL at the same instant."""
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "arrival")
        q.push(5.0, EventKind.COMPLETE, "complete")
        assert q.pop()[2] == "complete"

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "first")
        q.push(5.0, EventKind.ARRIVAL, "second")
        assert q.pop()[2] == "first"

    def test_now_advances(self):
        q = EventQueue()
        q.push(7.0, EventKind.EPOCH, None)
        q.pop()
        assert q.now == 7.0

    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(10.0, EventKind.EPOCH, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.push(5.0, EventKind.EPOCH, None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.EPOCH, None)
        assert q and len(q) == 1


class TestEventQueueSlot:
    def test_slot_pops_between_lower_and_higher_kinds(self):
        q = EventQueue()
        for kind in reversed(EventKind):
            if kind is not EventKind.EPOCH:
                q.push(5.0, kind, kind.name)
        q.set_slot(5.0, EventKind.EPOCH)
        order = [q.pop()[1] for _ in range(len(q))]
        assert order == sorted(EventKind)

    def test_slot_time_order(self):
        q = EventQueue()
        q.push(3.0, EventKind.PROBE, "probe")
        q.set_slot(2.0, EventKind.EPOCH)
        q.push(1.0, EventKind.INTERVAL, "interval")
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]
        assert q.now == 3.0

    def test_len_and_bool_count_the_slot(self):
        q = EventQueue()
        q.set_slot(1.0, EventKind.EPOCH)
        assert q and len(q) == 1
        q.push(2.0, EventKind.ARRIVAL, None)
        assert len(q) == 2
        assert q.pop() == (1.0, EventKind.EPOCH, None)
        assert q.slot_time == float("inf")
        assert len(q) == 1

    def test_slot_in_past_rejected(self):
        q = EventQueue()
        q.push(10.0, EventKind.ARRIVAL, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.set_slot(5.0, EventKind.EPOCH)

    def test_slot_pops_from_empty_heap(self):
        q = EventQueue()
        q.set_slot(4.0, EventKind.EPOCH)
        assert q.slot_time == 4.0
        assert q.pop() == (4.0, EventKind.EPOCH, None)
        assert q.now == 4.0
        assert not q
        with pytest.raises(SimulationError):
            q.pop()

    def test_set_slot_replaces_pending_one(self):
        q = EventQueue()
        q.set_slot(4.0, EventKind.EPOCH)
        q.set_slot(6.0, EventKind.EPOCH)
        assert len(q) == 1 and q.pop()[0] == 6.0


def make_result(**overrides):
    defaults = dict(
        trace_name="t", technique="baseline", engine="fluid",
        duration_cycles=1000.0,
        energy=EnergyBreakdown(serving_dma=1.0, idle_dma=2.0, low_power=1.0),
        time=TimeBreakdown(serving_dma=4.0, idle_dma=8.0),
        transfers=1, requests=1024, mu=0.0, service_cycles=4.0,
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestSimulationResult:
    def test_energy_and_uf(self):
        r = make_result()
        assert r.energy_joules == pytest.approx(4.0)
        assert r.utilization_factor == pytest.approx(1 / 3)

    def test_savings(self):
        base = make_result()
        better = make_result(
            energy=EnergyBreakdown(serving_dma=1.0, idle_dma=0.5,
                                   low_power=0.5))
        assert better.energy_savings_vs(base) == pytest.approx(0.5)

    def test_avg_degradation(self):
        r = make_result(head_delay_cycles=1024.0, extra_service_cycles=0.0)
        assert r.avg_extra_service_cycles == pytest.approx(1.0)
        assert r.avg_service_degradation == pytest.approx(0.25)

    def test_client_degradation(self):
        base = make_result(client_responses={0: 100.0, 1: 200.0})
        slow = make_result(client_responses={0: 110.0, 1: 220.0})
        assert slow.client_degradation_vs(base) == pytest.approx(0.10)

    def test_client_degradation_uses_shared_requests(self):
        base = make_result(client_responses={0: 100.0})
        other = make_result(client_responses={1: 9999.0, 0: 150.0})
        assert other.client_degradation_vs(base) == pytest.approx(0.5)

    def test_client_degradation_empty(self):
        assert make_result().client_degradation_vs(make_result()) == 0.0

    def test_mean_response(self):
        r = make_result(client_responses={0: 100.0, 1: 300.0})
        assert r.mean_client_response_cycles == 200.0

    def test_summary_contains_key_lines(self):
        r = make_result(mu=5.0, migrations=3)
        text = r.summary()
        assert "idle_dma" in text
        assert "guarantee" in text
        assert "migrations: 3" in text
