"""Units for the energy/time breakdown accumulators."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.accounting import (
    BUCKET_SLOT,
    BUCKETS,
    EnergyBreakdown,
    TimeBreakdown,
)
from repro.errors import SimulationError


class TestEnergyBreakdown:
    def test_total_is_sum_of_buckets(self):
        e = EnergyBreakdown(serving_dma=1.0, serving_proc=0.5, idle_dma=2.0,
                            idle_threshold=0.1, transition=0.2,
                            low_power=0.7, migration=0.3)
        assert e.total == pytest.approx(4.8)
        assert e.serving == pytest.approx(1.5)

    def test_add_accumulates(self):
        a = EnergyBreakdown(serving_dma=1.0)
        b = EnergyBreakdown(serving_dma=2.0, idle_dma=3.0)
        a.add(b)
        assert a.serving_dma == 3.0
        assert a.idle_dma == 3.0

    def test_plus_operator_is_pure(self):
        a = EnergyBreakdown(serving_dma=1.0)
        b = EnergyBreakdown(idle_dma=2.0)
        c = a + b
        assert c.serving_dma == 1.0 and c.idle_dma == 2.0
        assert a.idle_dma == 0.0 and b.serving_dma == 0.0

    def test_fractions_sum_to_one(self):
        e = EnergyBreakdown(serving_dma=1.0, idle_dma=3.0)
        fractions = e.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["idle_dma"] == pytest.approx(0.75)

    def test_fractions_empty_when_zero(self):
        assert EnergyBreakdown().fractions() == {}

    def test_validate_rejects_negative(self):
        e = EnergyBreakdown(serving_dma=-1.0)
        with pytest.raises(SimulationError):
            e.validate()

    def test_validate_tolerates_tiny_negatives(self):
        e = EnergyBreakdown(serving_dma=1.0, idle_dma=-1e-15)
        e.validate()  # float dust is fine

    def test_as_dict_includes_total(self):
        d = EnergyBreakdown(serving_dma=1.0).as_dict()
        assert d["total"] == 1.0
        assert d["serving_dma"] == 1.0

    def test_copy_is_independent(self):
        a = EnergyBreakdown(serving_dma=1.0)
        b = a.copy()
        b.serving_dma = 5.0
        assert a.serving_dma == 1.0


class TestTimeBreakdown:
    def test_active_dma_total(self):
        t = TimeBreakdown(serving_dma=4.0, idle_dma=8.0)
        assert t.active_dma_total == 12.0

    def test_utilization_factor_paper_example(self):
        """Section 5.3's example: 3:1 ratio, no interleaving -> uf = 0.33."""
        t = TimeBreakdown(serving_dma=4.0, idle_dma=8.0)
        assert t.utilization_factor() == pytest.approx(1 / 3)

    def test_utilization_factor_bounds(self):
        assert TimeBreakdown().utilization_factor() == 0.0
        full = TimeBreakdown(serving_dma=10.0)
        assert full.utilization_factor() == 1.0

    def test_proc_serving_counts_as_useful(self):
        """Processor accesses consuming active-idle cycles raise uf."""
        without = TimeBreakdown(serving_dma=4.0, idle_dma=8.0)
        with_proc = TimeBreakdown(serving_dma=4.0, idle_dma=4.0,
                                  serving_proc=4.0)
        assert with_proc.utilization_factor() > without.utilization_factor()

    def test_add(self):
        a = TimeBreakdown(serving_dma=1.0)
        a.add(TimeBreakdown(serving_dma=2.0, low_power=5.0))
        assert a.serving_dma == 3.0
        assert a.low_power == 5.0

    def test_validate_rejects_negative(self):
        with pytest.raises(SimulationError):
            TimeBreakdown(idle_dma=-5.0).validate()


bucket_values = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    min_size=7, max_size=7)


class TestBucketOrder:
    def test_buckets_are_the_field_order(self):
        assert BUCKETS == tuple(f.name for f in fields(TimeBreakdown))
        assert BUCKETS == tuple(f.name for f in fields(EnergyBreakdown))
        assert [BUCKET_SLOT[name] for name in BUCKETS] == list(range(7))

    @given(bucket_values)
    @settings(max_examples=100)
    def test_total_sums_in_field_order(self, values):
        """``total`` is the field-order sum, bit for bit."""
        for cls in (EnergyBreakdown, TimeBreakdown):
            breakdown = cls(**dict(zip(BUCKETS, values)))
            expected = sum(getattr(breakdown, f.name) for f in fields(cls))
            assert breakdown.total.hex() == expected.hex()
