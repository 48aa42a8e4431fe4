"""Units for page layouts."""

import random

import pytest

from repro.errors import LayoutError
from repro.memory.address import (
    InterleavedLayout,
    MutableLayout,
    RandomLayout,
    SequentialLayout,
)


class TestSequential:
    def test_fills_chip_by_chip(self):
        layout = SequentialLayout(num_chips=4, pages_per_chip=8)
        assert layout.chip_of(0) == 0
        assert layout.chip_of(7) == 0
        assert layout.chip_of(8) == 1
        assert layout.chip_of(31) == 3

    def test_out_of_range(self):
        layout = SequentialLayout(num_chips=4, pages_per_chip=8)
        with pytest.raises(LayoutError):
            layout.chip_of(32)
        with pytest.raises(LayoutError):
            layout.chip_of(-1)


class TestInterleaved:
    def test_round_robin(self):
        layout = InterleavedLayout(num_chips=4, pages_per_chip=8)
        assert [layout.chip_of(p) for p in range(6)] == [0, 1, 2, 3, 0, 1]


class TestRandom:
    def test_deterministic_per_seed(self):
        a = RandomLayout(4, 8, seed=42)
        b = RandomLayout(4, 8, seed=42)
        assert [a.chip_of(p) for p in range(32)] == \
               [b.chip_of(p) for p in range(32)]

    def test_different_seeds_differ(self):
        a = RandomLayout(8, 64, seed=1)
        b = RandomLayout(8, 64, seed=2)
        assert [a.chip_of(p) for p in range(512)] != \
               [b.chip_of(p) for p in range(512)]

    def test_capacity_respected(self):
        layout = RandomLayout(4, 8, seed=0)
        counts = [0] * 4
        for page in range(32):
            counts[layout.chip_of(page)] += 1
        assert counts == [8, 8, 8, 8]

    @pytest.mark.parametrize("num_chips,pages_per_chip,seed",
                             [(4, 8, 0), (8, 64, 7), (32, 4096, 0)])
    def test_matches_a_fresh_shuffle(self, num_chips, pages_per_chip, seed):
        expected = [page // pages_per_chip
                    for page in range(num_chips * pages_per_chip)]
        random.Random(seed).shuffle(expected)
        layout = RandomLayout(num_chips, pages_per_chip, seed=seed)
        assert list(layout.placement()) == expected
        assert [layout.chip_of(p) for p in range(len(expected))] == expected

    def test_layouts_of_one_seed_share_an_immutable_table(self):
        a = RandomLayout(8, 64, seed=5)
        b = RandomLayout(8, 64, seed=5)
        assert a.placement() is b.placement()
        assert isinstance(a.placement(), tuple)


class TestMutable:
    @pytest.fixture
    def layout(self):
        return MutableLayout(SequentialLayout(num_chips=4, pages_per_chip=8))

    def test_starts_full(self, layout):
        assert layout.occupancy(0) == 8
        assert layout.free_frames(0) == 0

    def test_move_updates_occupancy(self):
        # Build a layout with head-room by moving pages off chip 0 first.
        layout = MutableLayout(SequentialLayout(4, 8))
        layout.swap(0, 8)  # page 0 <-> page 8 (chips 0 and 1)
        assert layout.chip_of(0) == 1
        assert layout.chip_of(8) == 0
        assert layout.occupancy(0) == 8  # swaps conserve occupancy

    def test_move_rejects_full_destination(self, layout):
        with pytest.raises(LayoutError):
            layout.move(0, 1)

    def test_move_to_same_chip_is_noop(self, layout):
        assert layout.move(0, 0) == 0
        assert layout.occupancy(0) == 8

    def test_swap_is_capacity_safe(self, layout):
        layout.swap(0, 31)
        assert layout.chip_of(0) == 3
        assert layout.chip_of(31) == 0
        assert all(layout.occupancy(c) == 8 for c in range(4))

    def test_move_out_of_range_chip(self, layout):
        with pytest.raises(LayoutError):
            layout.move(0, 9)

    def test_edits_leave_the_shared_base_untouched(self):
        base = RandomLayout(4, 8, seed=3)
        original = list(base.placement())
        layout = MutableLayout(base)
        other = next(p for p in range(32) if original[p] != original[0])
        layout.swap(0, other)
        assert layout.move(5, original[5]) == original[5]
        assert layout.chip_of(0) == original[other]
        assert list(base.placement()) == original
        assert list(RandomLayout(4, 8, seed=3).placement()) == original
        assert list(MutableLayout(base).placement()) == original

    def test_copies_any_base(self):
        for base in (SequentialLayout(4, 8), InterleavedLayout(4, 8),
                     RandomLayout(4, 8, seed=1)):
            layout = MutableLayout(base)
            assert [layout.chip_of(p) for p in range(32)] == \
                   [base.chip_of(p) for p in range(32)]
            assert [layout.occupancy(c) for c in range(4)] == [8] * 4

    def test_chip_of_out_of_range(self, layout):
        for page in (-1, 32):
            with pytest.raises(LayoutError):
                layout.chip_of(page)

    def test_occupancy_out_of_range(self, layout):
        with pytest.raises(LayoutError):
            layout.occupancy(17)
