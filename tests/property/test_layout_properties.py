"""Property tests for layouts, migration, and the popularity machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PopularityLayoutConfig
from repro.core.layout import Group, GroupPlan, PopularityGrouper, hot_group_sizes
from repro.core.migration import MigrationPlanner
from repro.core.popularity import PopularityTracker
from repro.memory.address import MutableLayout, RandomLayout

NUM_CHIPS, PAGES_PER_CHIP = 4, 16
TOTAL = NUM_CHIPS * PAGES_PER_CHIP


counts_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=TOTAL - 1),
    st.integers(min_value=1, max_value=200),
    min_size=0, max_size=30)


@given(st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=6))
def test_hot_group_sizes_partition(n_hot, groups):
    sizes = hot_group_sizes(n_hot, groups)
    assert sum(sizes) == n_hot
    assert all(s > 0 for s in sizes)


@given(counts_strategy)
@settings(max_examples=50)
def test_plan_is_a_partition(counts):
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    # Chips partition exactly into the groups.
    all_chips = sorted(c for g in plan.groups for c in g.chips)
    assert all_chips == list(range(NUM_CHIPS))
    # Every tracked page has exactly one group.
    seen = set()
    for group in plan.groups:
        for page in group.pages:
            assert page not in seen
            seen.add(page)


@given(counts_strategy, st.integers(min_value=0, max_value=99))
@settings(max_examples=50, deadline=None)
def test_migration_preserves_occupancy_and_placement(counts, seed):
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    planner = MigrationPlanner(cfg)
    layout = MutableLayout(RandomLayout(NUM_CHIPS, PAGES_PER_CHIP, seed=seed))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    migration = planner.plan_and_apply(plan, layout)
    # Occupancy is conserved (swaps) and within capacity.
    for chip in range(NUM_CHIPS):
        assert 0 <= layout.occupancy(chip) <= PAGES_PER_CHIP
    assert sum(layout.occupancy(c) for c in range(NUM_CHIPS)) == TOTAL
    # Every hot page ended up on a hot chip.
    hot_chips = plan.hot_chips
    for group in plan.groups:
        if group.is_cold:
            continue
        for page in group.pages:
            assert layout.chip_of(page) in hot_chips


@given(counts_strategy, st.integers(min_value=0, max_value=99))
@settings(max_examples=30, deadline=None)
def test_migration_is_idempotent(counts, seed):
    """Applying the same plan twice must do nothing the second time."""
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    planner = MigrationPlanner(cfg)
    layout = MutableLayout(RandomLayout(NUM_CHIPS, PAGES_PER_CHIP, seed=seed))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    planner.plan_and_apply(plan, layout)
    second = planner.plan_and_apply(plan, layout)
    assert second.num_moves == 0


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=TOTAL - 1),
                          st.integers(min_value=1, max_value=300)),
                max_size=50))
@settings(max_examples=50)
def test_tracker_counts_bounded(events):
    tracker = PopularityTracker(counter_bits=8)
    for page, count in events:
        tracker.record(page, count)
    for page, count in tracker.ranked_pages():
        assert 0 < count <= 255
    # Aging halves (rounding down) every counter.
    before = dict(tracker.ranked_pages())
    tracker.age()
    for page, count in tracker.ranked_pages():
        assert count == before[page] >> 1


def scanned_swap_pool(plan, layout, chip_group):
    """The swap pool as a plain per-page scan: every page on a hot chip
    whose target group (cold if untracked) is not its chip's group."""
    pool = {chip: [] for chip in plan.hot_chips}
    cold = plan.groups[-1].index
    for page in range(layout.total_pages):
        chip = layout.chip_of(page)
        if chip in pool and plan.page_group.get(page, cold) != chip_group[chip]:
            pool[chip].append(page)
    return pool


@st.composite
def layouts_and_plans(draw):
    num_chips = draw(st.integers(min_value=2, max_value=6))
    pages_per_chip = draw(st.integers(min_value=1, max_value=12))
    total = num_chips * pages_per_chip
    layout = MutableLayout(RandomLayout(num_chips, pages_per_chip,
                                        seed=draw(st.integers(0, 99))))
    for page_a, page_b in draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)),
            max_size=10)):
        layout.swap(page_a, page_b)
    # Chips in a random order: the first n_hot split into one or two hot
    # groups (none when n_hot is 0), the rest form the cold group.
    order = draw(st.permutations(range(num_chips)))
    n_hot = draw(st.integers(min_value=0, max_value=num_chips - 1))
    split = draw(st.integers(min_value=1, max_value=max(1, n_hot)))
    hot_parts = [part for part in (order[:split], order[split:n_hot]) if part]
    groups = [Group(index=i, chips=tuple(part), pages=())
              for i, part in enumerate(hot_parts)]
    groups.append(Group(index=len(groups), chips=tuple(order[n_hot:]),
                        pages=(), is_cold=True))
    page_group = draw(st.dictionaries(
        st.integers(0, total - 1), st.integers(0, len(groups) - 1),
        max_size=total))
    return layout, GroupPlan(groups=groups, page_group=page_group)


@given(layouts_and_plans())
@settings(max_examples=150, deadline=None)
def test_swap_pool_matches_a_per_page_scan(case):
    layout, plan = case
    chip_group = MigrationPlanner._chip_groups(plan, layout.num_chips)
    pool = MigrationPlanner._build_swap_pool(plan, layout, chip_group)
    # Same chips in the same order, same victims in the same order.
    assert list(pool.items()) == list(
        scanned_swap_pool(plan, layout, chip_group).items())
    assert all(type(page) is int for victims in pool.values()
               for page in victims)
