"""Page-migration planning and cost accounting for PL (Section 4.2).

At each interval boundary the planner diffs the new :class:`GroupPlan`
against the live :class:`~repro.memory.address.MutableLayout` and emits
the page moves needed to repair it — no more moves than there are pages
sitting in a group that does not match their popularity, per the paper.

Each move copies one page: the source chip reads it out and the
destination chip writes it in, so *both* chips are busy for
``page_bytes / bytes_per_cycle`` cycles, billed to the ``migration``
energy bucket. A destination chip with no free frame instead *swaps* the
incoming page with one of its misplaced residents (staged through the
controller's page buffer, Section 4.2.1), which costs two page copies —
the plan stays linear in the number of misplaced pages either way.

The controller redirects accesses through its translation table while the
OS page table lags behind; the table's capacity determines how often the
processor must be interrupted to flush translations
(:attr:`MigrationPlan.table_flushes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.config import PopularityLayoutConfig
from repro.core.layout import GroupPlan
from repro.errors import LayoutError
from repro.memory.address import MutableLayout
from repro.obs.events import TRACK_CONTROLLER

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Per-plan cap on individual ``pl.move`` events; plans touching more
#: pages still emit the plan-level summary with ``truncated: true``.
_MOVE_EVENT_CAP = 64


@dataclass(frozen=True)
class PageMove:
    """One page relocation."""

    page: int
    from_chip: int
    to_chip: int


@dataclass
class MigrationPlan:
    """The ordered moves of one interval plus their cost summary."""

    moves: list[PageMove] = field(default_factory=list)
    table_flushes: int = 0

    @property
    def num_moves(self) -> int:
        return len(self.moves)

    def copy_cycles_per_chip(self, page_copy_cycles: float) -> dict[int, float]:
        """Chip-busy cycles each chip spends copying for this plan."""
        cycles: dict[int, float] = {}
        for move in self.moves:
            cycles[move.from_chip] = cycles.get(move.from_chip, 0.0) + page_copy_cycles
            cycles[move.to_chip] = cycles.get(move.to_chip, 0.0) + page_copy_cycles
        return cycles


class MigrationPlanner:
    """Plans and applies the interval-boundary page shuffles.

    Args:
        config: PL parameters.
        tracer: optional event tracer; each applied plan emits a
            ``pl.migration`` summary instant plus up to ``_MOVE_EVENT_CAP``
            per-page ``pl.move`` instants on the controller track.
        registry: optional metrics registry; running ``pl.moves`` and
            ``pl.table_flushes`` counters.
    """

    def __init__(self, config: PopularityLayoutConfig,
                 tracer: "Tracer | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        self.config = config
        self.total_moves = 0
        self.total_flushes = 0
        self._tracer = tracer
        self._moves_counter = (registry.counter("pl.moves")
                               if registry is not None else None)
        self._flushes_counter = (registry.counter("pl.table_flushes")
                                 if registry is not None else None)

    def _record_plan(self, migration: MigrationPlan, now: float) -> None:
        if self._moves_counter is not None:
            self._moves_counter.inc(migration.num_moves)
        if self._flushes_counter is not None:
            self._flushes_counter.inc(migration.table_flushes)
        if self._tracer is None or migration.num_moves == 0:
            return
        self._tracer.instant(now, "pl.migration", TRACK_CONTROLLER, {
            "moves": migration.num_moves,
            "flushes": migration.table_flushes,
            "chips": len({m.to_chip for m in migration.moves}
                         | {m.from_chip for m in migration.moves}),
            "truncated": migration.num_moves > _MOVE_EVENT_CAP,
        })
        for move in migration.moves[:_MOVE_EVENT_CAP]:
            self._tracer.instant(now, "pl.move", TRACK_CONTROLLER, {
                "page": move.page, "from": move.from_chip,
                "to": move.to_chip,
            })

    def plan_and_apply(self, plan: GroupPlan, layout: MutableLayout,
                       now: float = 0.0) -> MigrationPlan:
        """Compute the moves to realise ``plan`` and apply them to ``layout``.

        The layout is mutated as the plan is built so that capacity
        bookkeeping stays exact. Returns the executed plan (the engine
        turns it into migration streams for cost accounting).
        """
        chip_group = self._chip_groups(plan, layout.num_chips)
        migration = MigrationPlan()
        swap_pool = self._build_swap_pool(plan, layout, chip_group)

        for group in plan.groups:
            if group.is_cold:
                continue  # pages not needed anywhere hotter stay put
            target_chips = list(group.chips)
            for page in group.pages:
                current = layout.chip_of(page)
                if chip_group[current] == group.index:
                    continue  # already in the right group
                self._move_page(page, group.index, target_chips,
                                layout, swap_pool, migration)

        migration.table_flushes = (
            migration.num_moves // self.config.translation_table_entries)
        if migration.num_moves % self.config.translation_table_entries:
            migration.table_flushes += 1
        if migration.num_moves == 0:
            migration.table_flushes = 0

        self.total_moves += migration.num_moves
        self.total_flushes += migration.table_flushes
        self._record_plan(migration, now)
        return migration

    # ------------------------------------------------------------------

    @staticmethod
    def _chip_groups(plan: GroupPlan, num_chips: int) -> list[int]:
        chip_group = [plan.groups[-1].index] * num_chips
        for group in plan.groups:
            for chip in group.chips:
                chip_group[chip] = group.index
        return chip_group

    @staticmethod
    def _build_swap_pool(plan: GroupPlan, layout: MutableLayout,
                         chip_group: list[int]) -> dict[int, list[int]]:
        """Misplaced pages resident on each non-cold chip.

        These are the swap victims: a page sitting on a hot chip whose
        popularity does not earn it that spot can be exchanged with an
        incoming hot page at the cost of two copies. Untracked pages
        (never referenced) belong to the cold group, so they are ideal
        victims. One vectorised pass over the layout's page table finds
        them; each chip's victims are listed in ascending page order.
        """
        hot_chips = plan.hot_chips
        pool: dict[int, list[int]] = {chip: [] for chip in hot_chips}
        if not hot_chips:
            return pool
        chips = np.asarray(layout.placement())
        targets = np.full(chips.size, plan.groups[-1].index)
        page_group = plan.page_group
        count = len(page_group)
        targets[np.fromiter(page_group.keys(), np.intp, count)] = np.fromiter(
            page_group.values(), np.intp, count)
        misplaced = targets != np.asarray(chip_group)[chips]
        for chip in pool:
            pool[chip] = np.flatnonzero(misplaced & (chips == chip)).tolist()
        return pool

    def _move_page(
        self,
        page: int,
        group_index: int,
        target_chips: list[int],
        layout: MutableLayout,
        swap_pool: dict[int, list[int]],
        migration: MigrationPlan,
    ) -> None:
        # Prefer a free frame (one copy); otherwise swap with a misplaced
        # resident (two copies via the controller's staging buffer).
        destination = None
        for chip in target_chips:
            if layout.free_frames(chip) > 0:
                destination = chip
                break
        if destination is not None:
            source = layout.move(page, destination)
            migration.moves.append(PageMove(page, source, destination))
            return
        for chip in target_chips:
            victims = swap_pool.get(chip)
            while victims:
                victim = victims.pop()
                if layout.chip_of(victim) != chip:
                    continue  # stale entry: already swapped out
                source = layout.chip_of(page)
                layout.swap(page, victim)
                migration.moves.append(PageMove(page, source, chip))
                migration.moves.append(PageMove(victim, chip, source))
                return
        # Every frame in the group holds a correctly placed page; the
        # group is simply over-subscribed this interval.
