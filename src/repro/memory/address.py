"""Page-to-chip layouts.

The layout decides which physical chip holds each logical page and is the
knob the PL technique turns. Static layouts here serve as baselines:

* :class:`SequentialLayout` fills chips one after another, the way a
  first-touch allocator would on a fresh machine.
* :class:`InterleavedLayout` stripes consecutive pages across chips
  (round-robin), the classical performance-oriented layout.
* :class:`RandomLayout` scatters pages pseudo-randomly — a model of a
  long-running server whose buffer-cache pages have no spatial order;
  this is the default baseline layout because it makes hot pages land on
  all chips, which is precisely the situation PL fixes.
* :class:`MutableLayout` is the dynamic mapping the PL migration engine
  edits at interval boundaries.
"""

from __future__ import annotations

import abc
import functools
import random
from collections.abc import Sequence

from repro.errors import LayoutError


class PageLayout(abc.ABC):
    """Maps logical pages to chips."""

    def __init__(self, num_chips: int, pages_per_chip: int) -> None:
        if num_chips <= 0 or pages_per_chip <= 0:
            raise LayoutError("layout dimensions must be positive")
        self.num_chips = num_chips
        self.pages_per_chip = pages_per_chip
        self.total_pages = num_chips * pages_per_chip

    @abc.abstractmethod
    def chip_of(self, page: int) -> int:
        """The chip holding logical ``page``."""

    def placement(self) -> Sequence[int]:
        """The chip of every page, indexed by page number.

        Read-only: a layout may hand out its own table rather than a copy.
        """
        return [self.chip_of(page) for page in range(self.total_pages)]

    def _check(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise LayoutError(
                f"page {page} outside memory of {self.total_pages} pages")


class SequentialLayout(PageLayout):
    """Pages 0..P-1 on chip 0, P..2P-1 on chip 1, and so on."""

    def chip_of(self, page: int) -> int:
        self._check(page)
        return page // self.pages_per_chip


class InterleavedLayout(PageLayout):
    """Page p lives on chip ``p mod num_chips`` (round-robin striping)."""

    def chip_of(self, page: int) -> int:
        self._check(page)
        return page % self.num_chips


@functools.lru_cache(maxsize=16)
def _random_placement(num_chips: int, pages_per_chip: int,
                      seed: int) -> tuple[int, ...]:
    """The shuffled page-to-chip table of one :class:`RandomLayout`.

    Memoised: every run of a sweep builds the same base layout, and the
    shuffle is the costly part. A tuple, so no layout can edit the
    shared copy.
    """
    chips = [page // pages_per_chip
             for page in range(num_chips * pages_per_chip)]
    random.Random(seed).shuffle(chips)
    return tuple(chips)


class RandomLayout(PageLayout):
    """A random permutation of pages onto chips (capacity-respecting).

    Deterministic for a given seed, so simulations are reproducible.
    """

    def __init__(self, num_chips: int, pages_per_chip: int, seed: int = 0) -> None:
        super().__init__(num_chips, pages_per_chip)
        self._chips = _random_placement(num_chips, pages_per_chip, seed)

    def chip_of(self, page: int) -> int:
        self._check(page)
        return self._chips[page]

    def placement(self) -> Sequence[int]:
        return self._chips


class MutableLayout(PageLayout):
    """A layout whose page placement can be edited (used by PL migration).

    Starts from any base layout; :meth:`move` relocates one page, keeping
    per-chip occupancy within capacity. Occupancy bookkeeping is what lets
    the migration planner find free frames on destination chips.
    """

    def __init__(self, base: PageLayout) -> None:
        super().__init__(base.num_chips, base.pages_per_chip)
        self._chips = list(base.placement())
        self._occupancy = [0] * self.num_chips
        for chip in self._chips:
            self._occupancy[chip] += 1

    def chip_of(self, page: int) -> int:
        # The hottest lookup of a PL run: the bounds test is inlined and
        # only the failure path pays for the call.
        if not 0 <= page < self.total_pages:
            self._check(page)
        return self._chips[page]

    def placement(self) -> Sequence[int]:
        return self._chips

    def occupancy(self, chip: int) -> int:
        """Number of pages currently resident on ``chip``."""
        if not 0 <= chip < self.num_chips:
            raise LayoutError(f"chip {chip} out of range")
        return self._occupancy[chip]

    def free_frames(self, chip: int) -> int:
        """Free page frames remaining on ``chip``."""
        return self.pages_per_chip - self.occupancy(chip)

    def move(self, page: int, to_chip: int) -> int:
        """Relocate ``page`` to ``to_chip``; returns the previous chip.

        Raises :class:`LayoutError` if the destination chip is full.
        """
        self._check(page)
        if not 0 <= to_chip < self.num_chips:
            raise LayoutError(f"chip {to_chip} out of range")
        source = self._chips[page]
        if source == to_chip:
            return source
        if self.free_frames(to_chip) <= 0:
            raise LayoutError(f"chip {to_chip} has no free frames")
        self._chips[page] = to_chip
        self._occupancy[source] -= 1
        self._occupancy[to_chip] += 1
        return source

    def swap(self, page_a: int, page_b: int) -> None:
        """Exchange the frames of two pages (always capacity-safe)."""
        self._check(page_a)
        self._check(page_b)
        chip_a, chip_b = self._chips[page_a], self._chips[page_b]
        self._chips[page_a], self._chips[page_b] = chip_b, chip_a
