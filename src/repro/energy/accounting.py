"""Energy and time accounting with the paper's Figure 2(b)/Figure 6 buckets.

Every joule a simulated chip consumes lands in exactly one bucket:

* ``serving_dma``    — actively moving DMA data ("Active Serving").
* ``serving_proc``   — actively serving processor cache-line accesses.
* ``idle_dma``       — active but idle *between* DMA-memory requests of
  in-flight transfers ("Active Idle DMA"); the waste the paper attacks.
* ``idle_threshold`` — active and idle with no transfer in progress, waiting
  out the dynamic policy's idleness threshold ("Active Idle Threshold").
* ``transition``     — power-mode transitions, both directions.
* ``low_power``      — residency in standby/nap/powerdown.
* ``migration``      — page-migration copies performed by the PL technique.

:class:`TimeBreakdown` mirrors the same buckets in chip-cycles so that the
utilization factor ``uf = T_useful / T_tot`` of Section 5.3 falls straight
out of the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SimulationError

#: Tolerance used when checking that buckets sum to the recorded total.
_REL_TOL = 1e-9


@dataclass
class _Buckets:
    """The seven buckets both breakdowns share. Mutable accumulator."""

    serving_dma: float = 0.0
    serving_proc: float = 0.0
    idle_dma: float = 0.0
    idle_threshold: float = 0.0
    transition: float = 0.0
    low_power: float = 0.0
    migration: float = 0.0

    #: What the buckets hold, for error messages.
    _quantity = "bucket"

    def as_list(self) -> list[float]:
        """The buckets in field order (:data:`BUCKETS`)."""
        return [self.serving_dma, self.serving_proc, self.idle_dma,
                self.idle_threshold, self.transition, self.low_power,
                self.migration]

    @property
    def total(self) -> float:
        """Sum of all buckets, in field order."""
        return sum(self.as_list())

    def add(self, other: _Buckets) -> None:
        """Accumulate ``other`` into this breakdown in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def __add__(self, other):
        result = type(self)()
        result.add(self)
        result.add(other)
        return result

    def validate(self) -> None:
        """Raise :class:`SimulationError` if any bucket is negative."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value < -_REL_TOL * max(1.0, abs(self.total)):
                raise SimulationError(
                    f"negative {self._quantity} bucket {f.name}={value!r}")

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (bucket name -> value), including the total."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["total"] = self.total
        return out

    def copy(self):
        return type(self)(*self.as_list())


@dataclass
class EnergyBreakdown(_Buckets):
    """Per-category energy (joules). Mutable accumulator."""

    _quantity = "energy"

    @property
    def serving(self) -> float:
        """Total active-serving energy (DMA plus processor)."""
        return self.serving_dma + self.serving_proc

    def fractions(self) -> dict[str, float]:
        """Each bucket as a fraction of the total (empty dict if total is 0)."""
        total = self.total
        if total <= 0:
            return {}
        return {f.name: getattr(self, f.name) / total for f in fields(self)}


@dataclass
class TimeBreakdown(_Buckets):
    """Per-category chip time (memory cycles). Mutable accumulator.

    ``active_dma_total`` is the paper's ``T_tot``: cycles during which some
    DMA transfer to the chip is in progress (chip active). ``serving_dma``
    is ``T_useful``. Their ratio is the utilization factor.
    """

    _quantity = "time"

    @property
    def active_dma_total(self) -> float:
        """T_tot of Section 5.3: transfer-in-progress active cycles."""
        return self.serving_dma + self.idle_dma

    def utilization_factor(self) -> float:
        """``uf = T_useful / T_tot`` (Section 5.3); 0.0 when no DMA ran.

        Processor accesses served while transfers are in flight count as
        useful cycles, matching the paper's observation that they "consume
        some of the idle cycles when the memory is active between
        DMA-memory requests".
        """
        t_tot = self.active_dma_total + self.serving_proc
        if t_tot <= 0:
            return 0.0
        return (self.serving_dma + self.serving_proc) / t_tot


#: Bucket names in field order, shared by both breakdowns: the order
#: ``total`` sums in and the order of the residency list a chip's
#: ``observe`` returns.
BUCKETS = tuple(f.name for f in fields(TimeBreakdown))

#: Position of each bucket in :data:`BUCKETS`.
BUCKET_SLOT = {name: slot for slot, name in enumerate(BUCKETS)}
