"""Property tests: a chip's read-only ``observe`` is its accrual, exactly.

``observe(t)`` must return, bit for bit, the residency buckets a
deep copy of the chip holds after accruing up to ``t`` (``advance`` on
the fluid chip, ``touch`` on the precise one) — whatever state sequence
led there, however often it is read, and whichever idle-profile
segments the read crosses. Observing must also leave the chip's own
accrual untouched.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.energy.accounting import BUCKETS
from repro.energy.policies import default_dynamic_policy
from repro.energy.rdram import rdram_1600_model
from repro.energy.states import PowerState
from repro.memory.chip import ChipRates, FluidChip
from repro.sim.precise import (_PRIO_DMA, _PRIO_MIGRATION, _PRIO_PROC,
                               _PChip, _Request)

MODEL = rdram_1600_model()
POLICY = default_dynamic_policy(MODEL)

#: Gaps between operations: long enough to walk the whole descent
#: profile (its last boundary is ~493 cycles), short enough to stop
#: inside any of its segments.
gaps = st.floats(min_value=0.0, max_value=800.0, allow_nan=False)
rate = st.floats(min_value=0.0, max_value=0.6, allow_nan=False)


def bits(values) -> list[str]:
    """Exact bit patterns (``float.hex`` keeps the sign of zero)."""
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


def time_buckets(chip) -> list[str]:
    return bits([getattr(chip.time, bucket) for bucket in BUCKETS])


# ---------------------------------------------------------------------------
# Fluid chip
# ---------------------------------------------------------------------------

#: (kind, gap, accrue first, has a DMA stream, dma, proc, migration).
#: The engine accrues a chip before changing its state; the oracle must
#: also hold when it does not.
fluid_ops = st.lists(st.tuples(
    st.sampled_from(["advance", "wake", "busy", "idle"]),
    gaps, st.booleans(), st.booleans(), rate, rate, rate),
    min_size=1, max_size=25)


def assert_fluid_oracle(chip: FluidChip, t: float) -> None:
    twin = copy.deepcopy(chip)
    twin.advance(t)
    buckets, _ = chip.observe(t)
    assert type(buckets) is list
    assert bits(buckets) == time_buckets(twin)


def profile_sweep(chip: FluidChip, now: float) -> list[float]:
    """Increasing read times from ``now`` (twice) over every idle-profile
    boundary ahead: just before, at and just after each one."""
    times = [now, now]
    for segment in chip._profile[:-1]:
        boundary = chip._idle_since + segment.end
        if boundary > now:
            times.extend((boundary - 0.5, boundary, boundary + 0.5))
    return sorted(times)


@given(fluid_ops, st.lists(gaps, max_size=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_fluid_observe_equals_advanced_copy(ops, read_gaps, start_asleep):
    chip = FluidChip(0, MODEL, POLICY, start_asleep=start_asleep)
    twin = FluidChip(0, MODEL, POLICY, start_asleep=start_asleep)
    now = 0.0
    for kind, gap, accrue, has_dma, dma, proc, migration in ops:
        now += gap
        for target in (chip, twin):
            if accrue or kind == "advance":
                target.advance(now)
            if kind == "wake":
                target.wake(now)
            elif kind == "busy":
                target.set_busy(now, has_dma, ChipRates(dma, proc, migration))
            elif kind == "idle":
                target.set_idle(now)
        # Reads at increasing times: first the drawn ones (the first may
        # jump several segments past a changed idle anchor), then back to
        # ``now`` and across every profile boundary. A wake window puts
        # some of them before the chip's clock.
        ahead = now
        for gap_ahead in read_gaps:
            ahead += gap_ahead
            assert_fluid_oracle(chip, ahead)
        for t in profile_sweep(chip, now):
            assert_fluid_oracle(chip, t)
    # Reading changed nothing the chip accrues.
    chip.advance(now + 1000.0)
    twin.advance(now + 1000.0)
    assert time_buckets(chip) == time_buckets(twin)
    assert chip.energy.total.hex() == twin.energy.total.hex()


def test_fluid_observe_after_idle_anchor_moves():
    """``set_idle`` without a prior accrual moves the idle anchor but not
    the clock: a prefix folded under the old anchor must not be reused."""
    chip = FluidChip(0, MODEL, POLICY, start_asleep=False)
    chip.advance(10.0)  # partway into the first profile segment
    assert_fluid_oracle(chip, 110.0)  # folds the segments before 110
    chip.set_idle(15.0)
    assert_fluid_oracle(chip, 115.0)


def test_fluid_observe_inside_wake_window():
    chip = FluidChip(0, MODEL, POLICY)  # parked in the deepest state
    ready = chip.wake(100.0)
    assert ready > 100.0
    for t in (100.0, (100.0 + ready) / 2, ready, ready, ready + 50.0):
        assert_fluid_oracle(chip, t)


# ---------------------------------------------------------------------------
# Precise chip
# ---------------------------------------------------------------------------

precise_ops = st.lists(st.tuples(
    st.sampled_from(["touch", "descend", "settle", "wake", "ready",
                     "serve", "unserve", "transfer", "done"]),
    gaps, st.sampled_from([_PRIO_PROC, _PRIO_DMA, _PRIO_MIGRATION])),
    min_size=1, max_size=30)


def assert_precise_oracle(chip: _PChip, t: float) -> None:
    twin = copy.deepcopy(chip)
    twin.touch(t)
    buckets, _ = chip.observe(t)
    assert type(buckets) is list
    assert bits(buckets) == time_buckets(twin)


def step_precise(chip: _PChip, kind: str, now: float, priority: int
                 ) -> float:
    """One engine-style state change at ``now``; returns the new clock."""
    idle = chip.serving is None and chip.waking_until is None
    if kind == "touch":
        chip.touch(now)
    elif kind == "descend" and idle and chip.transition_until is None:
        chip.begin_descent_step(now)
    elif kind == "settle" and chip.transition_until is not None:
        now = max(now, chip.transition_until)
        chip.finish_descent_step(now)
    elif kind == "wake":
        chip.begin_wake(now)
    elif kind == "ready" and chip.waking_until is not None:
        now = max(now, chip.waking_until)
        chip.finish_wake(now)
    elif (kind == "serve" and chip.serving is None
          and chip.state is PowerState.ACTIVE and chip.waking_until is None
          and chip.transition_until is None):
        chip.touch(now)
        chip.serving = _Request(priority, now, 10.0)
    elif kind == "unserve" and chip.serving is not None:
        chip.touch(now)
        chip.serving = None
    elif kind == "transfer":
        chip.touch(now)
        chip.inflight_transfers += 1
    elif kind == "done" and chip.inflight_transfers:
        chip.touch(now)
        chip.inflight_transfers -= 1
    return now


@given(precise_ops, st.lists(gaps, max_size=5))
@settings(max_examples=80, deadline=None)
def test_precise_observe_equals_touched_copy(ops, read_gaps):
    chip = _PChip(0, MODEL, POLICY)
    now = 0.0
    for kind, gap, priority in ops:
        now = step_precise(chip, kind, now + gap, priority)
        times = [now, now]
        for gap_ahead in read_gaps:
            times.append(times[-1] + gap_ahead)
        for t in times:
            assert_precise_oracle(chip, t)
        if chip.waking_until is not None:
            # Inside the wake window, and at its end.
            assert_precise_oracle(chip, (now + chip.waking_until) / 2)
            assert_precise_oracle(chip, chip.waking_until)
