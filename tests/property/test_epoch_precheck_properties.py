"""The DMA-TA quiet-epoch pre-check decides exactly what the per-chip
loop decides.

``TemporalAlignmentController.on_epoch`` returns early, without testing
any chip, when four bounds over the buffered heads prove that no head is
past its deadline and no chip's slack test fires. This file keeps a copy
of the per-chip loop as it was before the pre-check and drives both
through the same random admits, charges, refunds and epochs: the
released chips, their order, each release's reason, the release
counters, ``slack.violations`` and the total charge must agree.

A ``-0.0`` slack balance cannot arise at an epoch with buffered heads
(the epoch charge is positive, and ``x - c`` with ``c > 0`` is never
``-0.0``), so signed zeros are fed where they can enter: the served
request count and refunds.
"""

from hypothesis import example, given, settings, strategies as st

from repro.config import BusConfig, SimulationConfig, TemporalAlignmentConfig
from repro.core.temporal_alignment import TemporalAlignmentController
from repro.io.dma import FluidStream, StreamKind

SERVE_CYCLES = SimulationConfig().serve_cycles


class _Chip:
    """A chip that is always in a low-power mode (so heads buffer)."""

    def __init__(self, chip_id: int) -> None:
        self.chip_id = chip_id

    def is_low_power(self, now: float) -> bool:
        return True


# --- the per-chip loop before the pre-check --------------------------------

def _budget(ctrl):
    arrived = ctrl._arrived_served() + ctrl._pending_requests
    return arrived, ctrl.slack.slack(arrived) / (ctrl._pending_total + 1)


def _allowance(ctrl, stream, credit, shared):
    requests = getattr(stream, "num_requests", 0) or 1
    return ctrl._deadline_fraction * max(credit * requests, shared)


def reference_on_epoch(ctrl, now):
    ctrl.slack.charge_epoch(ctrl._epoch_cycles, ctrl._pending_total, now)
    releases = {}
    if not ctrl._pending:
        return releases
    credit = ctrl.slack.credit_per_request()
    arrived, shared = _budget(ctrl)
    for chip_id in list(ctrl._pending):
        if any(now - s.arrival_time >= _allowance(ctrl, s, credit, shared)
               for s in ctrl._pending[chip_id]):
            reason = "deadline"
            ctrl.releases_by_deadline += 1
        elif ctrl.slack.should_release(ctrl._pending_buses[chip_id],
                                       arrived, now):
            reason = "slack"
            ctrl.releases_by_slack += 1
        else:
            continue
        releases[chip_id] = ctrl._pop_pending(chip_id)
        ctrl._record_release(chip_id, releases[chip_id], reason, now)
        arrived, shared = _budget(ctrl)
    return releases


# --- strategies -------------------------------------------------------------

params = st.fixed_dictionaries({
    "mu": st.sampled_from([0.25, 1.0, 8.0]),
    "epoch": st.sampled_from([10.0, 100.0, 1000.0]),
    "release_fraction": st.sampled_from([1.0, 0.5, 0.1]),
    "deadline_fraction": st.sampled_from([0.0, 0.25, 0.6, 1.0]),
    "undercharge": st.sampled_from([0.0, 0.5]),
    "buses": st.integers(min_value=3, max_value=7),
})

#: Served-request counts, set by each admit and each run of epochs: a
#: large count at admit funds long waits through the shared slack (so
#: most heads buffer); a small one at the epochs leaves each head on its
#: own ``credit * requests`` deadline.
SERVED = [-0.0, 0.0, 3.0, 30.0, 300.0, 1e4]

#: Admit spacing, in epochs.
GAPS = [0.0, 0.5, 1.0, 2.5, 10.0]

operations = st.lists(st.one_of(
    st.tuples(st.just("admit"), st.integers(0, 3), st.integers(-1, 6),
              st.sampled_from([0, 1, 2, 8, 64, 1024]), st.sampled_from(GAPS),
              st.sampled_from(SERVED)),
    st.tuples(st.just("epochs"), st.integers(1, 30), st.sampled_from(SERVED)),
    st.tuples(st.just("wake"), st.sampled_from([1.0, 1e3, 1e5]),
              st.integers(1, 8)),
    st.tuples(st.just("refund"), st.sampled_from([-0.0, 0.0, 1e3, 1e5])),
    st.tuples(st.just("active"), st.integers(0, 3)),
), min_size=1, max_size=40)


def _controller(p, served, log):
    config = SimulationConfig(
        buses=BusConfig(count=p["buses"]),
        alignment=TemporalAlignmentConfig(
            mu=p["mu"], epoch_cycles=p["epoch"],
            slack_release_fraction=p["release_fraction"],
            deadline_fraction=p["deadline_fraction"] or 1.0))
    ctrl = TemporalAlignmentController(config, lambda: served[0])
    if p["deadline_fraction"] == 0.0:
        ctrl._deadline_fraction = 0.0  # below the config's range
    ctrl.slack.undercharge_fraction = p["undercharge"]

    def record(chip_id, streams, reason, now):
        if streams:
            log.append((chip_id, [s.seq for s in streams], reason, now))
    ctrl._record_release = record
    return ctrl


def _state(ctrl):
    return (ctrl.releases_by_gather, ctrl.releases_by_slack,
            ctrl.releases_by_deadline, ctrl.releases_by_drain,
            ctrl.transfers_buffered, ctrl.pending_count(),
            ctrl.slack.violations, ctrl.slack.total_charges)


def _p(mu, epoch, release_fraction, deadline_fraction):
    return {"mu": mu, "epoch": epoch, "release_fraction": release_fraction,
            "deadline_fraction": deadline_fraction, "undercharge": 0.0,
            "buses": 3}


@settings(max_examples=300, deadline=None)
@given(params, operations)
# The oldest head is past its deadline, a newer one is not.
@example(_p(0.25, 10.0, 1.0, 0.25),
         [("admit", 0, 0, 0, 0.0, 1e3), ("admit", 0, 0, 0, 10.0, 1e3),
          ("epochs", 1, 1e3)])
# The one-request head is past its deadline, the 1024-request one is not.
@example(_p(0.25, 10.0, 1.0, 0.25),
         [("admit", 0, 0, 1, 0.0, 300.0), ("admit", 1, 1, 1024, 0.0, 300.0),
          ("epochs", 20, 0.0)])
# Negative slack: a slack release and a counted violation.
@example(_p(0.25, 10.0, 1.0, 0.25),
         [("admit", 0, 0, 64, 0.0, 1e4), ("wake", 1e5, 8), ("epochs", 1, 0.0)])
# A one-request head admitted after the bounds were last computed is
# past its deadline before the older 1024-request head.
@example(_p(0.25, 10.0, 1.0, 0.25),
         [("admit", 0, 0, 1024, 0.0, 300.0), ("epochs", 1, 300.0),
          ("admit", 1, 1, 1, 0.0, 300.0), ("epochs", 20, 0.0)])
# Heads admitted after the bounds were last computed raise the chip's
# projection past the release threshold.
@example(_p(1.0, 10.0, 0.1, 1.0),
         [("admit", 0, 0, 64, 0.0, 1e4), ("epochs", 1, 1e4)]
         + [("admit", 0, 0, 64, 0.0, 1e4)] * 4
         + [("wake", 1e3, 1), ("epochs", 1, 0.0)])
def test_precheck_matches_per_chip_loop(p, ops):
    served = [0.0]
    new_log, ref_log = [], []
    new = _controller(p, served, new_log)
    ref = _controller(p, served, ref_log)
    now, seq = 0.0, 0
    for op in ops:
        kind = op[0]
        if kind == "admit":
            _, chip_id, bus, requests, gap, served[0] = op
            now += gap * p["epoch"]
            seq += 1
            for ctrl in (new, ref):
                stream = FluidStream(
                    kind=StreamKind.DMA, chip_id=chip_id,
                    total_work=(requests or 1) * SERVE_CYCLES, demand=1.0,
                    bus_id=None if bus < 0 else bus, arrival_time=now,
                    num_requests=requests, seq=seq)
                ctrl.admit(stream, _Chip(chip_id), now)
        elif kind == "epochs":
            served[0] = op[2]
            for _ in range(op[1]):
                now += p["epoch"]
                got = new.on_epoch(now)
                want = reference_on_epoch(ref, now)
                assert ([(c, [s.seq for s in b]) for c, b in got.items()]
                        == [(c, [s.seq for s in b]) for c, b in want.items()])
                assert new_log == ref_log
                assert _state(new) == _state(ref)
        elif kind == "wake":
            for ctrl in (new, ref):
                ctrl.on_wake(0, op[1], now, op[2])
        elif kind == "refund":
            for ctrl in (new, ref):
                ctrl.slack.refund(op[1], now)
        else:
            for ctrl in (new, ref):
                ctrl.on_chip_active(_Chip(op[1]), now)
        assert new_log == ref_log
        assert _state(new) == _state(ref)


def test_quiet_epoch_tests_no_chip():
    """An epoch that cannot release anything makes no slack-release test
    (and so counts no violation): the pre-check answers for every chip."""
    ctrl = _controller({"buses": 3, "mu": 8.0, "epoch": 100.0,
                        "release_fraction": 1.0, "deadline_fraction": 0.6,
                        "undercharge": 0.0}, [1e4], [])
    calls = []
    should_release = ctrl.slack.should_release
    ctrl.slack.should_release = (
        lambda *args: calls.append(args) or should_release(*args))
    for chip_id in range(3):
        stream = FluidStream(kind=StreamKind.DMA, chip_id=chip_id,
                             total_work=64 * SERVE_CYCLES, demand=1.0,
                             bus_id=0, arrival_time=0.0, num_requests=64,
                             seq=chip_id)
        assert ctrl.admit(stream, _Chip(chip_id), 0.0) == []
    admitted = len(calls)
    for epoch in range(1, 6):
        assert ctrl.on_epoch(epoch * 100.0) == {}
    assert len(calls) == admitted
    assert ctrl.pending_count() == 3
