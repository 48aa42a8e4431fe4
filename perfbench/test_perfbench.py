"""The benchmark's own tests: ``python -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import measure  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

#: A one-millisecond OLTP-St pass: a baseline and DMA-TA-PL at CP=10%,
#: plus the observed call, so every check has something to compare.
TINY = workloads.Workload("tiny", "", "OLTP-St", 1.0, observed=True)


def _owner_values(targets):
    values = []
    for target in targets:
        owner = probe._resolve(target.owner)
        values.append(owner.__dict__.get(target.attr) if isinstance(owner, type)
                      else getattr(owner, target.attr))
    return values


@pytest.fixture(scope="module")
def trace():
    return workloads.make_trace(TINY, seed=1)


@pytest.fixture(scope="module")
def traced(trace):
    """One untraced and two traced passes of the tiny workload."""
    untraced = workloads.run_pass(TINY, trace)
    runs = []
    for index in (1, 2):
        with probe.LayerProbe(probe.LAYERS, run_id=f"t{index}") as layer_probe:
            result = workloads.run_pass(TINY, trace)
        runs.append((layer_probe, result))
    return untraced, runs


def test_wrappers_restore_the_original_functions():
    targets = probe.LAYERS + probe.TRACES
    before = _owner_values(targets)
    outer = probe.LayerProbe(targets)
    with outer:
        patched = _owner_values(targets)
        assert all(p is not b for p, b in zip(patched, before))
        with probe.LayerProbe(probe.SIMULATE):  # nested, as in a pass
            pass
        assert _owner_values(targets) == patched
    assert _owner_values(targets) == before
    assert all(value is not None for value in before)


def test_restore_after_a_failed_install():
    bad = probe.SIMULATE + (probe.Target("repro.sim.run", "no_such_name", "x"),)
    before = _owner_values(probe.SIMULATE)
    with pytest.raises(AttributeError):
        probe.LayerProbe(bad).install()
    assert _owner_values(probe.SIMULATE) == before


def test_traced_results_are_bit_identical_to_untraced(traced):
    untraced, runs = traced
    reference = {c.label: workloads.statistics_of(c.result)
                 for c in untraced.calls}
    for _, result in runs:
        assert workloads.check_pass(result, reference).failures == {}
        for call in result.calls:
            assert workloads.statistics_of(call.result) \
                == reference[call.label], call.label


def _traced_pass_in_fresh_interpreter() -> dict:
    code = (f"import json, sys; sys.path[:0] = {[str(HERE), str(ROOT / 'src')]!r}; "
            "import measure, workloads; "
            "w = workloads.Workload('tiny', '', 'OLTP-St', 1.0, observed=True); "
            "print(json.dumps(measure.traced_pass(w, 1, 't', None)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_work_counters_repeat_exactly():
    first, second = (_traced_pass_in_fresh_interpreter() for _ in range(2))
    assert first["counts"] == second["counts"]
    assert first["failed"] == 0 and first["problems"] == []
    counts = first["counts"]
    assert counts["sim.run.simulate.calls"] == 3
    assert counts["sim.engine.pop.calls"] > 0
    assert counts["obs.telemetry.sample.calls"] > 0


def test_metric_names_are_well_formed_and_match_benchmark_json(traced):
    _, runs = traced
    layer_probe, result = runs[0]
    names = set(measure.layer_metrics(
        layer_probe.counts(), layer_probe.self_seconds(), result.wall_s))
    names |= {"traces.gen_s", "traces.records", "trace.overhead_x"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert names == declared
    everything = declared | {m["name"] for m in spec["end_to_end"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in everything)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def _tampered(result, label, mutate):
    tampered = copy.deepcopy(result)
    call = next(c for c in tampered.calls if c.label == label)
    mutate(call.result)
    return tampered


@pytest.mark.parametrize("label, mutate, reason", [
    ("dma-ta-pl@0.1",
     lambda r: setattr(r.energy, "serving_dma", r.energy.serving_dma * 1.001),
     "simulated statistics differ"),
    ("baseline", lambda r: setattr(r.time, "low_power", r.time.low_power + 1),
     "simulated statistics differ"),
    ("dma-ta-pl@0.1", lambda r: setattr(r, "requests", r.requests + 1),
     "requests"),
    ("dma-ta-pl@0.1", lambda r: setattr(r, "guarantee_violated", True),
     "guarantee"),
    ("dma-ta-pl@0.1+observed",
     lambda r: setattr(r.energy, "low_power", r.energy.low_power * 1.001),
     "simulated statistics differ"),
])
def test_check_rejects_a_tampered_result(traced, label, mutate, reason):
    untraced, _ = traced
    reference = workloads.fingerprints(untraced)
    tampered = _tampered(untraced, label, mutate)
    check = workloads.check_pass(tampered, reference)
    assert reason in check.failures[label]

    tally = measure.Tally()
    tally.add_pass(untraced, reference)
    tally.add_pass(tampered, reference)
    assert tally.attempted == 2 * len(untraced.calls)
    assert tally.failed >= 1


def test_observed_breakdowns_must_match_the_plain_run(traced):
    untraced, _ = traced
    tampered = _tampered(
        untraced, "dma-ta-pl@0.1+observed",
        lambda r: setattr(r.energy, "low_power", r.energy.low_power * 1.001))
    check = workloads.check_pass(tampered)  # no reference: the pairing alone
    assert "plain run" in check.failures["dma-ta-pl@0.1+observed"]


def test_last_digit_drift_is_counted_not_failed(traced):
    untraced, _ = traced
    reference = workloads.fingerprints(untraced)
    tampered = _tampered(
        untraced, "baseline",
        lambda r: setattr(r.energy, "low_power",
                          r.energy.low_power * (1 + 2 ** -52)))
    check = workloads.check_pass(tampered, reference)
    assert check.failures == {}
    assert check.drifted_floats == 1


def test_host_speed_samples_are_appended():
    kernel = [1.0]
    hostspeed.sample(kernel)
    assert len(kernel) == 1 + hostspeed.SAMPLES
    assert all(0 < seconds < 10 for seconds in kernel[1:])


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "oltp-db", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
