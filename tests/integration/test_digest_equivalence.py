"""Tier-1 gate: digest-enabled runs are BIT-identical to disabled ones,
and the divergence bisection localises faults to the exact epoch.

The digest recorder rides the same read-only event discipline as the
telemetry sampler (dedicated event kind, excluded from the precise
engine's progress horizon, cuts the vectorized kernel's batching
windows) — so the guarantee is exact float equality, not approximate
agreement. On top of that this file gates the differential machinery
itself: identical runs produce identical chains across engines and
across processes, and an injected observation skew at epoch N is
reported at exactly epoch N.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import simulate
from repro.obs.diff import (
    DigestConfig,
    DigestRecorder,
    SimRunSpec,
    diff_specs,
)
from repro.traces.synthetic import synthetic_storage_trace

TECHNIQUES = ("nopm", "baseline", "dma-ta", "pl", "dma-ta-pl")

#: One digest per DMA-TA epoch (the recorder's default period).
EPOCH_CYCLES = 2000.0


@pytest.fixture(scope="module")
def trace():
    return synthetic_storage_trace(duration_ms=1.0, transfers_per_ms=100,
                                   seed=51)


def run_pair(trace, config, technique, engine):
    mu = 2.0 if "dma-ta" in technique else None
    plain = simulate(trace, config=config, technique=technique,
                     engine=engine, mu=mu)
    recorder = DigestRecorder(DigestConfig(epoch_cycles=EPOCH_CYCLES))
    digested = simulate(trace, config=config, technique=technique,
                        engine=engine, mu=mu, digests=recorder)
    return plain, digested


def assert_bit_identical(plain, digested):
    assert plain.energy.as_dict() == digested.energy.as_dict()
    assert plain.time.as_dict() == digested.time.as_dict()
    assert plain.duration_cycles == digested.duration_cycles
    assert plain.requests == digested.requests
    assert plain.migrations == digested.migrations
    assert plain.head_delay_cycles == digested.head_delay_cycles
    assert plain.extra_service_cycles == digested.extra_service_cycles


@pytest.mark.parametrize("technique", TECHNIQUES)
class TestBitExactness:
    def test_fluid(self, trace, paper_config, technique):
        plain, digested = run_pair(trace, paper_config, technique, "fluid")
        assert_bit_identical(plain, digested)
        assert digested.digests.ticks > 100

    def test_precise(self, trace, paper_config, technique):
        plain, digested = run_pair(trace, paper_config, technique,
                                   "precise")
        assert_bit_identical(plain, digested)
        assert digested.digests.ticks > 100


class TestChainDeterminism:
    def test_same_run_same_chain(self, trace):
        spec = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0)
        config = DigestConfig(epoch_cycles=EPOCH_CYCLES)
        tip_1 = spec.runner()(config).chain_tip
        tip_2 = spec.runner()(config).chain_tip
        assert tip_1 == tip_2

    def test_precise_matches_precise_scalar(self, trace):
        config = DigestConfig(epoch_cycles=EPOCH_CYCLES)
        vec = SimRunSpec(trace=trace, technique="dma-ta-pl", mu=2.0,
                         engine="precise").runner()(config)
        scalar = SimRunSpec(trace=trace, technique="dma-ta-pl", mu=2.0,
                            engine="precise-scalar").runner()(config)
        assert vec.ticks == scalar.ticks
        assert vec.chain_tip == scalar.chain_tip
        assert vec.rows == scalar.rows

    def test_chain_survives_process_boundary(self, tmp_path):
        """The digest chain is a function of the run alone — a fresh
        interpreter computes the same tip (no set-ordering or id()
        contamination)."""
        script = (
            "import json, sys\n"
            "from repro.obs.diff import DigestConfig, SimRunSpec\n"
            "from repro.traces.synthetic import synthetic_storage_trace\n"
            "trace = synthetic_storage_trace(duration_ms=0.5,\n"
            "                                transfers_per_ms=80, seed=9)\n"
            "spec = SimRunSpec(trace=trace, technique='dma-ta', mu=2.0)\n"
            "trail = spec.runner()(DigestConfig(epoch_cycles=2000.0))\n"
            "print(json.dumps({'tip': trail.chain_tip,\n"
            "                  'ticks': trail.ticks}))\n")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        remote = json.loads(out.stdout)

        local_trace = synthetic_storage_trace(duration_ms=0.5,
                                              transfers_per_ms=80, seed=9)
        local = SimRunSpec(trace=local_trace, technique="dma-ta",
                           mu=2.0).runner()(
            DigestConfig(epoch_cycles=2000.0))
        assert remote["ticks"] == local.ticks
        assert remote["tip"] == local.chain_tip


class TestPinnedChainTips:
    """Chain tips recorded before the epoch probe replaced the
    per-observer engine bindings: the chain format must not drift."""

    def test_fluid_dma_ta_pl_on_oltp_st(self):
        from repro.traces.oltp import oltp_storage_trace

        spec = SimRunSpec(trace=oltp_storage_trace(duration_ms=1.0, seed=301),
                          technique="dma-ta-pl", mu=2.0)
        trail = spec.runner()(DigestConfig(epoch_cycles=EPOCH_CYCLES))
        assert trail.chain_tip == "c11a86de67a4a9b3efb49b51fbea4d81"

    def test_precise_dma_ta_on_synthetic_st(self, trace):
        spec = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0,
                          engine="precise")
        trail = spec.runner()(DigestConfig(epoch_cycles=EPOCH_CYCLES))
        assert trail.chain_tip == "7e0c8266496ae8fa931e2520e4fb6a46"

    def test_injected_skew(self, trace):
        spec = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0,
                          inject_skew_epoch=7)
        trail = spec.runner()(DigestConfig(epoch_cycles=EPOCH_CYCLES))
        assert trail.chain_tip == "e4af3094ba8d962bc0d775b1980fbf3e"


class TestSkewLocalisation:
    @pytest.mark.parametrize("epoch", [0, 7, 100])
    def test_injected_skew_diverges_at_exactly_that_epoch(self, trace,
                                                          epoch):
        spec_a = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0)
        spec_b = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0,
                            inject_skew_epoch=epoch)
        report = diff_specs(spec_a, spec_b, epoch_cycles=EPOCH_CYCLES,
                            collect_causes=False)
        assert not report.identical
        assert report.epoch == epoch
        assert report.divergence is not None
        assert report.divergence.name == "degradation_cycles"

    def test_no_skew_is_identical(self, trace):
        spec = SimRunSpec(trace=trace, technique="dma-ta", mu=2.0)
        report = diff_specs(spec, spec, epoch_cycles=EPOCH_CYCLES,
                            collect_causes=False)
        assert report.identical
        assert report.summary_line().startswith("diff.identical:")


class TestCliExitCodes:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("diff") / "st.jsonl"
        assert main(["generate", "synthetic-st", "-o", str(path),
                     "--duration-ms", "1", "--seed", "51"]) == 0
        return path

    def test_identical_exits_zero(self, trace_file, capsys):
        from repro.cli import main

        code = main(["diff", str(trace_file), "--technique", "dma-ta"])
        out = capsys.readouterr().out
        assert code == 0
        assert "diff.identical:" in out

    def test_injected_skew_exits_two_naming_the_epoch(self, trace_file,
                                                      capsys):
        from repro.cli import main

        code = main(["diff", str(trace_file), "--technique", "dma-ta",
                     "--inject-epoch-skew", "7"])
        out = capsys.readouterr().out
        assert code == 2
        assert "diff.divergence: epoch=7 field=degradation_cycles" in out

    def test_missing_trace_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["diff", str(tmp_path / "nope.jsonl")])
        assert code == 1
