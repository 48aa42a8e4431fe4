"""repro — a reproduction of "DMA-Aware Memory Energy Management" (HPCA 2006).

A trace-driven memory energy simulator for data servers, together with the
paper's two DMA-aware techniques:

* **DMA-TA** (temporal alignment) — the memory controller gathers DMA
  transfers from different I/O buses onto the same memory chip and
  sequences them in lockstep, eliminating the active-idle cycles caused by
  the memory/I-O bandwidth mismatch, under a soft ``(1 + mu) * T``
  average-service-time guarantee.
* **PL** (popularity-based layout) — pages are clustered onto a few hot
  chips by DMA popularity, increasing alignment opportunity and letting
  cold chips sleep.

Quickstart::

    from repro import oltp_storage_trace, simulate

    trace = oltp_storage_trace(duration_ms=20)
    baseline = simulate(trace, technique="baseline")
    aligned = simulate(trace, technique="dma-ta-pl", cp_limit=0.10)
    print(aligned.energy_savings_vs(baseline))
"""

from repro.config import (
    BusConfig,
    MemoryConfig,
    PopularityLayoutConfig,
    ProcessorConfig,
    SimulationConfig,
    TemporalAlignmentConfig,
)
from repro.core import (
    BaselineController,
    CPLimitCalibration,
    MemoryController,
    PopularityGrouper,
    PopularityTracker,
    SlackAccount,
    TemporalAlignmentController,
    calibrate_mu,
)
from repro.energy import (
    AlwaysOnPolicy,
    DynamicThresholdPolicy,
    EnergyBreakdown,
    PowerModel,
    PowerState,
    StaticPolicy,
    TimeBreakdown,
    break_even_cycles,
    ddr_sdram_model,
    default_dynamic_policy,
    rdram_1600_model,
)
from repro.errors import (
    ConfigurationError,
    GuaranteeViolationError,
    LayoutError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    MetricsReport,
    NullTracer,
    RingTracer,
    Tracer,
    chrome_trace,
    render_metrics,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import FluidEngine, PreciseEngine, SimulationResult, simulate
from repro.traces import (
    ClientRequest,
    DMATransfer,
    ProcessorBurst,
    Trace,
    TraceStats,
    characterize,
    filter_source,
    merge_traces,
    oltp_database_trace,
    oltp_storage_trace,
    popularity_cdf,
    read_trace,
    resize_transfers,
    scale_intensity,
    strip_clients,
    synthetic_database_trace,
    synthetic_storage_trace,
    write_trace,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SimulationConfig", "MemoryConfig", "BusConfig", "ProcessorConfig",
    "TemporalAlignmentConfig", "PopularityLayoutConfig",
    # energy
    "PowerState", "PowerModel", "EnergyBreakdown", "TimeBreakdown",
    "rdram_1600_model", "ddr_sdram_model", "default_dynamic_policy",
    "DynamicThresholdPolicy", "StaticPolicy", "AlwaysOnPolicy",
    "break_even_cycles",
    # core techniques
    "MemoryController", "BaselineController", "TemporalAlignmentController",
    "SlackAccount", "PopularityTracker", "PopularityGrouper",
    "calibrate_mu", "CPLimitCalibration",
    # simulation
    "simulate", "SimulationResult", "FluidEngine", "PreciseEngine",
    # observability
    "Tracer", "NullTracer", "RingTracer", "JsonlTracer",
    "MetricsRegistry", "MetricsReport", "render_metrics",
    "chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    # traces
    "Trace", "DMATransfer", "ProcessorBurst", "ClientRequest",
    "read_trace", "write_trace", "characterize", "TraceStats",
    "popularity_cdf", "synthetic_storage_trace", "synthetic_database_trace",
    "oltp_storage_trace", "oltp_database_trace",
    "scale_intensity", "filter_source", "strip_clients", "merge_traces",
    "resize_transfers",
    # errors
    "ReproError", "ConfigurationError", "TraceError", "SimulationError",
    "GuaranteeViolationError", "LayoutError",
]
