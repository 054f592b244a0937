"""Flow-level simulation: a slot-synchronous engine and a fluid solver.

Two complementary evaluation tools:

- :mod:`fluid` computes *expected* per-link loads from a router's exact
  path distribution and a demand matrix, giving saturation throughput
  without simulation noise (used for the Fig 2f theoretical/worst-case
  curves).
- :mod:`engine` runs a discrete slot-by-slot simulation with per-neighbor
  virtual output queues, per-cell VLB, and flow-completion accounting
  (used for the Fig 2f "simulation of 128 nodes and 8 cliques using
  real-world traffic" point set and the FCT benchmarks).
- :mod:`flowlevel` is the analytic fast model: per-flow FCT/slowdown
  expectations from circuit timing + fluid utilizations with no
  per-cell state, differentially validated against the slot engines at
  small N and trusted at paper scale (N=4096, millions of flows).

Observability: :mod:`tracing` samples coarse fabric state, and
:mod:`telemetry` is the pluggable per-slot collector framework (link
utilization split intra/inter-clique, per-clique VOQ heatmaps, hop
histograms, schedule-phase delivery attribution, phase profiling) fed
identically — bit-for-bit — by both engines.
"""

from .flows import Cell, FlowState
from .network import (
    LinkedVoqState,
    SimNetwork,
)
from .engine import (
    SegmentCheckpoint,
    SimConfig,
    SimSession,
    SlotSimulator,
    profiled_runs,
)
from .checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA,
    read_checkpoint,
    write_checkpoint,
)
from .metrics import SimReport, percentile
from .fluid import FluidResult, link_loads, saturation_throughput
from .flowlevel import (
    FlowLevelModel,
    FlowLevelReport,
    PairLatency,
    sample_flow_arrays,
)
from .failures import FailureEvent, FailureTimeline, split_casualties
from .invariants import InvariantChecker
from .telemetry import (
    EpochTransitionCollector,
    HopCountCollector,
    LinkUtilizationCollector,
    PhaseAttributionCollector,
    PhaseProfiler,
    SweepCacheCollector,
    TelemetryCollector,
    TelemetryHub,
    VoqHeatmapCollector,
    circuit_class_capacity,
    standard_collectors,
)
from .tracing import TracePoint, TraceRecorder

# The vectorized engine loads with the package, like every other sim
# module: imported by the first session instead, it lands after a run's
# arrays and adds about 0.35 MiB to perfbench's fig2f-n128 peak RSS.
from . import vectorized  # noqa: F401

__all__ = [
    "Cell",
    "FlowState",
    "SimNetwork",
    "LinkedVoqState",
    "SlotSimulator",
    "profiled_runs",
    "SimConfig",
    "SimSession",
    "SegmentCheckpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA",
    "read_checkpoint",
    "write_checkpoint",
    "SimReport",
    "percentile",
    "FluidResult",
    "link_loads",
    "saturation_throughput",
    "FlowLevelModel",
    "FlowLevelReport",
    "PairLatency",
    "sample_flow_arrays",
    "FailureEvent",
    "FailureTimeline",
    "InvariantChecker",
    "split_casualties",
    "TracePoint",
    "TraceRecorder",
    "TelemetryCollector",
    "TelemetryHub",
    "EpochTransitionCollector",
    "LinkUtilizationCollector",
    "VoqHeatmapCollector",
    "HopCountCollector",
    "PhaseAttributionCollector",
    "PhaseProfiler",
    "SweepCacheCollector",
    "standard_collectors",
    "circuit_class_capacity",
]
