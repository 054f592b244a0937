"""Simulation metrics: throughput, flow completion times, queue statistics."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .flows import FlowState

__all__ = ["SimReport", "percentile"]

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_NO_DEFAULT = object()


def percentile(values: Sequence[float], p: float, default=_NO_DEFAULT) -> float:
    """The p-th percentile of *values* (p in [0, 100]).

    An empty sequence has no percentiles: that case raises
    :class:`~repro.errors.SimulationError` unless *default* is supplied,
    in which case *default* is returned instead.  (NaN is never returned
    silently — it used to be, and poisoned downstream arithmetic and
    comparisons without a traceback.)
    """
    if not 0 <= p <= 100:
        raise SimulationError(f"percentile must be in [0, 100], got {p}")
    if len(values) == 0:
        if default is _NO_DEFAULT:
            raise SimulationError(
                "percentile of an empty sequence is undefined; pass "
                "default=... to choose a fallback value"
            )
        return default
    return float(np.percentile(np.asarray(values, dtype=float), p))


@dataclasses.dataclass(frozen=True)
class SimReport:
    """Aggregated outcome of one simulation run.

    Attributes
    ----------
    num_nodes, duration_slots:
        Fabric size and measured horizon (including any drain slots).
    offered_cells / injected_cells / delivered_cells:
        Demand accounting: offered by the workload, actually injected
        into VOQs, and delivered to destinations.
    throughput:
        Delivered cells per node per slot — the fraction of aggregate
        injection bandwidth used for final delivery, directly comparable
        to the paper's r when the run is saturated.
    mean_hops:
        Mean per-delivered-cell hop count (the measured bandwidth tax).
    fct_slots:
        Completion times (slots) of flows that finished.
    completed_flows / total_flows:
        How many flows finished within the horizon.
    max_voq / mean_occupancy:
        Peak single-queue length and time-averaged in-flight cells.
    flow_completion_slots:
        Per-flow completion slot in workload order (``-1`` = unfinished).
        Lets failure experiments split outcomes by flow population
        (casualties vs bystanders, see
        :func:`repro.sim.failures.split_casualties`) without rerunning,
        and makes engine-differential comparisons per-flow exact.
    """

    num_nodes: int
    duration_slots: int
    offered_cells: int
    injected_cells: int
    delivered_cells: int
    mean_hops: float
    fct_slots: List[int]
    completed_flows: int
    total_flows: int
    max_voq: int
    mean_occupancy: float
    window_start: int = 0
    window_delivered: int = 0
    short_fct_slots: List[int] = dataclasses.field(default_factory=list)
    bulk_fct_slots: List[int] = dataclasses.field(default_factory=list)
    flow_completion_slots: Tuple[int, ...] = ()

    def short_fct_percentile(self, p: float) -> Optional[float]:
        """FCT percentile of the short-flow class (needs a threshold at
        report build time); ``None`` when no short flow completed."""
        return percentile(self.short_fct_slots, p, default=None)

    def bulk_fct_percentile(self, p: float) -> Optional[float]:
        """FCT percentile of the bulk class; ``None`` when empty."""
        return percentile(self.bulk_fct_slots, p, default=None)

    @property
    def window_throughput(self) -> Optional[float]:
        """Delivered cells per node per slot within the measurement window
        ``[window_start, duration_slots)`` — excludes warmup ramp.
        ``None`` when the window is empty (no slots after warmup)."""
        span = self.duration_slots - self.window_start
        if span <= 0:
            return None
        return self.window_delivered / (self.num_nodes * span)

    @property
    def throughput(self) -> float:
        """Delivered cells per node per slot."""
        return self.delivered_cells / (self.num_nodes * self.duration_slots)

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered cells (1.0 = everything drained)."""
        return self.delivered_cells / self.offered_cells if self.offered_cells else 0.0

    @property
    def completion_ratio(self) -> float:
        """Completed / total flows."""
        return self.completed_flows / self.total_flows if self.total_flows else 0.0

    def fct_percentile(self, p: float) -> Optional[float]:
        """Percentile of flow completion time in slots; ``None`` when no
        flow completed within the horizon."""
        return percentile(self.fct_slots, p, default=None)

    @property
    def mean_fct(self) -> Optional[float]:
        """Mean flow completion time; ``None`` when no flow completed."""
        return float(np.mean(self.fct_slots)) if self.fct_slots else None

    def summary(self) -> str:
        """One-line human-readable digest.

        Undefined statistics (no completed flows) render as ``-`` rather
        than ``nan`` so zero-completion runs are visually unmistakable.
        """
        p50, p99 = self.fct_percentile(50), self.fct_percentile(99)
        fct = "-/-" if p50 is None else f"{p50:.0f}/{p99:.0f}"
        return (
            f"N={self.num_nodes} T={self.duration_slots} "
            f"thpt={self.throughput:.4f} hops={self.mean_hops:.2f} "
            f"flows={self.completed_flows}/{self.total_flows} "
            f"fct(p50/p99)={fct} maxVOQ={self.max_voq}"
        )

    def to_dict(self) -> dict:
        """The report as a JSON-safe plain dict.

        Every value is a Python int, float, or list thereof, so
        ``json.dumps`` needs no custom encoder and
        ``SimReport.from_dict(json.loads(...))`` round-trips to an
        *equal* report — the property the content-addressed sweep cache
        (:mod:`repro.exp.cache`) relies on for cold/warm bit-identity.
        """
        # Shallow: every field is a scalar or a flat sequence of ints, so
        # a list() copy per sequence is all ``dataclasses.asdict``'s
        # element-by-element deep copy would produce.
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, (list, tuple)) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report from :meth:`to_dict` output (or its JSON
        round-trip)."""
        data = dict(data)
        data["flow_completion_slots"] = tuple(
            int(v) for v in data.get("flow_completion_slots", ())
        )
        return cls(**data)

    @classmethod
    def from_flows(
        cls,
        flows: Dict[int, FlowState],
        num_nodes: int,
        duration_slots: int,
        max_voq: int,
        mean_occupancy: float,
        window_start: int = 0,
        window_delivered: int = 0,
        short_threshold_cells: int = 0,
    ) -> "SimReport":
        """Aggregate per-flow state into a report.

        With a positive *short_threshold_cells*, completed flows are also
        split into short/bulk FCT populations.
        """
        offered = sum(f.spec.size_cells for f in flows.values())
        injected = sum(f.injected_cells for f in flows.values())
        delivered = sum(f.delivered_cells for f in flows.values())
        hop_total = sum(f.total_hop_count for f in flows.values())
        fct = [f.fct_slots for f in flows.values() if f.fct_slots is not None]
        short_fct: List[int] = []
        bulk_fct: List[int] = []
        if short_threshold_cells > 0:
            for f in flows.values():
                if f.fct_slots is None:
                    continue
                if f.spec.size_cells <= short_threshold_cells:
                    short_fct.append(f.fct_slots)
                else:
                    bulk_fct.append(f.fct_slots)
        return cls(
            num_nodes=num_nodes,
            duration_slots=duration_slots,
            offered_cells=offered,
            injected_cells=injected,
            delivered_cells=delivered,
            mean_hops=hop_total / delivered if delivered else 0.0,
            fct_slots=sorted(fct),
            completed_flows=len(fct),
            total_flows=len(flows),
            max_voq=max_voq,
            mean_occupancy=mean_occupancy,
            window_start=window_start,
            window_delivered=window_delivered,
            short_fct_slots=sorted(short_fct),
            bulk_fct_slots=sorted(bulk_fct),
            flow_completion_slots=tuple(
                -1 if f.completion_slot is None else f.completion_slot
                for f in flows.values()
            ),
        )

    @classmethod
    def from_flow_arrays(
        cls,
        sizes: np.ndarray,
        arrivals: np.ndarray,
        injected: np.ndarray,
        delivered: np.ndarray,
        completion: np.ndarray,
        hop_totals: np.ndarray,
        *,
        num_nodes: int,
        duration_slots: int,
        max_voq: int,
        mean_occupancy: float,
        window_start: int = 0,
        window_delivered: int = 0,
        short_threshold_cells: int = 0,
    ) -> "SimReport":
        """Aggregate per-flow *arrays* into a report.

        Engine-agnostic counterpart of :meth:`from_flows` for array-based
        engines (see :mod:`repro.sim.vectorized`): each argument is one
        value per flow, index-aligned, with ``completion`` holding the
        completion slot or ``-1`` for unfinished flows.  Produces a
        report identical to :meth:`from_flows` fed the equivalent
        :class:`FlowState` objects.
        """
        sizes = np.asarray(sizes)
        completion = np.asarray(completion)
        arrivals = np.asarray(arrivals)
        done = completion >= 0
        fct_all = completion[done] - arrivals[done] + 1
        size_done = sizes[done]
        short_fct: List[int] = []
        bulk_fct: List[int] = []
        if short_threshold_cells > 0:
            short_mask = size_done <= short_threshold_cells
            short_fct = np.sort(fct_all[short_mask]).tolist()
            bulk_fct = np.sort(fct_all[~short_mask]).tolist()
        delivered_total = int(np.asarray(delivered).sum())
        hop_total = int(np.asarray(hop_totals).sum())
        return cls(
            num_nodes=num_nodes,
            duration_slots=duration_slots,
            offered_cells=int(sizes.sum()),
            injected_cells=int(np.asarray(injected).sum()),
            delivered_cells=delivered_total,
            mean_hops=hop_total / delivered_total if delivered_total else 0.0,
            fct_slots=np.sort(fct_all).tolist(),
            completed_flows=int(done.sum()),
            total_flows=int(sizes.size),
            max_voq=max_voq,
            mean_occupancy=mean_occupancy,
            window_start=window_start,
            window_delivered=window_delivered,
            short_fct_slots=short_fct,
            bulk_fct_slots=bulk_fct,
            flow_completion_slots=tuple(completion.tolist()),
        )
