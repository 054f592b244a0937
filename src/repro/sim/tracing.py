"""Per-slot time-series tracing for the slot simulator.

A :class:`TraceRecorder` samples fabric state every ``stride`` slots while
a simulation runs: total queue occupancy, cells delivered per interval,
and the maximum single VOQ.  Used to visualize warmup/convergence (see
``examples``), to verify steady state is actually reached before a
measurement window opens, and to detect queue blow-up under overload.

The recorder is a telemetry collector: register it in a
:class:`repro.sim.telemetry.TelemetryHub` (it consumes the ``sample``
stream) and pass the hub as ``SimConfig(telemetry=hub)``, the engines'
one observer seam.  The hub's stride gates samples first and the
recorder's own stride applies on top, so a hub with the default
``stride=1`` samples on the recorder's grid.  The hub also carries the
recorded points through durable checkpoints (``hub.state_dict()``).

The recorder is engine-agnostic: it reads fabric state only through the
``total_occupancy`` property and ``max_voq_length()`` method, which both
:class:`repro.sim.network.SimNetwork` (reference engine) and
:class:`repro.sim.network.LinkedVoqState` (vectorized engine) provide, so
identical runs under either engine produce identical traces.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..errors import SimulationError
from ..util import check_positive_int

__all__ = ["TracePoint", "TraceRecorder"]


@dataclasses.dataclass(frozen=True)
class TracePoint:
    """One sampled instant of fabric state."""

    slot: int
    occupancy: int
    delivered_cumulative: int
    max_voq: int


class TraceRecorder:
    """Samples fabric state every *stride* slots during a simulation.

    Register in a :class:`repro.sim.telemetry.TelemetryHub` — the class
    satisfies the :class:`repro.sim.telemetry.TelemetryCollector`
    protocol (``consumes = {"sample"}``).
    """

    #: Telemetry-collector protocol fields (see module docstring).
    name = "trace"
    consumes = frozenset({"sample"})

    def __init__(self, stride: int = 10):
        self.stride = check_positive_int(stride, "stride")
        self.points: List[TracePoint] = []

    # -- telemetry-collector protocol ---------------------------------------

    def on_sample(self, slot: int, network, delivered_cumulative: int) -> None:
        """Hub callback; samples on the stride grid.

        *network* is any fabric-state view exposing ``total_occupancy``
        and ``max_voq_length()`` (see the module docstring).
        """
        if slot % self.stride != 0:
            return
        self.points.append(
            TracePoint(
                slot=slot,
                occupancy=network.total_occupancy,
                delivered_cumulative=delivered_cumulative,
                max_voq=network.max_voq_length(),
            )
        )

    def finalize(self, horizon_slots: int) -> None:
        """Nothing to close; the point list is complete as recorded."""

    def rows(self) -> List[dict]:
        """Points as export rows (JSONL/CSV via the hub)."""
        return [dataclasses.asdict(p) for p in self.points]

    def snapshot(self) -> dict:
        """Deterministic summary (telemetry-collector protocol)."""
        return {"stride": self.stride, "points": self.rows()}

    def state_dict(self) -> dict:
        """Lossless snapshot for durable checkpoints (collector protocol)."""
        return {
            "stride": self.stride,
            "points": [
                [p.slot, p.occupancy, p.delivered_cumulative, p.max_voq]
                for p in self.points
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces, never appends)."""
        self.stride = int(state["stride"])
        self.points = [
            TracePoint(
                slot=int(s),
                occupancy=int(occ),
                delivered_cumulative=int(dc),
                max_voq=int(mv),
            )
            for s, occ, dc, mv in state["points"]
        ]

    def reset(self) -> None:
        """Clear recorded points so the recorder can serve a new run."""
        self.points.clear()

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def occupancy_series(self) -> np.ndarray:
        """(slot, occupancy) array."""
        return np.array([(p.slot, p.occupancy) for p in self.points])

    def delivery_rate_series(self) -> np.ndarray:
        """(slot, delivered-per-slot) array over each sample interval."""
        if len(self.points) < 2:
            return np.empty((0, 2))
        out = []
        for prev, cur in zip(self.points, self.points[1:]):
            span = cur.slot - prev.slot
            rate = (cur.delivered_cumulative - prev.delivered_cumulative) / span
            out.append((cur.slot, rate))
        return np.array(out)

    def is_stable(self, tail_fraction: float = 0.5, growth_tolerance: float = 0.1) -> bool:
        """Whether queue occupancy stopped growing over the trace tail.

        Compares the mean occupancy of the last quarter against the
        quarter before it; growth beyond *growth_tolerance* (relative)
        means the offered load exceeds capacity.
        """
        if not 0 < tail_fraction <= 1:
            raise SimulationError("tail_fraction must be in (0, 1]")
        if len(self.points) < 8:
            raise SimulationError("trace too short to judge stability")
        tail = self.points[int(len(self.points) * (1 - tail_fraction)):]
        half = len(tail) // 2
        first = np.mean([p.occupancy for p in tail[:half]])
        second = np.mean([p.occupancy for p in tail[half:]])
        if first == 0:
            return second == 0
        return (second - first) / first <= growth_tolerance

    def peak_occupancy(self) -> int:
        """Largest sampled total occupancy."""
        return max((p.occupancy for p in self.points), default=0)
