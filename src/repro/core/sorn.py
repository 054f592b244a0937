"""The Sorn facade: one object from design to schedule, routing, and
evaluation.

This is the library's primary entry point::

    from repro import Sorn, SornDesign
    sorn = Sorn.optimal(num_nodes=128, num_cliques=8, locality=0.56)
    sorn.model().describe()                 # closed-form Table-1 block
    sorn.fluid_throughput(matrix)           # exact saturation throughput
    sorn.simulate(flows, duration_slots)    # slot-level simulation

The facade wires together the clique layout, the interleaved matching
schedule, the 2/3-hop hierarchical router, the analytical model, and
(optionally) a wavelength program for an AWGR fabric.
"""

from __future__ import annotations

from typing import Optional

from ..control.planner import UpdatePlan, plan_update
from ..errors import ConfigurationError
from ..hardware.awgr import Awgr
from ..hardware.timing import TimingModel, TABLE1_TIMING
from ..routing.sorn_routing import SornRouter
from ..schedules.sorn_schedule import SornSchedule
from ..schedules.wavelength import WavelengthProgram, compile_wavelength_program
from ..sim.engine import SimConfig, SlotSimulator
from ..sim.fluid import FluidResult, saturation_throughput
from ..sim.metrics import SimReport
from ..topology.cliques import CliqueLayout
from ..topology.logical import LogicalTopology
from ..traffic.matrix import TrafficMatrix
from ..traffic.workload import FlowsLike
from ..util import RngLike
from .design import SornDesign
from .model import SornModel

__all__ = ["Sorn"]


class Sorn:
    """A deployed semi-oblivious network: design + layout + data plane."""

    def __init__(
        self,
        design: SornDesign,
        layout: Optional[CliqueLayout] = None,
        timing: TimingModel = TABLE1_TIMING,
        max_denominator: int = 64,
    ):
        if layout is None:
            layout = CliqueLayout.equal(design.num_nodes, design.num_cliques)
        if (
            layout.num_nodes != design.num_nodes
            or layout.num_cliques != design.num_cliques
            or not layout.is_equal_sized
        ):
            raise ConfigurationError("layout disagrees with the design parameters")
        self.design = design
        self.layout = layout
        self.timing = timing
        self.schedule = SornSchedule(
            layout, q=design.q, max_denominator=max_denominator
        )
        self.router = SornRouter(layout)

    # -- constructors --------------------------------------------------------

    @classmethod
    def optimal(
        cls,
        num_nodes: int,
        num_cliques: int,
        locality: float,
        layout: Optional[CliqueLayout] = None,
        timing: TimingModel = TABLE1_TIMING,
    ) -> "Sorn":
        """Build the throughput-optimal SORN for a locality estimate."""
        return cls(
            SornDesign.optimal(num_nodes, num_cliques, locality),
            layout=layout,
            timing=timing,
        )

    # -- evaluation ------------------------------------------------------------

    def model(self) -> SornModel:
        """Closed-form analytical model of this deployment."""
        return SornModel(design=self.design, timing=self.timing)

    def logical_topology(self, node_bandwidth: float = 1.0) -> LogicalTopology:
        """The emulated virtual topology (Fig 2d/e style)."""
        return LogicalTopology.from_schedule(self.schedule, node_bandwidth)

    def fluid_throughput(self, matrix: TrafficMatrix) -> FluidResult:
        """Exact saturation throughput of *matrix* on this deployment."""
        return saturation_throughput(self.schedule, self.router, matrix)

    def simulate(
        self,
        flows: FlowsLike,
        duration_slots: int,
        config: Optional[SimConfig] = None,
        rng: RngLike = None,
        measure_from: int = 0,
    ) -> SimReport:
        """Slot-level simulation of a flow workload on this deployment."""
        simulator = SlotSimulator(self.schedule, self.router, config=config, rng=rng)
        return simulator.run(flows, duration_slots, measure_from=measure_from)

    def wavelength_program(self, awgr: Optional[Awgr] = None) -> WavelengthProgram:
        """Compile the schedule for an AWGR fabric (expressivity check)."""
        return compile_wavelength_program(self.schedule, awgr)

    # -- reconfiguration -----------------------------------------------------------

    def reconfigured(
        self,
        locality: Optional[float] = None,
        layout: Optional[CliqueLayout] = None,
        num_cliques: Optional[int] = None,
    ) -> "Sorn":
        """A new deployment with updated locality / layout / clique count.

        Unspecified aspects carry over; q is re-optimized whenever a new
        locality is given.
        """
        new_locality = self.design.locality if locality is None else locality
        if layout is not None:
            nc = layout.num_cliques
        elif num_cliques is not None:
            nc = num_cliques
            layout = None
        else:
            nc = self.design.num_cliques
            layout = self.layout
        design = SornDesign.optimal(self.design.num_nodes, nc, new_locality)
        return Sorn(design, layout=layout, timing=self.timing)

    def update_plan(self, target: "Sorn") -> UpdatePlan:
        """Disruption analysis for migrating this deployment to *target*."""
        return plan_update(self.schedule, target.schedule)

    def __repr__(self) -> str:
        return f"Sorn({self.design.describe()})"
