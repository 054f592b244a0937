"""Physical-layer models: timing, AWGR wavelength routing, OCS layer.

These modules model the hardware substrate the paper assumes (a Sirius-like
setup of tunable lasers + arrayed waveguide grating routers) at the level of
abstraction the paper uses: a set of feasible matchings indexed by
wavelength and a slot clock with guard times.  A node's NIC state (Fig 2c)
is not modelled here: its schedule table is
:meth:`repro.schedules.schedule.CircuitSchedule.node_row`, its
per-neighbor VOQs are the slot engines' (:mod:`repro.sim.network`), and
what an update does to them is :func:`repro.control.planner.plan_update`.
"""

from .timing import TimingModel, SyncDomain, TABLE1_TIMING, OPERA_TIMING
from .awgr import Awgr, wavelength_for_circuit
from .ocs import CircuitSwitchLayer

__all__ = [
    "TimingModel",
    "SyncDomain",
    "TABLE1_TIMING",
    "OPERA_TIMING",
    "Awgr",
    "wavelength_for_circuit",
    "CircuitSwitchLayer",
]
