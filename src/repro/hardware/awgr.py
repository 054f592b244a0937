"""Arrayed Waveguide Grating Router (AWGR) model (paper Figure 2a-b).

An AWGR is a passive optical device with the *cyclic routing property*:
light entering input port ``i`` on wavelength ``w`` exits output port
``(i + w) mod P`` (for a P-port grating).  A Sirius-like fabric attaches
each node's uplink to an AWGR port and equips nodes with fast-tunable
lasers; by choosing its transmit wavelength per time slot, each node selects
which matching it participates in.  The full set of circuits available to
the network is therefore a family of rotation matchings indexed by
wavelength, and the circuit *schedule* lives entirely in node state (each
node's row of it is
:meth:`repro.schedules.schedule.CircuitSchedule.node_row`).

The paper's Figure 2(a-b) shows an 8-node setup offering matchings m1..m5;
:func:`example_figure2_awgr` reconstructs that scale of setup.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..errors import HardwareModelError
from ..util import check_positive_int

__all__ = ["Awgr", "wavelength_for_circuit", "example_figure2_awgr"]


def wavelength_for_circuit(src: int, dst: int, num_ports: int) -> int:
    """Wavelength index a node at port *src* must emit to reach port *dst*.

    Inverse of the AWGR cyclic routing property ``dst = (src + w) mod P``.
    A result of 0 denotes self-loop (never used by real schedules).
    """
    num_ports = check_positive_int(num_ports, "num_ports")
    if not (0 <= src < num_ports and 0 <= dst < num_ports):
        raise HardwareModelError(
            f"ports must be in [0, {num_ports}), got src={src} dst={dst}"
        )
    return (dst - src) % num_ports


@dataclasses.dataclass(frozen=True)
class Awgr:
    """A P-port AWGR supporting a contiguous band of wavelengths.

    Parameters
    ----------
    num_ports:
        Number of input (= output) ports.  One node uplink per port.
    num_wavelengths:
        Number of distinct wavelengths the attached lasers can tune to.
        Each non-zero wavelength ``w`` yields the rotation matching
        ``i -> (i + w) mod P``.  ``num_wavelengths`` counts usable,
        non-self-loop wavelengths, so it must be <= num_ports - 1.
    """

    num_ports: int
    num_wavelengths: int

    def __post_init__(self) -> None:
        check_positive_int(self.num_ports, "num_ports", minimum=2)
        check_positive_int(self.num_wavelengths, "num_wavelengths")
        if self.num_wavelengths > self.num_ports - 1:
            raise HardwareModelError(
                f"an AWGR with {self.num_ports} ports supports at most "
                f"{self.num_ports - 1} non-trivial wavelengths, got {self.num_wavelengths}"
            )

    @property
    def wavelengths(self) -> range:
        """Usable wavelength indices (1-based; 0 would be a self-loop)."""
        return range(1, self.num_wavelengths + 1)

    def matching_for_wavelength(self, wavelength: int) -> np.ndarray:
        """Destination permutation realized when all ports emit *wavelength*.

        Returns an array ``m`` with ``m[src] = (src + wavelength) mod P``.
        """
        if wavelength not in self.wavelengths:
            raise HardwareModelError(
                f"wavelength {wavelength} outside usable range "
                f"[1, {self.num_wavelengths}]"
            )
        ports = np.arange(self.num_ports, dtype=np.int64)
        return (ports + wavelength) % self.num_ports

    def all_matchings(self) -> List[np.ndarray]:
        """The full family of rotation matchings, one per usable wavelength."""
        return [self.matching_for_wavelength(w) for w in self.wavelengths]

    def output_port(self, src: int, wavelength: int) -> int:
        """Cyclic routing: where light from *src* on *wavelength* exits."""
        if wavelength not in self.wavelengths:
            raise HardwareModelError(
                f"wavelength {wavelength} outside usable range "
                f"[1, {self.num_wavelengths}]"
            )
        if not 0 <= src < self.num_ports:
            raise HardwareModelError(f"port {src} out of range [0, {self.num_ports})")
        return (src + wavelength) % self.num_ports

    def can_connect(self, src: int, dst: int) -> bool:
        """Whether some usable wavelength realizes the circuit src -> dst."""
        if src == dst:
            return False
        return wavelength_for_circuit(src, dst, self.num_ports) <= self.num_wavelengths

    def reachable_destinations(self, src: int) -> List[int]:
        """All destinations *src* can reach across the wavelength band."""
        return [self.output_port(src, w) for w in self.wavelengths]

    def supports_full_mesh(self) -> bool:
        """True iff every ordered node pair is connectable (all N-1 rotations)."""
        return self.num_wavelengths == self.num_ports - 1

    def per_slot_matchings(self, wavelength_choices: Sequence[int]) -> np.ndarray:
        """Destinations when each port independently picks its own wavelength.

        Wavelength-selective operation (paper section 5, "Expressivity"):
        different sources may emit different wavelengths in the same slot,
        and the AWGR still delivers each without contention *iff* no two
        sources target the same output port.  Raises
        :class:`HardwareModelError` on output contention.
        """
        choices = np.asarray(wavelength_choices, dtype=np.int64)
        if choices.shape != (self.num_ports,):
            raise HardwareModelError(
                f"need one wavelength per port ({self.num_ports}), got shape {choices.shape}"
            )
        if choices.min() < 1 or choices.max() > self.num_wavelengths:
            raise HardwareModelError("wavelength choice outside usable band")
        dests = (np.arange(self.num_ports, dtype=np.int64) + choices) % self.num_ports
        if len(np.unique(dests)) != self.num_ports:
            raise HardwareModelError(
                "output-port contention: two sources selected wavelengths "
                "landing on the same output"
            )
        return dests


def example_figure2_awgr() -> Awgr:
    """The 8-node, 5-matching setup sketched in the paper's Figure 2(a-b)."""
    return Awgr(num_ports=8, num_wavelengths=5)
