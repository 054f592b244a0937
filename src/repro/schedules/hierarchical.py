"""Hierarchical SORN: h-dimensional schedules *inside* cliques.

The paper's section 6 invites designs beyond the basic SORN ("a spectrum
of topologies ... there is much scope for other designs").  This module
builds one natural member of that spectrum: keep the clique structure and
the q:1 intra/inter oversubscription, but run an h-dimensional optimal-ORN
schedule (Amir et al.) *within* each clique instead of the flat rotation.

Effects (closed forms in :mod:`repro.analysis.hierarchical`):

- intra-clique intrinsic latency shrinks from ``(q+1)/q (S-1)`` to
  ``(q+1)/q * h^2 (S^{1/h} - 1)`` — the same exponential collapse the 2D
  ORN gets, now applied only where the schedule length actually hurts;
- intra flows pay up to 2h hops and inter flows ``1 + h`` (LB + inter +
  h digit-fixing hops), so worst-case throughput becomes
  ``1 / (2hx + (1-x)(h+2))`` at the new optimal q — exactly ``1/(3-x)``
  at h = 1 (the flat SORN) and approaching the 2D ORN's 1/4 as locality
  vanishes at h = 2.

This interpolates the paper's Table 1 between the SORN and 2D-ORN rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..topology.cliques import CliqueLayout
from ..util import check_positive_int
from .matching import Matching
from .schedule import CircuitSchedule
from .sorn_schedule import INTER, INTRA, _clique_bank, _interleave, _lcm

__all__ = ["HierarchicalSornSchedule"]


class HierarchicalSornSchedule(CircuitSchedule):
    """SORN schedule whose intra-clique slots follow an h-dim ORN.

    Parameters
    ----------
    layout:
        Equal-sized clique layout; the clique size must be a perfect
        h-th power (radix >= 2).
    q:
        Intra : inter oversubscription (>= 1), rationalized as in
        :class:`~repro.schedules.sorn_schedule.SornSchedule`.
    h:
        Intra-clique schedule dimensionality (h = 1 degenerates to the
        flat SORN rotation schedule).
    """

    def __init__(
        self,
        layout: CliqueLayout,
        q: float = 1.0,
        h: int = 2,
        num_planes: int = 1,
        max_denominator: int = 64,
    ):
        if not layout.is_equal_sized:
            raise ConfigurationError("hierarchical SORN requires equal cliques")
        self.layout = layout
        self.h = check_positive_int(h, "h")
        size = layout.clique_size
        nc = layout.num_cliques
        radix = round(size ** (1.0 / self.h))
        for candidate in (radix - 1, radix, radix + 1):
            if candidate >= 2 and candidate ** self.h == size:
                radix = candidate
                break
        else:
            raise ConfigurationError(
                f"clique size {size} is not a perfect {self.h}-th power"
            )
        self.radix = radix

        self.q_exact = Fraction(q).limit_denominator(
            check_positive_int(max_denominator, "max_denominator")
        )
        if self.q_exact < 1:
            raise ConfigurationError(f"q must be >= 1, got {q}")

        num_intra_matchings = self.h * (radix - 1)
        num_inter_matchings = nc - 1
        if num_inter_matchings == 0:
            intra_slots, inter_slots = num_intra_matchings, 0
        else:
            a, b = self.q_exact.numerator, self.q_exact.denominator
            m = _lcm(
                num_intra_matchings // math.gcd(a, num_intra_matchings),
                num_inter_matchings // math.gcd(b, num_inter_matchings),
            )
            intra_slots, inter_slots = a * m, b * m

        super().__init__(layout.num_nodes, intra_slots + inter_slots, num_planes)
        self.num_intra_slots = intra_slots
        self.num_inter_slots = inter_slots

        self._kind, self._family_index = _interleave(self._period, inter_slots)
        self._order = np.array(layout.groups(), dtype=np.int64)
        self.compiled()  # eager: milliseconds, and matching() reads it

    # -- intra digit arithmetic (positions within a clique) -------------------

    def position_digit(self, position: int, dim: int) -> int:
        """Digit *dim* of an intra-clique position (base radix)."""
        return (position // self.radix ** dim) % self.radix

    def advance_position(self, position: int, dim: int, shift: int) -> int:
        """Position reached by advancing digit *dim* by *shift*."""
        stride = self.radix ** dim
        digit = self.position_digit(position, dim)
        return position + (((digit + shift) % self.radix) - digit) * stride

    # -- schedule ---------------------------------------------------------------

    def is_intra_slot(self, slot: int) -> bool:
        """Whether (cyclic) slot carries intra-clique matchings."""
        return self._kind[slot % self._period] == INTRA

    def intra_slot_params(self, slot: int) -> Tuple[int, int]:
        """(dimension, shift) served by an intra slot."""
        t = slot % self._period
        if self._kind[t] != INTRA:
            raise ConfigurationError(f"slot {slot} is not an intra slot")
        idx = int(self._family_index[t]) % (self.h * (self.radix - 1))
        return idx % self.h, idx // self.h % (self.radix - 1) + 1

    def inter_slot_shift(self, slot: int) -> int:
        """Clique rotation shift of an inter slot."""
        t = slot % self._period
        if self._kind[t] != INTER:
            raise ConfigurationError(f"slot {slot} is not an inter slot")
        idx = int(self._family_index[t])
        return idx % (self.layout.num_cliques - 1) + 1

    def _compile(self) -> Tuple[np.ndarray, np.ndarray]:
        """The h(radix-1) intra digit advances (family index r serves
        dimension ``r mod h`` at shift ``r // h + 1``), then the Nc-1
        clique rotations."""
        pos = np.arange(self.layout.clique_size)
        r = np.arange(self.h * (self.radix - 1))[:, None]
        stride = self.radix ** (r % self.h)
        digit = pos // stride % self.radix
        intra_cols = pos + ((digit + r // self.h + 1) % self.radix - digit) * stride
        bank, base = _clique_bank(self._order, intra_cols, self._kind, self._family_index)
        return bank, self._offset_planes(base)

    def matching(self, slot: int) -> Matching:
        bank, index = self.compiled()
        return Matching(bank[index[slot % self._period, 0]])

    # -- derived ------------------------------------------------------------------

    @property
    def num_cliques(self) -> int:
        return self.layout.num_cliques

    @property
    def clique_size(self) -> int:
        return self.layout.clique_size

    @property
    def q(self) -> float:
        """Realized oversubscription ratio."""
        if self.num_inter_slots == 0:
            return float(self.q_exact)
        return self.num_intra_slots / self.num_inter_slots

    @property
    def intra_bandwidth_fraction(self) -> float:
        return self.num_intra_slots / self.period

    def neighbor_superset(self, node: int) -> List[int]:
        """Digit neighbors within the clique plus aligned inter peers."""
        c = self.layout.clique_of(node)
        pos = self.layout.position_of(node)
        intra = {
            self.layout.node_at(c, self.advance_position(pos, d, s))
            for d in range(self.h)
            for s in range(1, self.radix)
        }
        inter = {
            self.layout.node_at(cc, pos)
            for cc in range(self.num_cliques)
            if cc != c
        }
        return sorted(intra | inter)
