"""Flow-level analytic fast model: FCT/slowdown with no per-cell state.

The slot simulator walks every cell of every flow through the fabric,
which is exact but caps practical scale near a few thousand nodes and a
few million cells.  This module computes per-flow completion-time and
slowdown *expectations* directly from the schedule's circuit timing and
the router's path distribution — the methodology of the paper's Table 1
(analytic delta_m hop waits + the q:1 link-capacity split), extended
from worst-case to expected-case via the queueing model in
:mod:`repro.analysis.queueing`:

- every virtual edge (u, v) the schedule provides opens once per
  ``gap = 1 / fraction`` slots and, at one cell per circuit-slot,
  carries ``fraction`` cells per slot of capacity;
- a cell crossing that edge waits ``expected_circuit_wait_slots(gap,
  rho)`` slots for its circuit, where ``rho`` is the edge utilization
  induced by the offered load under the router's exact path
  distribution (the fluid model of :mod:`repro.sim.fluid`);
- a flow of Z cells then completes in ``E[path wait] + (Z - 1) *
  E[bottleneck serialization]`` slots: the first cell pays the per-hop
  circuit waits, the remaining cells stream at the slowest edge's
  capacity.

Two utilization backends:

``mode="exact"``
    Per-edge utilizations from :func:`repro.sim.fluid.link_loads` — the
    full O(N^2 x paths) enumeration.  Any (router, matrix) pair,
    tractable to a few hundred nodes; this is the mode the differential
    suite cross-validates against the slot simulator.
``mode="symmetric"``
    Closed-form two-class utilizations for the SORN fabric (SornSchedule
    + SornRouter + clustered/uniform demand with locality ``x``).  By
    the symmetry of VLB spreading, every intra edge carries the same
    load — ``[x*(2 - 1/(S-1)) + (1-x)*(2 - 2/S)] * load / (S-1)`` — and
    every inter edge carries ``(1-x) * load / (Nc-1)``; expectation over
    the router's option set is likewise pair-independent per class.  No
    O(N^2) state anywhere, so N=4096 with millions of flows evaluates
    in milliseconds.  ``tests/sim/test_flowlevel_differential.py``
    pins the symmetric closed forms against the exact enumeration.

``mode="auto"`` picks ``symmetric`` when the fabric is SORN-shaped and a
scalar locality is available, else ``exact``.

Validity envelope (documented in DESIGN.md): expectations assume
stability (every edge utilization < 1 — infeasible loads report
``math.inf`` FCTs and ``stable=False``), Poisson-ish arrivals (whole-
flow batch injection adds burst waits the M/D/1-style term does not
see), and no same-slot cascade credit; the differential suite bounds
the resulting error with explicit tolerance bands.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.queueing import expected_circuit_wait_slots
from ..errors import ConfigurationError, SimulationError
from ..routing.base import Router
from ..schedules.schedule import CircuitSchedule
from ..traffic.matrix import TrafficMatrix
from ..traffic.workload import FlowsLike, FlowTable
from ..util import check_positive_int, ensure_rng
from .metrics import percentile

__all__ = [
    "PairLatency",
    "FlowLevelReport",
    "FlowLevelModel",
    "sample_flow_arrays",
]

#: Classes of the symmetric model (indices into the per-class tables).
#: Inter pairs split on position alignment: the aligned peer of an
#: aligned pair's source IS the destination, so one of its S VLB
#: options degenerates to the pure single inter hop and its bottleneck
#: expectation differs from the generic inter pair's.
_INTRA, _INTER, _INTER_ALIGNED = 0, 1, 2

#: Utilizations within one part in 1e12 of 1.0 count as saturated.  The
#: two backends reach rho through different arithmetic (closed form vs
#: per-link enumeration), so at a load sitting exactly on the saturation
#: throughput one can round to 1.0 and the other to 1 - O(ulp); a wait of
#: ~1e12 slots and "unstable" are the same physical answer, and the
#: shared threshold makes both backends agree on which to report.
_RHO_SATURATED = 1.0 - 1e-12


@dataclasses.dataclass(frozen=True)
class PairLatency:
    """Expected latency structure of one (src, dst) pair.

    Attributes
    ----------
    wait_slots:
        Expected slots for a single cell src -> dst: per-hop circuit
        waits plus one transmission slot per hop, averaged over the
        router's path options.  ``math.inf`` when any edge on any
        option is saturated.
    hops:
        Expected hop count over the path options.
    serialization_slots:
        Expected slots per *additional* cell of the same flow — the
        inverse capacity of the bottleneck (slowest) edge of the path.
    """

    wait_slots: float
    hops: float
    serialization_slots: float

    def fct(self, size_cells: int) -> float:
        """Expected completion time (slots) of a *size_cells* flow."""
        return self.wait_slots + (size_cells - 1) * self.serialization_slots


def _inf_safe_percentile(values: np.ndarray, p: float) -> float:
    """Linear-interpolation percentile with exact ``inf`` handling.

    numpy's interpolation computes ``a + w * (b - a)`` which turns any
    span touching two infinite order statistics into nan; a percentile
    landing on or past the first saturated flow is ``inf``, not nan.
    """
    s = np.sort(values)
    rank = p / 100.0 * (s.size - 1)
    lo = math.floor(rank)
    a, b = float(s[lo]), float(s[math.ceil(rank)])
    if math.isinf(b):
        return b if (rank > lo or math.isinf(a)) else a
    return a + (rank - lo) * (b - a)


@dataclasses.dataclass
class FlowLevelReport:
    """Per-flow FCT/slowdown expectations for one evaluated workload.

    The array fields are flow-indexed and float64 (``math.inf`` marks
    flows crossing a saturated edge).  ``summary()`` is the JSON-safe
    aggregate used by the sweep family and the CLI.
    """

    num_nodes: int
    num_flows: int
    load: float
    mode: str
    offered_cells: int
    fct_slots: np.ndarray
    slowdown: np.ndarray
    expected_hops: np.ndarray
    saturation_throughput: float
    bottleneck_utilization: float
    bottleneck: str
    stable: bool

    @property
    def mean_fct(self) -> Optional[float]:
        return float(self.fct_slots.mean()) if self.num_flows else None

    def fct_percentile(self, p: float) -> Optional[float]:
        """FCT percentile *p* in slots (None for an empty workload)."""
        if not self.num_flows:
            return None
        if np.isfinite(self.fct_slots).all():
            return percentile(self.fct_slots, p)
        return _inf_safe_percentile(self.fct_slots, p)

    @property
    def mean_slowdown(self) -> Optional[float]:
        return float(self.slowdown.mean()) if self.num_flows else None

    def slowdown_percentile(self, p: float) -> Optional[float]:
        """Slowdown percentile *p* (None for an empty workload)."""
        if not self.num_flows:
            return None
        if np.isfinite(self.slowdown).all():
            return percentile(self.slowdown, p)
        return _inf_safe_percentile(self.slowdown, p)

    @property
    def mean_hops(self) -> float:
        return float(self.expected_hops.mean()) if self.num_flows else 0.0

    def summary(self) -> dict:
        """JSON-safe aggregate (no per-flow arrays)."""

        def _num(x: Optional[float]) -> Optional[float]:
            if x is None:
                return None
            return float(x) if math.isfinite(x) else None

        return {
            "num_nodes": self.num_nodes,
            "num_flows": self.num_flows,
            "load": self.load,
            "mode": self.mode,
            "offered_cells": self.offered_cells,
            "mean_fct_slots": _num(self.mean_fct),
            "p50_fct_slots": _num(self.fct_percentile(50.0)),
            "p99_fct_slots": _num(self.fct_percentile(99.0)),
            "mean_slowdown": _num(self.mean_slowdown),
            "p99_slowdown": _num(self.slowdown_percentile(99.0)),
            "mean_hops": self.mean_hops,
            "saturation_throughput": self.saturation_throughput,
            "bottleneck_utilization": self.bottleneck_utilization,
            "bottleneck": self.bottleneck,
            "stable": self.stable,
        }


class FlowLevelModel:
    """Analytic per-flow latency model over one (schedule, router) fabric.

    Parameters
    ----------
    schedule, router:
        The fabric.  Multi-plane schedules are exact-mode only.
    load:
        Offered load as a fraction of aggregate injection bandwidth
        (:class:`repro.traffic.workload.Workload` semantics: total
        offered rate is ``load * N`` cells/slot).
    matrix:
        Demand shape for ``mode="exact"`` (only the pair distribution
        matters; the absolute scale comes from *load*).
    locality:
        Scalar intra-clique traffic fraction ``x`` for
        ``mode="symmetric"``.  When a matrix is supplied instead, the
        symmetric mode derives ``x = matrix.locality(layout)``.
    mode:
        ``"exact"``, ``"symmetric"`` or ``"auto"`` (see module
        docstring).
    """

    def __init__(
        self,
        schedule: CircuitSchedule,
        router: Router,
        *,
        load: float,
        matrix: Optional[TrafficMatrix] = None,
        locality: Optional[float] = None,
        mode: str = "auto",
    ):
        if load <= 0:
            raise ConfigurationError("load must be positive")
        if router.num_nodes != schedule.num_nodes:
            raise SimulationError(
                f"router covers {router.num_nodes} nodes, schedule "
                f"{schedule.num_nodes}"
            )
        if mode not in ("auto", "exact", "symmetric"):
            raise ConfigurationError(
                f"mode must be 'auto', 'exact' or 'symmetric', got {mode!r}"
            )
        self.schedule = schedule
        self.router = router
        self.load = float(load)
        self.num_nodes = schedule.num_nodes

        symmetric_ok = self._sorn_shaped()
        if mode == "auto":
            mode = "symmetric" if symmetric_ok else "exact"
        if mode == "symmetric":
            if not symmetric_ok:
                raise ConfigurationError(
                    "symmetric mode needs a single-plane SornSchedule and "
                    "a SornRouter over the same layout"
                )
            layout = self.schedule.layout
            if locality is None:
                if matrix is None:
                    raise ConfigurationError(
                        "symmetric mode needs locality= (or a matrix to "
                        "derive it from)"
                    )
                locality = matrix.locality(layout)
            if not 0.0 <= locality <= 1.0:
                raise ConfigurationError("locality must be within [0, 1]")
        elif matrix is None:
            raise ConfigurationError("exact mode needs a demand matrix")
        self.mode = mode
        self.locality = locality
        self._pair_cache: Dict[Tuple[int, int], PairLatency] = {}

        if mode == "symmetric":
            self._init_symmetric()
        else:
            self._init_exact(matrix)

    # -- setup ----------------------------------------------------------------

    def _sorn_shaped(self) -> bool:
        """SORN fabric with matching layouts and a single plane."""
        schedule, router = self.schedule, self.router
        layout = getattr(schedule, "layout", None)
        return (
            getattr(schedule, "num_intra_slots", None) is not None
            and layout is not None
            and layout.is_equal_sized
            and schedule.num_planes == 1
            and getattr(router, "layout", None) == layout
        )

    def _init_symmetric(self) -> None:
        schedule = self.schedule
        layout = schedule.layout
        size, nc = layout.clique_size, layout.num_cliques
        period = schedule.period
        x = self.locality
        load = self.load
        # Per-edge bandwidth fractions (SornSchedule.edge_fractions
        # closed form, without materializing the O(N^2) dict).
        frac = [0.0, 0.0]
        if size > 1:
            frac[_INTRA] = schedule.num_intra_slots / (size - 1) / period
        if nc > 1:
            frac[_INTER] = schedule.num_inter_slots / (nc - 1) / period
        # Per-edge loads, in cells/slot, for total demand load * N:
        # intra edges carry the VLB-spread intra demand (2 - 1/(S-1)
        # hops) plus the first/last intra hops of inter demand
        # (2 - 2/S per inter cell), uniformly over the N*(S-1) intra
        # edges; inter edges carry exactly one hop per inter cell over
        # the N*(Nc-1) aligned pairs.
        edge_load = [0.0, 0.0]
        if size > 1:
            intra_hops = x * (2.0 - 1.0 / (size - 1))
            if nc > 1:
                intra_hops += (1.0 - x) * (2.0 - 2.0 / size)
            edge_load[_INTRA] = load * intra_hops / (size - 1)
        if nc > 1:
            edge_load[_INTER] = load * (1.0 - x) / (nc - 1)
        self._gap = [1.0 / f if f > 0 else math.inf for f in frac]
        # One cell per circuit-slot: capacity in cells/slot is the fraction.
        self._cap = frac
        self._rho = [
            (edge_load[k] / self._cap[k]) if self._cap[k] > 0 else 0.0
            for k in (_INTRA, _INTER)
        ]
        worst = max(self._rho)
        self.bottleneck = (
            "inter" if self._rho[_INTER] >= self._rho[_INTRA] else "intra"
        )
        self.bottleneck_utilization = worst
        self.saturation_throughput = (
            min(1.0, load / worst) if worst > 0 else 1.0
        )
        self.stable = worst < _RHO_SATURATED
        self._wait = [self._edge_wait(k) for k in (_INTRA, _INTER)]
        self._class_stats = [
            self._symmetric_pair(kind)
            for kind in (_INTRA, _INTER, _INTER_ALIGNED)
        ]
        self._assignment = np.asarray(layout.assignment(), dtype=np.int64)
        self._positions = np.asarray(layout.positions(), dtype=np.int64)

    def _edge_wait(self, kind: int) -> float:
        """Expected circuit wait + the transmission slot for one hop."""
        rho = self._rho[kind]
        gap = self._gap[kind]
        if not math.isfinite(gap):
            return math.inf
        if rho >= _RHO_SATURATED:
            return math.inf
        return expected_circuit_wait_slots(gap, rho) + 1.0

    def _symmetric_pair(self, kind: int) -> PairLatency:
        """Class expectation over the SORN option set.

        Exact for every pair of the class: each intra pair sees the
        direct hop with probability 1/(S-1) plus a 2-hop VLB detour
        otherwise; each inter pair's option set always contains exactly
        one inter hop and 2 - 2/S intra hops in expectation (the
        mid=src and entry=dst degeneracies each occur for exactly one
        of the S load-balancing choices, for aligned and non-aligned
        pairs alike — for an *aligned* pair it is the same choice, the
        pure single inter hop).  Waits and hop counts are linear in the
        per-option hop counts, so one expectation covers both inter
        classes; the serialization bottleneck is a per-option *min*, so
        aligned pairs mix the pure-inter option's bottleneck in with
        probability 1/S.
        """
        layout = self.schedule.layout
        size = layout.clique_size
        w_intra, w_inter = self._wait
        cap_intra, cap_inter = self._cap
        if kind == _INTRA:
            hops = 2.0 - 1.0 / (size - 1) if size > 1 else 0.0
            wait = hops * w_intra
            ser = 1.0 / cap_intra if cap_intra > 0 else math.inf
            return PairLatency(wait, hops, ser)
        intra_hops = 2.0 - 2.0 / size if size > 1 else 0.0
        wait = intra_hops * w_intra + w_inter
        hops = intra_hops + 1.0
        ser_inter = 1.0 / cap_inter if cap_inter > 0 else math.inf
        caps = [cap for cap in self._cap if cap > 0]
        ser_mixed = 1.0 / min(caps) if caps else math.inf
        if kind == _INTER_ALIGNED and size > 1:
            ser = ser_inter / size + (size - 1) / size * ser_mixed
        elif kind == _INTER_ALIGNED:
            ser = ser_inter  # size 1: every option is the pure inter hop
        else:
            ser = ser_mixed
        return PairLatency(wait, hops, ser)

    def _init_exact(self, matrix: TrafficMatrix) -> None:
        from .fluid import link_loads

        n = self.num_nodes
        if matrix.num_nodes != n:
            raise SimulationError(
                f"matrix covers {matrix.num_nodes} nodes, schedule {n}"
            )
        frac = np.zeros((n, n))
        for (u, v), f in self.schedule.edge_fractions().items():
            frac[u, v] = f
        probs = matrix.pair_distribution().reshape(n, n)
        demand = TrafficMatrix(self.load * n * probs)
        loads = link_loads(self.router, demand)
        if bool(((loads > 0) & (frac == 0)).any()):
            raise SimulationError(
                "router uses a virtual link the schedule never provides"
            )
        # One cell per circuit-slot: capacity in cells/slot is the fraction.
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(frac > 0, loads / np.where(frac > 0, frac, 1.0), 0.0)
            gap = np.where(frac > 0, 1.0 / np.where(frac > 0, frac, 1.0), np.inf)
        self._gap_m = gap
        self._cap_m = frac
        self._rho_m = rho
        worst = float(rho.max()) if rho.size else 0.0
        flat = int(np.argmax(rho)) if rho.size else 0
        self.bottleneck = str((flat // n, flat % n))
        self.bottleneck_utilization = worst
        self.saturation_throughput = (
            min(1.0, self.load / worst) if worst > 0 else 1.0
        )
        self.stable = worst < _RHO_SATURATED

    # -- per-pair expectations -------------------------------------------------

    def pair_latency(self, src: int, dst: int) -> PairLatency:
        """Expected latency structure of (src, dst), memoized.

        Symmetric mode memoizes per class (intra/inter) — the class
        expectation is pair-exact; exact mode memoizes per pair.
        """
        if self.mode == "symmetric":
            if self._assignment[src] == self._assignment[dst]:
                kind = _INTRA
            elif self._positions[src] == self._positions[dst]:
                kind = _INTER_ALIGNED
            else:
                kind = _INTER
            return self._class_stats[kind]
        key = (src, dst)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._exact_pair(src, dst)
            self._pair_cache[key] = cached
        return cached

    def _exact_pair(self, src: int, dst: int) -> PairLatency:
        gap_m, rho_m, cap_m = self._gap_m, self._rho_m, self._cap_m
        wait = hops = ser = 0.0
        for prob, path in self.router.path_options(src, dst):
            w = 0.0
            cap_min = math.inf
            count = 0
            for u, v in path.links():
                rho = rho_m[u, v]
                gap = gap_m[u, v]
                if rho >= _RHO_SATURATED or not math.isfinite(gap):
                    w = math.inf
                else:
                    w += expected_circuit_wait_slots(gap, rho) + 1.0
                cap_min = min(cap_min, cap_m[u, v])
                count += 1
            wait += prob * w
            hops += prob * count
            ser += prob * (1.0 / cap_min if cap_min > 0 else math.inf)
        return PairLatency(wait, hops, ser)

    # -- workload evaluation ---------------------------------------------------

    def evaluate(self, flows: FlowsLike) -> FlowLevelReport:
        """Per-flow FCT/slowdown expectations for a flow table.

        Arrival slots are irrelevant to a stationary expectation; only
        the ``src``, ``dst`` and ``size_cells`` columns are read.  A
        ``FlowSpec`` sequence is converted first.  Scales to millions of
        flows in symmetric mode: the evaluation is two masked gathers.
        """
        flows = FlowTable.of(flows)
        srcs, dsts, sizes = flows.src, flows.dst, flows.size_cells
        num_flows = len(flows)
        wait = np.empty(num_flows)
        hops = np.empty(num_flows)
        ser = np.empty(num_flows)
        if self.mode == "symmetric":
            cl = self._assignment
            pos = self._positions
            intra = cl[srcs] == cl[dsts]
            aligned = ~intra & (pos[srcs] == pos[dsts])
            classes = (
                (_INTRA, intra),
                (_INTER, ~intra & ~aligned),
                (_INTER_ALIGNED, aligned),
            )
            for kind, mask in classes:
                stats = self._class_stats[kind]
                wait[mask] = stats.wait_slots
                hops[mask] = stats.hops
                ser[mask] = stats.serialization_slots
        else:
            pairs = zip(srcs.tolist(), dsts.tolist())
            for i, (src, dst) in enumerate(pairs):
                stats = self.pair_latency(src, dst)
                wait[i] = stats.wait_slots
                hops[i] = stats.hops
                ser[i] = stats.serialization_slots
        extra = (sizes - 1).astype(np.float64)
        with np.errstate(invalid="ignore"):
            fct = wait + extra * ser
        # Ideal FCT: one slot per hop plus line-rate streaming of the
        # remaining cells on an always-on path.
        ideal = hops + extra
        with np.errstate(invalid="ignore", divide="ignore"):
            slowdown = np.where(ideal > 0, fct / np.where(ideal > 0, ideal, 1.0), 1.0)
        return FlowLevelReport(
            num_nodes=self.num_nodes,
            num_flows=num_flows,
            load=self.load,
            mode=self.mode,
            offered_cells=int(sizes.sum()),
            fct_slots=fct,
            slowdown=slowdown,
            expected_hops=hops,
            saturation_throughput=self.saturation_throughput,
            bottleneck_utilization=self.bottleneck_utilization,
            bottleneck=self.bottleneck,
            stable=self.stable,
        )


def sample_flow_arrays(
    layout,
    locality: float,
    num_flows: int,
    rng,
    *,
    flow_sizes=None,
    cell_bytes: float = 16384.0,
) -> FlowTable:
    """Sample a clustered flow table straight from the clique layout.

    Sources are uniform; destinations are intra-clique with probability
    *locality* and uniform over the other cliques otherwise (the
    clustered-matrix sampling of :class:`repro.traffic.workload.Workload`
    without the dense N x N pair distribution); sizes are drawn from
    *flow_sizes* (default :data:`repro.traffic.WEB_SEARCH`) in cells of
    *cell_bytes*.  Every arrival slot is 0: the flow model is
    stationary.  This is what makes millions-of-flows workloads
    tractable to *sample*, not just to evaluate.
    """
    if not 0.0 <= locality <= 1.0:
        raise ConfigurationError("locality must be within [0, 1]")
    check_positive_int(num_flows, "num_flows")
    gen = ensure_rng(rng)
    if flow_sizes is None:
        from ..traffic import WEB_SEARCH

        flow_sizes = WEB_SEARCH
    groups = np.asarray(layout.groups(), dtype=np.int64)  # (Nc, S)
    nc, size = groups.shape
    assignment = np.asarray(layout.assignment(), dtype=np.int64)
    positions = np.asarray(layout.positions(), dtype=np.int64)
    srcs = gen.integers(0, layout.num_nodes, size=num_flows)
    intra = gen.random(num_flows) < locality
    if size <= 1:
        intra[:] = False
    if nc <= 1:
        intra[:] = True
    dsts = np.empty(num_flows, dtype=np.int64)
    ni = int(intra.sum())
    if ni:
        s = srcs[intra]
        offset = gen.integers(1, size, size=ni)
        dsts[intra] = groups[assignment[s], (positions[s] + offset) % size]
    ne = num_flows - ni
    if ne:
        s = srcs[~intra]
        coff = gen.integers(1, nc, size=ne)
        pos = gen.integers(0, size, size=ne)
        dsts[~intra] = groups[(assignment[s] + coff) % nc, pos]
    raw = flow_sizes.sample(gen, count=num_flows)
    sizes = np.maximum(1, np.round(raw / cell_bytes)).astype(np.int64)
    return FlowTable._adopt(srcs, dsts, sizes, np.zeros(num_flows, dtype=np.int64))
