"""In-memory span tracer and boundary probe for the benchmark.

Both wrap public entry points of the ``repro`` layers from outside the
package: nothing under ``src/`` is edited, the wrappers are installed in
the benchmark's own child process and removed again by ``uninstall``.

- :class:`Probe` is always on.  It keeps two timestamps and a slot
  count at the slot engine's boundary (the first ``SlotSimulator.start``
  return and every ``SimSession.finish`` return), which is all
  ``setup_s`` and ``slots_per_s`` need.  It records no spans.
- :class:`Tracer` is on only in the traced run.  Every wrapped call
  records a :class:`Span` (name, start, end, parent span, run id) kept
  in memory and written out once, when the run ends.  A layer's self
  time is the time its spans cover minus the time their child spans
  cover; ``other_s`` is the traced wall time no span covers.

Neither attaches a ``TelemetryHub``: any hub collapses the vectorized
engine's slot batching to one slot, so a hub-based trace would describe
a different code path from the one the untraced run times.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: Span name -> the per-layer time metric its self time is charged to.
#: Every span name maps to exactly one metric, so the layer times plus
#: ``other_s`` add up to the traced wall time.
SPAN_METRIC = {
    "schedules.build_sorn_schedule": "schedules.compile_s",
    "schedules.sorn_schedule": "schedules.compile_s",
    "schedules.dest_table": "schedules.compile_s",
    "schedules.node_row": "schedules.node_rows_s",
    "traffic.generate": "traffic.generate_s",
    "routing.paths_batch": "routing.paths_batch_s",
    "sim.start": "sim.start_s",
    "sim.advance": "sim.advance_s",
    "sim.run_segment": "sim.segment_s",
    "sim.finish": "sim.finish_s",
    "sim.swap_schedule": "sim.swap_s",
    "sim.demand_snapshot": "sim.demand_snapshot_s",
    "fluid.saturation_throughput": "fluid.solve_s",
    "flowlevel.build": "flowlevel.build_s",
    "flowlevel.sample": "flowlevel.sample_s",
    "flowlevel.evaluate": "flowlevel.evaluate_s",
    "control.run": "control.loop_self_s",
    "control.observe": "control.step_s",
    "control.estimate": "control.step_s",
    "control.plan_update": "control.step_s",
    "control.maybe_apply": "control.step_s",
    "control.force_update": "control.step_s",
    "exp.run": "exp.runner_self_s",
    "exp.family": "exp.family_self_s",
    "exp.cache_get": "exp.cache_get_s",
    "exp.cache_put": "exp.cache_put_s",
    "exp.journal": "exp.journal_s",
}

#: The per-layer time metrics, in report order.
TIME_METRICS = list(dict.fromkeys(SPAN_METRIC.values()))

#: Counts and ratios taken at the same boundaries, plus the remainder.
DERIVED_METRICS = [
    "schedules.tables",
    "schedules.table_mib",
    "traffic.flows",
    "routing.paths",
    "sim.slots",
    "sim.cells_delivered",
    "sim.us_per_slot",
    "sim.ns_per_cell",
    "sim.voq_mib",
    "sim.swaps",
    "fluid.calls",
    "flowlevel.flows_per_s",
    "control.epochs",
    "control.retunes",
    "exp.cache_puts",
    "exp.cache_hit_ratio",
    "other_s",
]

LAYER_METRICS = TIME_METRICS + DERIVED_METRICS


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("index", "name", "start", "end", "parent", "run_id")

    def __init__(self, index, name, start, end, parent, run_id):
        self.index = index
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.run_id = run_id

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest properly, so the direct children of a span
    cover disjoint parts of it and their durations simply subtract.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def layer_times(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-layer self time of *spans* plus the ``other_s`` remainder.

    The values add up to *wall_s*: the self times add up to the total
    duration of the root spans, and ``other_s`` is the rest.
    """
    totals = {metric: 0.0 for metric in TIME_METRICS}
    for span, own in zip(spans, self_times(spans)):
        totals[SPAN_METRIC[span.name]] += own
    covered = sum(span.end - span.start for span in spans if span.parent < 0)
    totals["other_s"] = wall_s - covered
    return totals


def layer_metrics(spans: List[Span], counts: Dict[str, float], wall_s: float) -> dict:
    """Every per-layer metric of one traced run, as plain numbers."""
    out = layer_times(spans, wall_s)
    advance = out["sim.advance_s"]
    slots = counts.get("sim.slots", 0)
    cells = counts.get("sim.cells_delivered", 0)
    flows = counts.get("flowlevel.flows", 0)
    gets = counts.get("exp.cache_gets", 0)
    out.update(
        {
            "schedules.tables": counts.get("schedules.tables", 0),
            "schedules.table_mib": counts.get("schedules.table_bytes", 0) / 2**20,
            "traffic.flows": counts.get("traffic.flows", 0),
            "routing.paths": counts.get("routing.paths", 0),
            "sim.slots": slots,
            "sim.cells_delivered": cells,
            "sim.us_per_slot": advance / slots * 1e6 if slots else 0.0,
            "sim.ns_per_cell": advance / cells * 1e9 if cells else 0.0,
            "sim.voq_mib": counts.get("sim.voq_bytes", 0) / 2**20,
            "sim.swaps": counts.get("sim.swaps", 0),
            "fluid.calls": counts.get("fluid.calls", 0),
            "flowlevel.flows_per_s": (
                flows / out["flowlevel.evaluate_s"] if flows else 0.0
            ),
            "control.epochs": counts.get("control.epochs", 0),
            "control.retunes": counts.get("control.retunes", 0),
            "exp.cache_puts": counts.get("exp.cache_puts", 0),
            "exp.cache_hit_ratio": (
                counts.get("exp.cache_hits", 0) / gets if gets else 0.0
            ),
        }
    )
    return out


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class _Patcher:
    """Replaces attributes and puts the originals back on ``uninstall``."""

    def __init__(self):
        self._undo: list = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, base, attr: str, wrap: Callable) -> None:
        """Wrap *attr* on *base* and on every loaded subclass overriding it."""
        for cls in [base] + _subclasses(base):
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(wrap(raw.__func__)))
            else:
                self._set(cls, attr, wrap(raw))

    def function(self, fn: Callable, wrap: Callable) -> None:
        """Rebind *fn* in every loaded ``repro`` module that holds it."""
        wrapped = wrap(fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probe(_Patcher):
    """Slot-engine boundary timestamps for ``setup_s`` and ``slots_per_s``."""

    def __init__(self):
        super().__init__()
        self.first_start: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.slots = 0
        self._finished = weakref.WeakSet()

    def install(self) -> "Probe":
        from repro.sim import SimSession, SlotSimulator

        probe = self

        def start(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                session = fn(*args, **kwargs)
                if probe.first_start is None:
                    probe.first_start = time.perf_counter()
                return session

            return probed

        def finish(fn):
            @functools.wraps(fn)
            def probed(session, *args, **kwargs):
                report = fn(session, *args, **kwargs)
                probe.last_finish = time.perf_counter()
                if session not in probe._finished:
                    probe._finished.add(session)
                    probe.slots += session.slot
                return report

            return probed

        self.method(SlotSimulator, "start", start)
        self.method(SimSession, "finish", finish)
        return self


class Tracer(_Patcher):
    """Span recorder over the public entry points of every layer."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._compiled = weakref.WeakSet()
        self._finished = weakref.WeakSet()
        self._families: list = []

    def span(self, name: str, count: Optional[Callable] = None) -> Callable:
        """A decorator that times calls of a function as *name* spans.

        *count(counts, args, result)* runs after the span closes and only
        for the outermost span of that name, so an override that calls
        its base implementation is counted once.
        """
        if name not in SPAN_METRIC:
            raise KeyError(f"span {name!r} has no layer metric")
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = tracer._stack
                outermost = all(s.name != name for s in stack)
                span = Span(
                    len(tracer.spans),
                    name,
                    time.perf_counter(),
                    None,
                    stack[-1].index if stack else -1,
                    tracer.run_id,
                )
                tracer.spans.append(span)
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                if count is not None and outermost:
                    count(tracer.counts, args, result)
                return result

            return traced

        return wrap

    # -- counters at the boundaries -----------------------------------------

    @staticmethod
    def _bump(key: str, by: Callable = lambda args, result: 1) -> Callable:
        def count(counts, args, result):
            counts[key] += by(args, result)

        return count

    def _count_table(self, counts, args, table) -> None:
        schedule = args[0]
        if schedule not in self._compiled:  # the first call compiles
            self._compiled.add(schedule)
            counts["schedules.tables"] += 1
            counts["schedules.table_bytes"] += table.nbytes

    @staticmethod
    def _count_start(counts, args, session) -> None:
        network = vars(session.network).values()
        voq = sum(v.nbytes for v in network if isinstance(v, np.ndarray))
        counts["sim.voq_bytes"] = max(counts["sim.voq_bytes"], voq)

    def _count_finish(self, counts, args, report) -> None:
        session = args[0]
        if session not in self._finished:
            self._finished.add(session)
            counts["sim.slots"] += session.slot
            counts["sim.cells_delivered"] += report.delivered_cells

    @staticmethod
    def _count_get(counts, args, result) -> None:
        counts["exp.cache_gets"] += 1
        counts["exp.cache_hits"] += result is not None

    def install(self) -> "Tracer":
        """Import every ``repro`` module, then wrap the layer boundaries."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        from repro.control import AdaptiveSimulation, DemandEstimator, UpdateCampaign
        from repro.control import plan_update
        from repro.exp import ResultCache, RunJournal, SweepRunner
        from repro.exp import family_names, get_family, register_family
        from repro.routing.base import Router
        from repro.schedules import CircuitSchedule, SornSchedule, build_sorn_schedule
        from repro.sim import SimSession, SlotSimulator, flowlevel, fluid
        from repro.traffic import Workload

        span, bump = self.span, self._bump
        self.function(build_sorn_schedule, span("schedules.build_sorn_schedule"))
        # ``Sorn`` deployments construct their schedule directly.
        self.method(SornSchedule, "__init__", span("schedules.sorn_schedule"))
        self.method(
            CircuitSchedule,
            "dest_table",
            span("schedules.dest_table", self._count_table),
        )
        # Per-node slot rows, materialized slot by slot (the planner's diff).
        self.method(CircuitSchedule, "node_row", span("schedules.node_row"))
        self.method(
            Workload,
            "generate",
            span("traffic.generate", bump("traffic.flows", lambda a, r: len(r))),
        )
        self.method(
            Router,
            "paths_batch",
            span("routing.paths_batch", bump("routing.paths", lambda a, r: len(r[1]))),
        )
        self.method(SlotSimulator, "start", span("sim.start", self._count_start))
        self.method(SimSession, "_advance", span("sim.advance"))
        self.method(SimSession, "run_segment", span("sim.run_segment"))
        self.method(SimSession, "finish", span("sim.finish", self._count_finish))
        self.method(
            SimSession, "swap_schedule", span("sim.swap_schedule", bump("sim.swaps"))
        )
        self.method(SimSession, "demand_snapshot", span("sim.demand_snapshot"))
        self.function(
            fluid.saturation_throughput,
            span("fluid.saturation_throughput", bump("fluid.calls")),
        )
        self.method(flowlevel.FlowLevelModel, "__init__", span("flowlevel.build"))
        self.function(flowlevel.sample_flow_arrays, span("flowlevel.sample"))
        self.method(
            flowlevel.FlowLevelModel,
            "evaluate",
            span("flowlevel.evaluate", bump("flowlevel.flows", lambda a, r: len(a[1]))),
        )
        self.method(
            AdaptiveSimulation,
            "run",
            span("control.run", bump("control.epochs", lambda a, r: len(r.epochs))),
        )
        self.method(DemandEstimator, "observe", span("control.observe"))
        self.method(DemandEstimator, "estimate", span("control.estimate"))
        self.function(plan_update, span("control.plan_update"))
        self.method(
            UpdateCampaign,
            "maybe_apply",
            span(
                "control.maybe_apply",
                bump("control.retunes", lambda a, r: r is not None),
            ),
        )
        self.method(
            UpdateCampaign,
            "force_update",
            span("control.force_update", bump("control.retunes")),
        )
        self.method(SweepRunner, "run", span("exp.run"))
        self.method(ResultCache, "get", span("exp.cache_get", self._count_get))
        self.method(ResultCache, "put", span("exp.cache_put", bump("exp.cache_puts")))
        for attr in ("open", "record_done", "close"):
            self.method(RunJournal, attr, span("exp.journal"))
        # Families are resolved by name at call time; re-registering each
        # with a wrapped ``run`` gives the family body a span of its own.
        for name in family_names():
            family = get_family(name)
            self._families.append(family)
            register_family(
                name,
                span("exp.family")(family.run),
                run_batch=family.run_batch,
                version=family.version,
                shared_payload=family.shared_payload,
            )
        return self

    def uninstall(self) -> None:
        from repro.exp import register_family

        super().uninstall()
        while self._families:
            family = self._families.pop()
            register_family(
                family.name,
                family.run,
                run_batch=family.run_batch,
                version=family.version,
                shared_payload=family.shared_payload,
            )

    def metrics(self, wall_s: float) -> dict:
        return layer_metrics(self.spans, self.counts, wall_s)

    def write(self, path) -> None:
        """Write every span as one JSON line (once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
