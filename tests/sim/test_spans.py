"""Slot spans of the vectorized engine, checked against the reference engine.

The vectorized slot loop runs one slot body over spans: a span before
the arrival horizon ends at the nearest of ``slot + SPAN_CAP``, the
horizon and the segment stop; a span in the drain phase is one slot.
Nothing else ends a span — failure windows, presample chunk refills
and observers all run inside one.  Every test here compares against
the reference engine, which has no spans, on exactly those mid-span
events; the ``PhaseProfiler``'s ``forward`` phase is lapped once per
span, so its lap count pins the span rule itself.
"""

import math

import numpy as np
import pytest

from repro.routing import DirectRouter, SornRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    EpochTransitionCollector,
    FailureTimeline,
    PhaseProfiler,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    TraceRecorder,
    standard_collectors,
)
from repro.sim import vectorized
from repro.sim.vectorized import SPAN_CAP
from repro.traffic import FlowSpec

SLOTS = 100


def make_flows(n=12, count=70, horizon=SLOTS, seed=3):
    rng = np.random.default_rng(seed)
    flows = []
    for fid in range(count):
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        flows.append(
            FlowSpec(fid, src, dst, int(rng.integers(1, 6)), int(rng.integers(horizon)))
        )
    return flows


def make_schedule():
    return build_sorn_schedule(12, 3, q=1)


def make_sim(engine, schedule=None, rng=17, timeline=None, **config_kwargs):
    schedule = schedule or make_schedule()
    return SlotSimulator(
        schedule,
        SornRouter(schedule.layout),
        SimConfig(engine=engine, **config_kwargs),
        rng=rng,
        timeline=timeline,
    )


def spans(profiler):
    """Spans the vectorized engine ran: one ``forward`` lap each."""
    return profiler.summary()["forward"]["laps"]


def main_phase_spans(segments):
    """Spans the rule gives a main phase cut at *segments* stops."""
    return sum(math.ceil(length / SPAN_CAP) for length in segments)


class TestSpansMatchReference:
    def test_default_run_matches_reference(self):
        flows = make_flows()
        ref = make_sim("reference").run(flows, SLOTS, measure_from=50)
        profiler = PhaseProfiler()
        got = make_sim("vectorized", telemetry=TelemetryHub([profiler])).run(
            flows, SLOTS, measure_from=50
        )
        assert got == ref
        assert spans(profiler) == main_phase_spans([SLOTS])

    def test_profiler_and_checker_keep_multi_slot_spans(self):
        """A profiling hub plus the invariant checker leave the span
        rule unchanged: the run still matches the reference report."""
        flows = make_flows()
        ref = make_sim("reference").run(flows, SLOTS)
        hub = TelemetryHub([PhaseProfiler(), EpochTransitionCollector()])
        got = make_sim("vectorized", telemetry=hub, check_invariants=True).run(
            flows, SLOTS
        )
        assert got == ref
        assert hub.profiler.summary()["forward"]["laps"] < SLOTS

    def test_failure_window_inside_one_span(self):
        """Faults that open and heal strictly inside one span are masked
        on exactly their slots without ending the span."""
        timeline = FailureTimeline.node_failure(
            2, start_slot=13, heal_slot=41
        ).merged(FailureTimeline.plane_failure(0, start_slot=70, heal_slot=90))
        flows = make_flows()
        ref = make_sim("reference", timeline=timeline).run(flows, SLOTS)
        profiler = PhaseProfiler()
        got = make_sim(
            "vectorized", timeline=timeline, telemetry=TelemetryHub([profiler])
        ).run(flows, SLOTS)
        assert got == ref
        assert spans(profiler) == main_phase_spans([SLOTS])

    def test_chunk_refills_mid_span(self, monkeypatch):
        """With 32-cell presample chunks the refills land mid-span."""
        monkeypatch.setattr("repro.sim.vectorized.PRESAMPLE_CHUNK_CELLS", 32)
        flows = make_flows()
        assert sum(f.size_cells for f in flows) > 4 * 32
        ref = make_sim("reference").run(flows, SLOTS)
        profiler = PhaseProfiler()
        got = make_sim("vectorized", telemetry=TelemetryHub([profiler])).run(
            flows, SLOTS
        )
        assert got == ref
        assert spans(profiler) == main_phase_spans([SLOTS])

    def test_drain_with_full_hub(self):
        """The full collector set and a trace recorder observe every
        slot of the main phase's spans and of the one-slot drain spans
        after it."""
        schedule = make_schedule()
        flows = make_flows()

        def run(engine):
            hub = TelemetryHub(
                standard_collectors(schedule, bucket_slots=20, profile=True)
                + [TraceRecorder(stride=5)],
                stride=2,
            )
            report = make_sim(engine, schedule, telemetry=hub, drain=True).run(
                flows, SLOTS, measure_from=50
            )
            return report, hub

        ref, ref_hub = run("reference")
        got, hub = run("vectorized")
        assert got == ref
        assert hub.dumps_jsonl() == ref_hub.dumps_jsonl()
        assert len(hub.get("trace")) > 0
        drain_slots = got.duration_slots - SLOTS
        assert drain_slots > 0
        assert spans(hub.profiler) == main_phase_spans([SLOTS]) + drain_slots


class TestSpanBoundaries:
    def test_odd_segment_stops(self):
        """Segment stops end spans, and only where the rule says."""
        flows = make_flows()
        segments = (1, 13, 5, 70, 11)
        assert sum(segments) == SLOTS
        ref = make_sim("reference").run(flows, SLOTS)
        profiler = PhaseProfiler()
        session = make_sim(
            "vectorized", telemetry=TelemetryHub([profiler])
        ).start(flows, SLOTS)
        for step in segments:
            session.run_segment(step)
        assert session.finish() == ref
        assert spans(profiler) == main_phase_spans(segments) == 6

    @pytest.mark.parametrize("save_at,resume_step", [(1, 64), (63, 1), (37, 11)])
    def test_save_resume_mid_span(self, tmp_path, save_at, resume_step):
        """Save at a slot no span would end on, resume in a fresh
        simulator and run the rest in *resume_step* segments: report and
        telemetry match the reference engine's uninterrupted run."""
        schedule = make_schedule()
        flows = make_flows()
        path = str(tmp_path / "mid-span.ckpt")

        def hub():
            return TelemetryHub(
                standard_collectors(schedule, bucket_slots=20)
                + [TraceRecorder(stride=3)]
            )

        ref_hub = hub()
        ref = make_sim("reference", schedule, telemetry=ref_hub).run(flows, SLOTS)

        session = make_sim("vectorized", schedule, telemetry=hub()).start(
            flows, SLOTS
        )
        session.run_segment(save_at)
        session.save(path)
        del session
        resumed_hub = hub()
        resumed = make_sim(
            "vectorized", schedule, rng=999, telemetry=resumed_hub
        ).resume(path, flows)
        while not resumed.main_phase_done:
            resumed.run_segment(resume_step)
        assert resumed.finish() == ref
        assert resumed_hub.dumps_jsonl() == ref_hub.dumps_jsonl()


class TestSpanDeliveryBuffer:
    """Every drain of a span writes into one delivery buffer sized for
    the worst case: one cell per circuit, plane and slot of a
    ``SPAN_CAP``-long span, capped by the run's cells."""

    N, PLANES, CELLS = 6, 3, 100

    @pytest.mark.parametrize(
        "flows", [[], [FlowSpec(0, 0, 1, 3, SLOTS + 5)]], ids=["none", "late"]
    )
    def test_run_without_cells(self, flows):
        """A run that injects no cell sizes the buffer at zero and still
        runs every slot."""
        ref = make_sim("reference").run(flows, SLOTS)
        got = make_sim("vectorized").run(flows, SLOTS)
        assert got == ref
        assert got.duration_slots == SLOTS

    @pytest.mark.parametrize("cutoff", ["default", "walk"])
    def test_every_circuit_delivers_every_slot(self, monkeypatch, cutoff):
        """Round robin on three planes matches every node on every plane
        in every slot, and one-hop routing delivers every pop: with a
        burst at slot 0 far above what a span carries, the first span
        fills the buffer to its bound, on the sequential kernel and on
        the array walk alike, and both engines agree on the report and
        the trace."""
        if cutoff == "walk":
            monkeypatch.setattr(vectorized, "SEQ_CUTOFF", 0)
        n = self.N
        pairs = [(src, dst) for src in range(n) for dst in range(n) if src != dst]
        flows = [
            FlowSpec(fid, src, dst, self.CELLS, 0) for fid, (src, dst) in enumerate(pairs)
        ]
        bound = SPAN_CAP * self.PLANES * n
        assert len(flows) * self.CELLS > 2 * bound

        def run(engine):
            recorder = TraceRecorder()
            sim = SlotSimulator(
                RoundRobinSchedule(n, num_planes=self.PLANES),
                DirectRouter(n),
                SimConfig(engine=engine, drain=True, telemetry=TelemetryHub([recorder])),
                rng=5,
            )
            session = sim.start(flows, 2 * SPAN_CAP)
            first = session.run_segment(SPAN_CAP)
            return session, first, session.finish(), recorder

        ref_session, ref_first, ref, ref_trace = run("reference")
        session, first, got, trace = run("vectorized")
        assert session._dbuf.shape[0] == bound
        assert first.delivered_cells == ref_first.delivered_cells == bound
        assert got == ref
        assert got.delivered_cells == len(flows) * self.CELLS
        assert trace.points == ref_trace.points
