"""Slot-batched driver equivalence: bit-exact at every batch span.

``SimConfig.slot_batch`` is purely a performance knob of the vectorized
engine: the driver advances up to B slots per Python-level iteration,
collapsing to exact per-slot stepping at every boundary that matters
(segment stops, failure edges, chunk refills, the arrival horizon) and
whenever a per-slot observer is attached.  The contract under test here
is that reports, traces, telemetry JSONL and checkpoints are identical
across every batch setting and both engines: an unbatched run is just
spans of one through the same slot body.
"""

import numpy as np
import pytest

from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import (
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    TraceRecorder,
    standard_collectors,
)
from repro.sim.checkpoint import config_digest
from repro.traffic import FlowSpec

SPANS = [1, 2, 3, 7, 64, "auto"]


def make_flows(n=12, count=70, horizon=100, seed=3):
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


def make_fabric(n=12):
    schedule = build_sorn_schedule(n, 3, q=1)
    return schedule, SornRouter(schedule.layout)


def run_report(
    slot_batch,
    timeline=None,
    tracer=False,
    hub=False,
    engine="vectorized",
    **config_kwargs,
):
    schedule, router = make_fabric()
    hub_obj = (
        TelemetryHub(standard_collectors(schedule, bucket_slots=20), stride=4)
        if hub
        else None
    )
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(
            engine=engine,
            slot_batch=slot_batch,
            telemetry=hub_obj,
            **config_kwargs,
        ),
        rng=17,
        timeline=timeline,
    )
    tracer_obj = TraceRecorder(stride=5) if tracer else None
    report = sim.run(make_flows(), 100, measure_from=50, tracer=tracer_obj)
    trace = [
        (p.slot, p.occupancy, p.delivered_cumulative, p.max_voq)
        for p in tracer_obj.points
    ] if tracer_obj else None
    jsonl = hub_obj.dumps_jsonl() if hub_obj else None
    return report, trace, jsonl


class TestBatchedBitExact:
    def test_reports_identical_across_spans_and_kernel_tiers(self):
        """Every slot_batch setting reproduces the reference engine's
        report exactly, whichever drain tier each plane takes."""
        ref, _, _ = run_report(1, engine="reference")
        for span in SPANS:
            got, _, _ = run_report(span)
            assert got == ref, f"diverged at slot_batch={span}"

    def test_failure_edges_land_on_exact_slots(self):
        """Batches never skate over a FailureTimeline edge: masked slots
        run as spans of one at every batch span."""
        timeline = FailureTimeline.node_failure(2, start_slot=13, heal_slot=41)
        ref, _, _ = run_report(1, engine="reference", timeline=timeline)
        for span in SPANS:
            got, _, _ = run_report(span, timeline=timeline)
            assert got == ref, f"slot_batch={span} broke failure masking"

    def test_observers_collapse_but_agree(self):
        """Traced / telemetry runs collapse the batch span; their traces
        and JSONL streams still match the reference engine exactly at
        every configured span."""
        ref, ref_trace, ref_jsonl = run_report(
            1, engine="reference", tracer=True, hub=True
        )
        for span in [1, 7, "auto"]:
            got, trace, jsonl = run_report(span, tracer=True, hub=True)
            assert got == ref
            assert trace == ref_trace
            assert jsonl == ref_jsonl

    @pytest.mark.parametrize("config_kwargs", [
        {"cells_per_circuit": 3},
        {"short_flow_threshold_cells": 2},
        {"per_flow_paths": True},
        {"presample_chunk_cells": 32},
        {"drain": True, "max_drain_slots": 400},
    ])
    def test_config_axes_identical_across_spans(self, config_kwargs):
        """Batching composes with every engine knob, including tiny
        presampling chunks (forced chunk-boundary collapses mid-run)."""
        ref, _, _ = run_report(1, engine="reference", **config_kwargs)
        for span in [1, 4, "auto"]:
            got, _, _ = run_report(span, **config_kwargs)
            assert got == ref, (config_kwargs, span)


class TestBatchedCheckpoints:
    def test_digest_excludes_slot_batch(self):
        """slot_batch is a performance knob: checkpoints written at one
        setting must restore under any other."""
        a = config_digest(SimConfig(engine="vectorized", slot_batch=1))
        b = config_digest(SimConfig(engine="vectorized", slot_batch=64))
        c = config_digest(SimConfig(engine="vectorized", slot_batch="auto"))
        assert a == b == c

    @pytest.mark.parametrize("save_span,resume_span", [(1, 64), (64, 1), ("auto", 3)])
    def test_checkpoint_crosses_batch_settings(self, tmp_path, save_span, resume_span):
        """Save mid-run at one batch span, resume at another: the final
        report matches the uninterrupted unbatched run bit-for-bit."""
        schedule, router = make_fabric()
        flows = make_flows()
        path = str(tmp_path / "batch.ckpt")

        def sim(span, rng=17):
            return SlotSimulator(
                schedule,
                router,
                SimConfig(engine="vectorized", slot_batch=span),
                rng=rng,
            )

        session = sim(save_span).start(flows, 100)
        session.run_segment(37)
        session.save(path)
        resumed = sim(resume_span, rng=999).resume(path, flows)
        while not resumed.main_phase_done:
            resumed.run_segment(11)
        whole = sim(1).start(flows, 100)
        assert resumed.finish() == whole.finish()

    def test_segmented_equals_monolithic_at_every_span(self):
        """Odd segment boundaries force batch collapses at each stop;
        results stay identical to the monolithic run."""
        schedule, router = make_fabric()
        flows = make_flows()

        def run_segmented(span):
            session = SlotSimulator(
                schedule,
                router,
                SimConfig(engine="vectorized", slot_batch=span),
                rng=17,
            ).start(flows, 100)
            for step in (1, 13, 5, 40, 41):
                session.run_segment(step)
            return session.finish()

        mono = SlotSimulator(
            schedule, router, SimConfig(engine="vectorized"), rng=17
        ).run(flows, 100)
        for span in SPANS:
            assert run_segmented(span) == mono, span
