"""The pluggable telemetry subsystem: hub, collectors, engine wiring."""

import json

import pytest

from repro.analysis import optimal_q
from repro.errors import SimulationError, TelemetryError
from repro.routing import SornRouter
from repro.schedules import ExpanderSchedule, build_sorn_schedule
from repro.sim import (
    HopCountCollector,
    LinkUtilizationCollector,
    PhaseProfiler,
    SimConfig,
    SlotSimulator,
    TelemetryCollector,
    TelemetryHub,
    TraceRecorder,
    circuit_class_capacity,
    standard_collectors,
)
from repro.topology import CliqueLayout
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix


def small_setup(n=16, nc=4, x=0.5, load=0.8, slots=120, seed=3):
    schedule = build_sorn_schedule(n, nc, q=optimal_q(x))
    matrix = clustered_matrix(schedule.layout, x)
    workload = Workload(matrix, FlowSizeDistribution.fixed(30), load=load)
    flows = workload.generate(slots, rng=seed)
    return schedule, flows, slots, seed


def run_with_hub(engine="reference", stride=1, **kwargs):
    schedule, flows, slots, seed = small_setup(**kwargs)
    hub = TelemetryHub(standard_collectors(schedule), stride=stride)
    sim = SlotSimulator(
        schedule,
        SornRouter(schedule.layout),
        SimConfig(engine=engine, telemetry=hub),
        rng=seed,
    )
    report = sim.run(flows, slots)
    return hub, report


class TestHubValidation:
    def test_duplicate_names_rejected(self):
        layout = CliqueLayout.equal(8, 2)
        hub = TelemetryHub([LinkUtilizationCollector(layout)])
        with pytest.raises(TelemetryError, match="duplicate"):
            hub.register(LinkUtilizationCollector(layout))

    def test_unknown_stream_rejected(self):
        class Bad(TelemetryCollector):
            name = "bad"
            consumes = frozenset({"teleport"})

        with pytest.raises(TelemetryError, match="unknown streams"):
            TelemetryHub([Bad()])

    def test_nameless_collector_rejected(self):
        class Bad(TelemetryCollector):
            name = ""

        with pytest.raises(TelemetryError, match="name"):
            TelemetryHub([Bad()])

    def test_get_unknown_name(self):
        with pytest.raises(TelemetryError, match="no collector"):
            TelemetryHub().get("missing")

    def test_config_rejects_non_hub(self):
        with pytest.raises(SimulationError):
            SimConfig(telemetry="not a hub")

    def test_stride_validated(self):
        with pytest.raises(Exception):
            TelemetryHub(stride=0)


class TestNoopDetection:
    def test_empty_hub_is_noop(self):
        assert TelemetryHub().is_noop

    def test_consuming_collector_breaks_noop(self):
        hub = TelemetryHub([HopCountCollector()])
        assert not hub.is_noop
        assert hub.wants_deliveries
        assert not hub.wants_transmits
        assert not hub.wants_samples

    def test_profiler_alone_is_not_noop(self):
        # Profiler consumes no streams but engines must still lap timers.
        hub = TelemetryHub([PhaseProfiler()])
        assert not hub.is_noop
        assert hub.profiler is not None

    def test_noop_hub_run_matches_no_hub(self):
        schedule, flows, slots, seed = small_setup()
        router = SornRouter(schedule.layout)
        plain = SlotSimulator(schedule, router, SimConfig(), rng=seed)
        noop = SlotSimulator(
            schedule, router, SimConfig(telemetry=TelemetryHub()), rng=seed
        )
        assert plain.run(flows, slots) == noop.run(flows, slots)


class TestCollectors:
    def test_link_utilization_counts_and_split(self):
        hub, report = run_with_hub()
        util = hub.get("link_utilization")
        # Every delivered cell's hops show up as link traversals; queued
        # cells may add partial-path traversals on top.
        assert util.total_cells >= report.delivered_cells
        intra, inter = util.traversal_split()
        assert intra + inter == pytest.approx(1.0)
        assert 0 < intra < 1
        assert sum(r["cells"] for r in util.rows()) == util.total_cells

    def test_split_tracks_provisioned_capacity(self):
        # At q = q*(x) the measured traversal split approaches the
        # schedule's q/(q+1) provisioning split (finite-size slack).
        hub, _ = run_with_hub(slots=400, n=32, nc=4)
        util = hub.get("link_utilization")
        schedule, *_ = small_setup(n=32, nc=4)
        intra_cap, inter_cap = circuit_class_capacity(schedule, schedule.layout)
        provisioned = intra_cap / (intra_cap + inter_cap)
        measured, _ = util.traversal_split()
        assert measured == pytest.approx(provisioned, abs=0.08)

    def test_voq_heatmap_shape_and_stride(self):
        hub, _ = run_with_hub(stride=10, slots=120)
        heat = hub.get("voq_heatmap")
        matrix = heat.matrix()
        assert matrix.shape == (12, 4)
        assert heat.sample_slots() == list(range(0, 120, 10))
        assert (matrix >= 0).all()

    def test_hop_histogram_matches_report(self):
        hub, report = run_with_hub()
        hops = hub.get("hop_histogram")
        hist = hops.histogram()
        assert sum(hist.values()) == report.delivered_cells
        assert hops.mean_hops() == pytest.approx(report.mean_hops)
        # SORN paths are 1..3 hops.
        assert set(hist) <= {1, 2, 3}

    def test_phase_attribution_totals(self):
        hub, report = run_with_hub()
        phase = hub.get("phase_attribution")
        assert sum(phase.delivered_by_phase()) == report.delivered_cells
        assert sum(r["delivered"] for r in phase.rows()) == report.delivered_cells

    def test_profiler_records_engine_phases(self):
        schedule, flows, slots, seed = small_setup()
        hub = TelemetryHub([PhaseProfiler()])
        sim = SlotSimulator(
            schedule,
            SornRouter(schedule.layout),
            SimConfig(telemetry=hub),
            rng=seed,
        )
        sim.run(flows, slots)
        summary = hub.profiler.summary()
        assert set(summary) == {"inject", "forward", "stats"}
        assert all(row["seconds"] >= 0 for row in summary.values())
        assert sum(row["share"] for row in summary.values()) == pytest.approx(1.0)

    def test_trace_recorder_registers_as_collector(self):
        """The hub's stride gates samples first and the recorder's own
        stride applies on top, without changing the sampled values."""
        schedule, flows, slots, seed = small_setup()

        def traced(hub_stride, trace_stride):
            recorder = TraceRecorder(stride=trace_stride)
            hub = TelemetryHub([recorder], stride=hub_stride)
            SlotSimulator(
                schedule,
                SornRouter(schedule.layout),
                SimConfig(telemetry=hub),
                rng=seed,
            ).run(flows, slots)
            return hub, recorder

        hub, gated = traced(hub_stride=10, trace_stride=4)
        _, every = traced(hub_stride=1, trace_stride=1)
        assert [p.slot for p in gated.points] == list(range(0, slots, 20))
        assert gated.points == [p for p in every.points if p.slot % 20 == 0]
        assert hub.get("trace") is gated
        assert hub.snapshot()["trace"]["points"] == gated.rows()


class TestDeterminism:
    def test_engines_emit_identical_snapshots(self):
        ref, vec = (run_with_hub(engine)[0] for engine in ("reference", "vectorized"))
        assert ref.snapshot() == vec.snapshot()
        assert ref.dumps_jsonl() == vec.dumps_jsonl()

    def test_telemetry_does_not_change_results(self):
        schedule, flows, slots, seed = small_setup()
        router = SornRouter(schedule.layout)
        plain = SlotSimulator(schedule, router, SimConfig(), rng=seed)
        hub = TelemetryHub(standard_collectors(schedule))
        observed = SlotSimulator(
            schedule, router, SimConfig(telemetry=hub), rng=seed
        )
        assert plain.run(flows, slots) == observed.run(flows, slots)

    def test_jsonl_rows_parse_and_tag_collectors(self):
        hub, _ = run_with_hub()
        rows = [json.loads(line) for line in hub.dumps_jsonl().splitlines()]
        assert rows == hub.rows()
        names = {row["collector"] for row in rows}
        assert names == {
            "link_utilization", "voq_heatmap", "hop_histogram",
            "phase_attribution",
        }

    def test_reset_allows_reuse(self):
        schedule, flows, slots, seed = small_setup()
        hub = TelemetryHub(standard_collectors(schedule))
        router = SornRouter(schedule.layout)
        config = SimConfig(telemetry=hub)
        SlotSimulator(schedule, router, config, rng=seed).run(flows, slots)
        first = hub.snapshot()
        hub.reset()
        assert hub.get("link_utilization").total_cells == 0
        SlotSimulator(schedule, router, config, rng=seed).run(flows, slots)
        assert hub.snapshot() == first


class TestExport:
    def test_csv_files_per_collector(self, tmp_path):
        hub, _ = run_with_hub()
        paths = hub.export_csv(tmp_path)
        assert {p.rsplit("/", 1)[-1] for p in paths} == {
            "link_utilization.csv", "voq_heatmap.csv", "hop_histogram.csv",
            "phase_attribution.csv",
        }
        header = (tmp_path / "hop_histogram.csv").read_text().splitlines()[0]
        assert header == "bucket_start,hops,cells"

    def test_jsonl_roundtrip(self, tmp_path):
        hub, _ = run_with_hub()
        path = tmp_path / "telemetry.jsonl"
        hub.export_jsonl(path)
        assert path.read_text() == hub.dumps_jsonl()


class TestCapacityHelper:
    def test_capacity_split_matches_q(self):
        x = 0.5
        q = optimal_q(x)
        schedule = build_sorn_schedule(32, 4, q=q)
        intra, inter = circuit_class_capacity(schedule, schedule.layout)
        assert intra > 0 and inter > 0
        assert intra / (intra + inter) == pytest.approx(q / (q + 1), abs=0.01)

    @pytest.mark.parametrize(
        "schedule",
        [build_sorn_schedule(12, 3, q=2, num_planes=2), ExpanderSchedule(10, 3, seed=1)],
        ids=["sorn-2-planes", "expander"],
    )
    def test_capacity_equals_per_slot_count(self, schedule):
        """Weighting each bank row by its uses equals counting every
        (slot, plane) matching's circuits one at a time."""
        layout = CliqueLayout.equal(schedule.num_nodes, 2)
        assign = layout.assignment()
        counts = [0, 0]
        for t in range(schedule.period):
            for p in range(schedule.num_planes):
                for s, d in schedule.plane_matching(t, p).pairs():
                    counts[int(assign[s] != assign[d])] += 1
        assert circuit_class_capacity(schedule, layout) == tuple(counts)

    def test_layout_mismatch_rejected(self):
        schedule = build_sorn_schedule(16, 4, q=3)
        with pytest.raises(TelemetryError, match="layout covers"):
            circuit_class_capacity(schedule, CliqueLayout.equal(8, 2))
