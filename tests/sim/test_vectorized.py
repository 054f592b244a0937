"""Differential tests: the vectorized engine must reproduce the reference
engine exactly — same reports, same per-slot traces — on every supported
configuration axis (routers, priority lanes, drain, presample chunk
sizes), including a reduced-scale Fig 2f setup.
"""

import numpy as np
import pytest

from repro.analysis import optimal_q
from repro.errors import SimulationError
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    PhaseProfiler,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    TraceRecorder,
)
from repro.topology import CliqueLayout
from repro.traffic import WEB_SEARCH, FlowSpec, Workload, clustered_matrix, uniform_matrix

def _uniform_flows(num_nodes, seed, duration=250, load=0.4):
    workload = Workload(uniform_matrix(num_nodes), WEB_SEARCH, load=load, cell_bytes=4096.0)
    return workload.generate(duration, rng=np.random.default_rng(seed))


def _combo_rr_vlb():
    return (
        RoundRobinSchedule(16, num_planes=2),
        VlbRouter(16),
        dict(drain=True),
        16,
    )


def _sorn_combo(**cfg):
    """A 32-node, 4-clique SORN fabric (q=3) run with config *cfg*
    (``chunk_cells`` sets the presample chunk size, see :func:`_run`)."""

    def combo():
        layout = CliqueLayout.equal(32, 4)
        return (
            build_sorn_schedule(32, 4, q=3, layout=layout),
            SornRouter(layout),
            cfg,
            32,
        )

    return combo


COMBOS = {
    "rr-vlb-drain": _combo_rr_vlb,
    "sorn-default": _sorn_combo(),
    "sorn-short-priority": _sorn_combo(short_flow_threshold_cells=8, drain=True),
    "sorn-drain": _sorn_combo(drain=True, max_drain_slots=400),
    # Presample chunks far smaller than the run: refills every few cells.
    "sorn-chunk13": _sorn_combo(chunk_cells=13),
    "sorn-chunk5-drain": _sorn_combo(chunk_cells=5, drain=True, max_drain_slots=400),
}


def _run(combo, engine, seed, duration=250, measure_from=80, **overrides):
    """Run *combo* on *engine*; a ``chunk_cells`` entry in its config or
    in *overrides* patches :data:`repro.sim.vectorized.
    PRESAMPLE_CHUNK_CELLS` for the run."""
    from repro.sim import vectorized as V

    schedule, router, cfg, n = combo()
    cfg = {**cfg, **overrides}
    chunk_cells = cfg.pop("chunk_cells", None)
    flows = _uniform_flows(n, seed, duration=duration)
    tracer = TraceRecorder(stride=5)
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(engine=engine, telemetry=TelemetryHub([tracer]), **cfg),
        rng=np.random.default_rng(seed + 1),
    )
    with pytest.MonkeyPatch.context() as patch:
        if chunk_cells is not None:
            patch.setattr(V, "PRESAMPLE_CHUNK_CELLS", chunk_cells)
        report = sim.run(flows, duration, measure_from=measure_from)
    return report, tracer


class TestDifferentialEquality:
    @pytest.mark.parametrize("combo", sorted(COMBOS), ids=sorted(COMBOS))
    @pytest.mark.parametrize("seed", [7, 42])
    def test_reports_and_traces_identical(self, combo, seed):
        """Same seed, same workload: the two engines must agree on the
        full report (delivered counts, FCT lists, occupancy statistics)
        and on every sampled trace point."""
        ref_report, ref_trace = _run(COMBOS[combo], "reference", seed)
        vec_report, vec_trace = _run(COMBOS[combo], "vectorized", seed)
        assert vec_report == ref_report
        assert vec_trace.points == ref_trace.points
        # Sanity: the runs actually exercised the fabric.
        assert ref_report.delivered_cells > 0

    def test_fig2f_configuration(self):
        """Reduced-scale Fig 2f setup (SORN schedule at the optimal q for
        x=0.56, clustered web-search traffic, saturation methodology):
        both engines produce the identical report."""
        x = 0.56
        schedule = build_sorn_schedule(32, 4, q=optimal_q(x))
        matrix = clustered_matrix(schedule.layout, x)
        workload = Workload(matrix, WEB_SEARCH, load=1.4, cell_bytes=150_000)
        flows = workload.generate(600, rng=11)
        reports = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                schedule,
                SornRouter(schedule.layout),
                SimConfig(engine=engine),
                rng=5,
            )
            reports[engine] = sim.run(flows, 600, measure_from=150)
        assert reports["vectorized"] == reports["reference"]
        assert reports["reference"].window_delivered > 0


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(engine="warp-drive")

    def test_default_is_reference(self):
        assert SimConfig().engine == "reference"


class TestLinkedVoqState:
    def test_accessors_track_qlen(self):
        from repro.sim import LinkedVoqState

        state = LinkedVoqState(4, num_lanes=2)
        r01, r12 = state.rank(0, 1), state.rank(1, 2)
        state.qlen[0, r01] = 2
        state.qlen[1, r12] = 1
        state.credit(3)
        assert state.total_occupancy == 3
        assert state.queue_length(0, 1) == 2
        assert state.queue_length(1, 2) == 1
        assert state.queue_length(2, 3) == 0  # never ranked
        assert state.max_voq_length() == 2
        assert state.node_backlog(0) == 2
        assert state.backlogs() == [2, 1, 0, 0]
        state.debit(1)
        assert state.total_occupancy == 2

    def test_ranks_only_grow(self):
        """New neighbors take their node's next ranks in ascending order
        (repeats share one), old ranks never move, rows widen when full,
        and lookups see through the out-of-order growth."""
        from repro.sim import LinkedVoqState

        state = LinkedVoqState(10)
        assert state.ranks([0, 0, 1, 0], [5, 3, 2, 5]).tolist() == [1, 0, 0, 1]
        assert state.ranks_per_node == 2
        r05 = state.rank(0, 5)
        state.qlen[0, r05] = 4
        assert state.ranks([0, 0, 0], [1, 9, 3]).tolist() == [2, 3, 0]
        assert state.ranks_per_node == 4
        assert state.nbr[0].tolist() == [3, 5, 1, 9]
        assert state.ranks([0] * 4, [1, 3, 5, 9]).tolist() == [2, 0, 1, 3]
        assert state.queue_length(0, 5) == 4  # survived the widening
        assert state.queue_length(0, 7) == 0  # never ranked
        with pytest.raises(SimulationError, match="outside"):
            state.ranks([0], [10])

    def test_validation(self):
        from repro.sim import LinkedVoqState

        with pytest.raises(SimulationError):
            LinkedVoqState(1)
        with pytest.raises(SimulationError):
            LinkedVoqState(4, num_lanes=0)


def _count_repairs(monkeypatch):
    """Send every plane through the array walk (cutoff 0) and count
    calls to the in-place cascade repair."""
    from repro.sim import vectorized as V

    calls = {"repair": 0}
    orig = V.VectorizedSession._repair_cascades

    def counting(self, *args, **kwargs):
        calls["repair"] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(V, "SEQ_CUTOFF", 0)
    monkeypatch.setattr(V.VectorizedSession, "_repair_cascades", counting)
    return calls


class TestCascadeRepair:
    """The repair tier serves planes above the sequential kernel's size
    cutoff; these fabrics are below it, so the tests pin the cutoff to
    0 to keep every plane on the array walk."""

    @staticmethod
    def _saturated_vlb(**config):
        """A saturated 32-node, 4-plane VLB run (load 1.3, 220 slots)."""
        n = 32
        workload = Workload(
            uniform_matrix(n), WEB_SEARCH, load=1.3, cell_bytes=4096.0
        )
        flows = workload.generate(220, rng=np.random.default_rng(3))
        sim = SlotSimulator(
            RoundRobinSchedule(n, num_planes=4),
            VlbRouter(n),
            SimConfig(drain=True, **config),
            rng=np.random.default_rng(4),
        )
        return sim.run(flows, 220, measure_from=40)

    def test_high_load_vlb_exercises_repair_tier(self, monkeypatch):
        """A saturated multi-plane VLB run with no event consumers must
        route cascade slots through the in-place repair tier (not the
        sequential fallback) and still match the reference engine
        bit-for-bit."""
        calls = _count_repairs(monkeypatch)
        reports = {
            engine: self._saturated_vlb(engine=engine)
            for engine in ("reference", "vectorized")
        }
        assert reports["vectorized"] == reports["reference"]
        assert calls["repair"] > 0, "stress run never hit the cascade-repair tier"

    def test_replay_and_repair_bill_separate_phases(self, monkeypatch):
        """The profiler bills the sequential replay of a cascade plane
        to ``replay`` and the in-place repair to ``repair``: with the
        invariant checker attached (an event consumer) cascade planes
        replay and never repair, without it they repair and never
        replay."""
        from repro.sim import vectorized as V

        monkeypatch.setattr(V, "SEQ_CUTOFF", 0)
        laps, reports = {}, {}
        for checked in (True, False):
            profiler = PhaseProfiler()
            reports[checked] = self._saturated_vlb(
                engine="vectorized",
                check_invariants=checked,
                telemetry=TelemetryHub([profiler]),
            )
            laps[checked] = {
                phase: entry["laps"] for phase, entry in profiler.summary().items()
            }
        assert reports[True] == reports[False]
        assert laps[True].get("replay", 0) > 0, laps[True]
        assert "repair" not in laps[True], laps[True]
        assert laps[False].get("repair", 0) > 0, laps[False]
        assert "replay" not in laps[False], laps[False]

    def test_chained_cascade_wins_advance_correct_position(self, monkeypatch):
        """Regression: a cell that wins several chained cascade hops in
        one slot used to have its position computed from the stale
        pre-pass ``rhop`` (ignoring the advances already recorded this
        pass), skipping the delivery check and over-advancing it past the
        end of its route — the next slot's drain then indexed past the
        route row (IndexError).  A saturated Opera expander run trips
        the chain reliably; both engines must agree bit-for-bit."""
        from repro.exp import factory
        from repro.traffic import FlowSizeDistribution

        calls = _count_repairs(monkeypatch)
        n, slots = 16, 80
        schedule = factory.expander_schedule(n, 4, 1)
        router = factory.opera_router(n, 4, 1)
        workload = Workload(
            factory.clustered(n, 4, 0.56), FlowSizeDistribution.fixed(12), load=1.3
        )
        flows = workload.generate(slots, rng=3)
        reports = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                schedule, router, SimConfig(engine=engine), rng=3
            )
            reports[engine] = sim.run(flows, slots, measure_from=slots // 2)
        assert reports["vectorized"] == reports["reference"]
        assert calls["repair"] > 0, "the run never reached the repair tier"


class TestDrainSelector:
    """A plane's drain kernel follows from its size alone, against
    ``vectorized.SEQ_CUTOFF``: a bank row whose circuits plus a quarter
    of them fit the cutoff is drained whole by the sequential kernel in
    every slot, and a larger row by its live circuits plus that quarter
    — and both kernels reproduce the reference engine.  The choice is
    read off the ``PhaseProfiler``, which laps ``seq`` once per plane
    the sequential kernel drains and ``drain`` once per walked plane."""

    N = 16
    PLANES = 2
    SLOTS = 200

    def _run(self, engine, telemetry=None):
        flows = _uniform_flows(self.N, 5, duration=self.SLOTS, load=1.5)
        sim = SlotSimulator(
            RoundRobinSchedule(self.N, num_planes=self.PLANES),
            VlbRouter(self.N),
            SimConfig(engine=engine, drain=True, telemetry=telemetry),
            rng=np.random.default_rng(6),
        )
        return sim.run(flows, self.SLOTS, measure_from=40)

    def _laps(self, monkeypatch, cutoff):
        """Run the fabric at *cutoff*; returns the report, the slots it
        ran and the ``seq`` and ``drain`` lap counts."""
        from repro.sim import vectorized as V

        monkeypatch.setattr(V, "SEQ_CUTOFF", cutoff)
        profiler = PhaseProfiler()
        report = self._run("vectorized", TelemetryHub([profiler]))
        monkeypatch.undo()
        summary = profiler.summary()
        seq, walk = (
            summary[phase]["laps"] if phase in summary else 0
            for phase in ("seq", "drain")
        )
        return report, report.duration_slots, seq, walk

    def test_whole_rows_drain_sequentially_every_slot(self, monkeypatch):
        """Every round-robin plane matches all 16 nodes: at cutoff 20
        (16 circuits plus 4) each row is sequential on its count, so
        every plane of every slot, live or idle, takes one ``seq`` lap
        and none is walked.  At 19 the rows fall back to the live count,
        which skips the planes with no live circuit."""
        reference = self._run("reference")
        whole, slots, seq, walk = self._laps(monkeypatch, 20)
        assert whole == reference
        assert (seq, walk) == (slots * self.PLANES, 0)
        counted, slots_19, seq_19, walk_19 = self._laps(monkeypatch, 19)
        assert counted == reference
        assert slots_19 == slots
        assert 0 < seq_19 + walk_19 < slots * self.PLANES

    def test_plane_at_cutoff_goes_sequential_and_above_to_walk(self, monkeypatch):
        """Below the whole-row cutoff a plane's size is its live
        circuits plus 4.  The runs are bit-exact, so every plane has the
        same live count at every cutoff: the same planes drain at 7 and
        8, and the planes of size exactly 8 (4 live circuits) go
        sequential at 8 and to the walk at 7."""
        reference = self._run("reference")
        at, slots, seq_8, walk_8 = self._laps(monkeypatch, 8)
        assert at == reference
        assert seq_8 > 0 and walk_8 > 0
        below, _, seq_7, walk_7 = self._laps(monkeypatch, 7)
        assert below == reference
        assert seq_7 + walk_7 == seq_8 + walk_8 < slots * self.PLANES
        moved = seq_8 - seq_7
        assert moved > 0, "no plane landed exactly on the cutoff"
        assert walk_7 - walk_8 == moved
        # Cutoff 4 admits only planes of size 4: none has live circuits.
        _, _, seq_4, walk_4 = self._laps(monkeypatch, 4)
        assert (seq_4, walk_4) == (0, seq_8 + walk_8)

    @pytest.mark.parametrize("combo", sorted(COMBOS), ids=sorted(COMBOS))
    def test_combos_on_the_array_walk(self, combo, monkeypatch):
        """Every differential combo (16 and 32 nodes, under the cutoff
        as shipped) also matches the reference engine with every plane
        and enqueue on the array kernels."""
        from repro.sim import vectorized as V

        ref_report, ref_trace = _run(COMBOS[combo], "reference", 7)
        monkeypatch.setattr(V, "SEQ_CUTOFF", 0)
        vec_report, vec_trace = _run(COMBOS[combo], "vectorized", 7)
        assert vec_report == ref_report
        assert vec_trace.points == ref_trace.points


class TestEnqueueKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_splice_equals_append_cells(self, seed):
        """``enqueue_seq`` over flat memoryviews leaves the same queues
        as ``append_cells`` — heads, tails, links and lengths, onto
        nonempty and empty lanes alike — and reports the same pairs."""
        from repro.sim.kernels import append_cells, enqueue_seq

        rng = np.random.default_rng(seed)
        # 5 nodes with 3 neighbor ranks each: 15 VOQ keys u * 3 + r.
        voqs, lanes, queued, batch = 15, 3, 30, 40

        def cells(count):
            return (
                rng.integers(0, voqs, count).astype(np.int64),
                rng.integers(0, lanes, count).astype(np.int32),
            )

        old, new = cells(queued), cells(batch)
        states = []
        for scalar in (False, True):
            head = np.zeros(lanes * voqs, dtype=np.int32)
            tail = np.zeros_like(head)
            qlen = np.zeros(voqs, dtype=np.int32)
            nxt = np.zeros(1 + queued + batch, dtype=np.int32)
            ids = np.arange(1, 1 + queued, dtype=np.int32)
            append_cells(head, tail, nxt, qlen, ids, *old, lanes)
            if scalar:
                keys = []
                enqueue_seq(
                    memoryview(head),
                    memoryview(tail),
                    memoryview(qlen),
                    memoryview(nxt),
                    1 + queued,
                    *(memoryview(col) for col in new),
                    0,
                    batch,
                    keys,
                )
                touched = set(keys)
            else:
                ids = np.arange(1 + queued, 1 + queued + batch, dtype=np.int32)
                touched = set(append_cells(head, tail, nxt, qlen, ids, *new, lanes).tolist())
            states.append((head, tail, qlen, nxt, touched))
        for array_side, scalar_side in zip(*states):
            if isinstance(array_side, set):
                assert scalar_side == array_side
            else:
                assert scalar_side.tobytes() == array_side.tobytes()


class TestChunkedPresampling:
    """Chunked presampling (``PRESAMPLE_CHUNK_CELLS``) must be
    bit-invisible: the refills draw from the same RNG stream in the same
    order as a whole-run presample, so any chunk size — even one cell at
    a time — reproduces the reference engine exactly."""

    @pytest.mark.parametrize("combo", ["rr-vlb-drain", "sorn-short-priority"])
    @pytest.mark.parametrize("chunk", [1, 97])
    def test_chunk_size_is_invisible(self, combo, chunk):
        """Tiny and misaligned chunk sizes reproduce the reference
        engine's report and trace bit-for-bit."""
        ref_report, ref_trace = _run(COMBOS[combo], "reference", 7)
        vec_report, vec_trace = _run(
            COMBOS[combo], "vectorized", 7, chunk_cells=chunk
        )
        assert vec_report == ref_report
        assert vec_trace.points == ref_trace.points

    def test_cell_tables_sized_once(self, monkeypatch):
        """A cell's id is its row in every per-cell table, and the tables
        are sized for the run's cells when the session starts: with
        five-cell chunks the run refills dozens of times, yet every table
        keeps its start-time object, one row per in-run cell plus the
        unused row 0."""
        from repro.sim import vectorized as V

        monkeypatch.setattr(V, "PRESAMPLE_CHUNK_CELLS", 5)
        schedule, router, cfg, n = COMBOS["sorn-default"]()
        flows = _uniform_flows(n, 3)
        duration = 120  # flows keep arriving after it: those stay out
        in_run = int(flows.size_cells[flows.arrival_slot < duration].sum())
        assert in_run < int(flows.size_cells.sum())
        session = SlotSimulator(
            schedule, router, SimConfig(engine="vectorized", **cfg), rng=4
        ).start(flows, duration)
        names = ("_routes", "_rranks", "_rowlen", "_rhop", "_rfid", "_nxt")
        tables = {name: getattr(session, name) for name in names}
        assert {t.shape[0] for t in tables.values()} == {in_run + 1}
        assert tables["_routes"].shape[1] == router.max_hops + 1
        report = session.finish()
        assert report.injected_cells == in_run > 10 * V.PRESAMPLE_CHUNK_CELLS
        for name, table in tables.items():
            assert getattr(session, name) is table, name


@pytest.mark.scale
class TestMemoryRegression:
    """Peak traced allocation of the memory-lean slot path at N=1024."""

    def test_n1024_peak_allocation_under_budget(self):
        """A short vectorized N=1024 run must stay under the 14 MiB
        budget of ``benchmarks/bench_scale.py`` — catches dtype
        widenings (int64 ``qlen`` or schedule bank) and a return to
        whole-run injection presampling, each of which alone pushes the
        footprint past the budget."""
        import tracemalloc

        budget_bytes = 14 * 2**20
        schedule = build_sorn_schedule(1024, 32, q=optimal_q(0.56))
        router = SornRouter(schedule.layout)
        schedule.compiled()  # compiled outside the trace
        workload = Workload(
            clustered_matrix(schedule.layout, 0.56),
            WEB_SEARCH,
            load=0.3,
            cell_bytes=4096.0,
        )
        slots = 80
        flows = workload.generate(slots, rng=np.random.default_rng(5))
        sim = SlotSimulator(
            schedule, router, SimConfig(engine="vectorized"), rng=6
        )
        tracemalloc.start()
        tracemalloc.reset_peak()
        report = sim.run(flows, slots, measure_from=slots // 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert report.delivered_cells > 0
        assert peak <= budget_bytes, (
            f"N=1024 peak {peak / 2**20:.1f} MiB over the "
            f"{budget_bytes / 2**20:.0f} MiB budget"
        )


class TestPerNeighborVoqs:
    """VOQs addressed by (lane, node, neighbor rank): the schedule's
    neighbors take the first ranks, and a pair it never provides (an
    off-schedule hop, or a neighbor a swapped-in schedule adds) takes
    the next free rank on first sight — the table only grows, widening
    its rows when a node runs out, and both engines still agree."""

    N, CLIQUES = 16, 4

    def _sorn(self, layout):
        return build_sorn_schedule(self.N, self.CLIQUES, q=2.0, layout=layout)

    def _flows(self, slots, seed=5, load=0.9):
        workload = Workload(
            uniform_matrix(self.N), WEB_SEARCH, load=load, cell_bytes=4096.0
        )
        return workload.generate(slots, rng=np.random.default_rng(seed))

    def _sessions(self, schedule, router, flows, slots, **config):
        sessions = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                schedule,
                router,
                SimConfig(engine=engine, check_invariants=True, **config),
                rng=np.random.default_rng(9),
            )
            sessions[engine] = sim.start(flows, slots)
        return sessions

    def _queues(self, network):
        return [
            [network.queue_length(u, v) for v in range(self.N)]
            for u in range(self.N)
        ]

    @pytest.mark.parametrize("cutoff", [0, None])
    def test_vlb_over_sorn_queues_off_schedule_cells(self, cutoff, monkeypatch):
        """VLB routes over a SORN schedule hop between nodes the schedule
        never connects: those cells queue and never drain, both engines
        report them per pair, and the reports match."""
        from repro.sim import vectorized as V

        if cutoff is not None:
            monkeypatch.setattr(V, "SEQ_CUTOFF", cutoff)
        schedule = self._sorn(CliqueLayout.equal(self.N, self.CLIQUES))
        bank, _ = schedule.compiled()
        neighbors = {
            (u, int(v))
            for u, v in zip(np.tile(np.arange(self.N), len(bank)), bank.ravel())
            if v >= 0
        }
        sessions = self._sessions(schedule, VlbRouter(self.N), self._flows(120), 120)
        for session in sessions.values():
            session.run_segment()
        queues = {engine: self._queues(s.network) for engine, s in sessions.items()}
        assert queues["vectorized"] == queues["reference"]
        stuck = [
            queues["reference"][u][v]
            for u in range(self.N)
            for v in range(self.N)
            if (u, v) not in neighbors
        ]
        assert sum(stuck) > 0, "no cell queued off the schedule"
        network = sessions["vectorized"].network
        assert network.ranks_per_node > max(
            sum(1 for pair in neighbors if pair[0] == u) for u in range(self.N)
        )
        reports = {engine: s.finish() for engine, s in sessions.items()}
        assert reports["vectorized"] == reports["reference"]

    def test_swap_to_reclustered_schedule_grows_ranks(self):
        """A mid-run swap to a SORN schedule over a different clique
        assignment adds neighbors: they take new ranks, widening the
        rows (old ranks stay put, so queued cells keep their VOQs), and
        both engines agree on the queues after the swap and on the final
        report — including cells whose old circuits the new schedule no
        longer opens."""
        layout = CliqueLayout.equal(self.N, self.CLIQUES)
        first = self._sorn(layout)
        second = self._sorn(CliqueLayout.random_equal(self.N, self.CLIQUES, rng=1))
        flows = self._flows(160)
        sessions = self._sessions(first, SornRouter(layout), flows, 160, drain=True)
        vec = sessions["vectorized"]
        for session in sessions.values():
            session.run_segment(70)
        before = vec.network.nbr.copy()
        for session in sessions.values():
            session.swap_schedule(second)
        after = vec.network.nbr
        assert after.shape[1] > before.shape[1]  # the swap widened the rows
        assert (after[:, : before.shape[1]][before >= 0] == before[before >= 0]).all()
        bank, _ = second.compiled()
        new_pairs = {
            (u, int(v))
            for u, v in zip(np.tile(np.arange(self.N), len(bank)), bank.ravel())
            if v >= 0 and v not in before[u]
        }
        assert new_pairs, "the re-clustered schedule adds no neighbor"
        assert all(v in after[u] for u, v in new_pairs)
        assert self._queues(vec.network) == self._queues(sessions["reference"].network)
        reports = {engine: s.finish() for engine, s in sessions.items()}
        assert reports["vectorized"] == reports["reference"]

    @pytest.mark.parametrize("cutoff", [0, None])
    def test_slot_batch_across_chunks_while_ranks_grow(self, cutoff, monkeypatch):
        """With tiny presample chunks, one slot's injection batch spans
        several chunks, and a chunk's off-schedule hops widen the rank
        rows between two pieces of the batch: the piece already queued
        is re-keyed in place, so max-VOQ, traces and reports match."""
        from repro.sim import vectorized as V

        if cutoff is not None:
            monkeypatch.setattr(V, "SEQ_CUTOFF", cutoff)
        monkeypatch.setattr(V, "PRESAMPLE_CHUNK_CELLS", 5)
        widened_mid_batch = []
        hop_ranks = V.VectorizedSession._hop_ranks

        def spying(self, us, vs):
            pending = bool(self._slot_keys or self._slot_pairs)
            width = self.network.ranks_per_node
            out = hop_ranks(self, us, vs)
            if pending and self.network.ranks_per_node != width:
                # Every VOQ the slot's first pieces filled is still
                # nonempty (drains come after injection), so a re-keyed
                # key must still find cells.
                keys = list(self._slot_keys)
                for touched in self._slot_pairs:
                    keys.extend(touched.tolist())
                widened_mid_batch.append(all(self._qlen[k] > 0 for k in keys))
            return out

        monkeypatch.setattr(V.VectorizedSession, "_hop_ranks", spying)
        schedule = self._sorn(CliqueLayout.equal(self.N, self.CLIQUES))
        flows = self._flows(60, seed=8, load=1.2)
        traces = {}
        reports = {}
        for engine in ("reference", "vectorized"):
            tracer = TraceRecorder(stride=1)
            sim = SlotSimulator(
                schedule,
                VlbRouter(self.N),
                SimConfig(
                    engine=engine,
                    check_invariants=True,
                    telemetry=TelemetryHub([tracer]),
                ),
                rng=np.random.default_rng(2),
            )
            reports[engine] = sim.run(flows, 60)
            traces[engine] = tracer.points
        assert widened_mid_batch, "no rank growth landed inside a slot batch"
        assert all(widened_mid_batch), "a touched VOQ key went stale"
        assert reports["vectorized"] == reports["reference"]
        assert traces["vectorized"] == traces["reference"]


class TestPaperScaleVoqFootprint:
    def test_table1_session_voq_arrays_are_compact(self):
        """A Table 1 (N=4096, Nc=64) vectorized session's VOQ arrays
        total at most 16 MiB after start (dense (L, N, N) cubes were
        320 MiB), and neither the session nor its network holds an
        array as large as an (N, N) int32 grid."""
        n = 4096
        schedule = build_sorn_schedule(n, 64, q=optimal_q(0.56))
        flows = [FlowSpec(0, 0, 1, 3, 0), FlowSpec(1, 70, 5, 2, 1)]
        session = SlotSimulator(
            schedule,
            SornRouter(schedule.layout),
            SimConfig(engine="vectorized", drain=True),
            rng=1,
        ).start(flows, 4)
        voq = [v for v in vars(session.network).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in voq) <= 16 * 2**20
        held = voq + [v for v in vars(session).values() if isinstance(v, np.ndarray)]
        assert max(a.nbytes for a in held) < n * n * 4
        assert session.network.ranks_per_node == 126
        report = session.finish()
        assert report.delivered_cells == 5
