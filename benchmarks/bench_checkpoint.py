"""Durability overhead: checkpoint save/restore cost vs. simulated work.

Times one :meth:`SimSession.save` / :meth:`SlotSimulator.resume` cycle
against the segment of simulation it protects, and prints the
checkpoint-file size.  The reproduction claim pinned here is modest but
load-bearing for the preemption story: checkpointing a session is cheap
enough to do at every adaptation epoch (a save+resume cycle costs less
than simulating the epoch it would otherwise have to recompute).

The ``scale``-marked paper rung checkpoints the Table 1 fabric (N=4096,
Nc=64 at q*) after 100 of 200 slots.  With dense ``(L, N, N)`` VOQ cubes
that file was 435 MiB and save + resume took 19.4 s, 54x the 0.36 s
segment; the per-neighbor VOQ state saves only nonempty queues.  Its
gates: the file stays within 32 MiB and save + resume within 5.4x the
segment (a tenth of the dense ratio).  Measured in three runs on a
2-vCPU Xeon, each figure the median of a run's three cycles: a 13.7 MiB
file, saves of 149-170 ms and resumes of 232-281 ms, 2.55-2.65x the
segment.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.analysis import optimal_q
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator
from repro.traffic import FlowSizeDistribution, FlowSpec, Workload, clustered_matrix

#: Paper rung gates (module docstring).
PAPER_FILE_MAX_MIB = 32.0
PAPER_CYCLE_OVER_SEGMENT_MAX = 5.4


def make_workload(n, count, horizon, seed=11):
    rng = np.random.default_rng(seed)
    flows = []
    for fid in range(count):
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        flows.append(
            FlowSpec(
                flow_id=fid,
                src=src,
                dst=dst,
                size_cells=int(rng.integers(1, 6)),
                arrival_slot=int(rng.integers(horizon)),
            )
        )
    return flows


def setup(smoke, engine):
    n = 32 if smoke else 64
    cliques = 4
    duration = 200 if smoke else 400
    schedule = build_sorn_schedule(n, cliques, q=1.0)
    router = SornRouter(schedule.layout)
    flows = make_workload(n, 30 * n, int(duration * 0.8))
    config = SimConfig(engine=engine)
    return schedule, router, config, flows, duration


def test_save_resume_cycle(benchmark, report, smoke, engine, tmp_path):
    schedule, router, config, flows, duration = setup(smoke, engine)
    boundary = duration // 2
    path = str(tmp_path / "bench.ckpt")

    def cycle():
        session = SlotSimulator(schedule, router, config, rng=7).start(
            flows, duration
        )
        session.run_segment(boundary)
        session.save(path)
        resumed = SlotSimulator(schedule, router, config, rng=7).resume(
            path, flows
        )
        return resumed.finish()

    result = benchmark(cycle)
    size_kib = os.path.getsize(path) / 1024.0

    # Reference points for the overhead claim, timed inside one sample
    # (pytest-benchmark reports the cycle; these bound its pieces).
    session = SlotSimulator(schedule, router, config, rng=7).start(flows, duration)
    t0 = time.perf_counter()
    session.run_segment(boundary)
    segment_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    session.save(path)
    save_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    SlotSimulator(schedule, router, config, rng=7).resume(path, flows)
    restore_s = time.perf_counter() - t0

    report(
        f"durability: checkpoint cycle ({config.engine})",
        [
            f"segment of {boundary} slots: {segment_s * 1e3:8.2f} ms",
            f"save:                       {save_s * 1e3:8.2f} ms",
            f"restore:                    {restore_s * 1e3:8.2f} ms",
            f"checkpoint size:            {size_kib:8.1f} KiB",
            f"delivered cells:            {result.delivered_cells}",
        ],
    )

    assert result.delivered_cells > 0
    assert size_kib > 0
    if not smoke:
        # The epoch-boundary checkpointing claim: one save+restore costs
        # less than recomputing the protected segment.
        assert save_s + restore_s < segment_s, (
            f"save+restore {save_s + restore_s:.3f}s should undercut the "
            f"{boundary}-slot segment {segment_s:.3f}s"
        )


@pytest.mark.scale
def test_paper_scale_save_resume(report, smoke, tmp_path):
    """Table 1 fabric: checkpoint after 100 of 200 slots, three times;
    medians of the segment, the save and the resume."""
    if smoke:
        pytest.skip("paper-scale rung runs at full scale only")
    schedule = build_sorn_schedule(4096, 64, q=optimal_q(0.56))
    router = SornRouter(schedule.layout)
    flows = Workload(
        clustered_matrix(schedule.layout, 0.56),
        FlowSizeDistribution.fixed(4500),
        load=0.3,
        cell_bytes=1500.0,
    ).generate(200, rng=1)
    config = SimConfig(engine="vectorized")
    path = str(tmp_path / "paper.ckpt")
    segments, saves, restores = [], [], []
    for _ in range(3):
        session = SlotSimulator(schedule, router, config, rng=7).start(flows, 200)
        t0 = time.perf_counter()
        session.run_segment(100)
        segments.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        session.save(path)
        saves.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        resumed = SlotSimulator(schedule, router, config, rng=7).resume(path, flows)
        restores.append(time.perf_counter() - t0)
    size_mib = os.path.getsize(path) / 2**20
    assert resumed.finish() == session.finish()
    segment_s = statistics.median(segments)
    cycle_s = statistics.median(saves) + statistics.median(restores)
    report(
        "durability: paper-scale checkpoint (N=4096, Nc=64, 100 of 200 slots)",
        [
            f"segment of 100 slots:       {segment_s * 1e3:8.1f} ms",
            f"save:                       {statistics.median(saves) * 1e3:8.1f} ms",
            f"restore:                    {statistics.median(restores) * 1e3:8.1f} ms",
            f"save+restore / segment:     {cycle_s / segment_s:8.2f}x",
            f"checkpoint size:            {size_mib:8.1f} MiB",
        ],
    )
    assert size_mib <= PAPER_FILE_MAX_MIB, f"{size_mib:.1f} MiB checkpoint"
    assert cycle_s <= PAPER_CYCLE_OVER_SEGMENT_MAX * segment_s, (
        f"save+restore {cycle_s:.3f}s is {cycle_s / segment_s:.1f}x the "
        f"{segment_s:.3f}s segment (gate {PAPER_CYCLE_OVER_SEGMENT_MAX}x)"
    )
