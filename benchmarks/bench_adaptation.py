"""Ablation A5: end-to-end adaptation under a shifting workload (section 5).

Drives the control loop through a workload whose structure shifts (service
mix drifts, then clusters migrate), and verifies the semi-oblivious
promises: q-only retunes are drain-free, reclustering recovers planted
structure, and hysteresis prevents churn under stable demand.
"""

import pytest

from repro.control import UpdateCampaign
from repro.core import AdaptationLoop, Sorn
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix

N, NC = 32, 4


def run_scenario():
    """Three phases: stable x=0.4, drift to x=0.8, then a layout shuffle."""
    loop = AdaptationLoop(
        Sorn.optimal(N, NC, 0.4), alpha=0.6, gain_threshold=0.02, recluster=True
    )
    campaign = UpdateCampaign(loop.deployment.schedule)
    original = loop.deployment.layout
    shuffled = CliqueLayout.random_equal(N, NC, rng=17)
    phases = (
        [clustered_matrix(original, 0.4)] * 3
        + [clustered_matrix(original, 0.8)] * 3
        + [clustered_matrix(shuffled, 0.8)] * 3
    )
    records = []
    for epoch, matrix in enumerate(phases):
        decision = loop.step(matrix)
        record = None
        if decision.applied:
            record = campaign.maybe_apply(epoch, loop.deployment.schedule)
        records.append((epoch, decision, record))
    return loop, campaign, records, shuffled


def test_adaptation_scenario(benchmark, report):
    loop, campaign, records, shuffled = benchmark.pedantic(
        run_scenario, rounds=1, iterations=1
    )
    lines = []
    for epoch, decision, record in records:
        stranded = record.stranded_cells if record else "-"
        lines.append(
            f"epoch {epoch}: applied={decision.applied!s:<5} "
            f"x={decision.estimated_locality:.2f} "
            f"thpt {decision.current_throughput:.2%} -> "
            f"{decision.predicted_throughput:.2%} stranded={stranded}"
        )
    report("A5: adaptation under shifting workload", lines)

    # Phase 1 (stable): at most the bootstrap update fires.
    phase1 = [r for r in records[:3] if r[1].applied]
    assert len(phase1) <= 1

    # Phase 2 (locality drift): the loop retunes and gains throughput.
    phase2 = [r for r in records[3:6] if r[1].applied]
    assert phase2
    assert all(
        r[1].predicted_throughput > r[1].current_throughput for r in phase2
    )

    # Phase 3 (cluster migration): reclustering recovers the shuffle.
    final_groups = {frozenset(g) for g in loop.deployment.layout.groups()}
    assert final_groups == {frozenset(g) for g in shuffled.groups()}

    # The loop settled near the true locality with a finite update count.
    assert loop.deployment.design.locality == pytest.approx(0.8, abs=0.1)
    assert campaign.updates_applied <= 6


def test_synchronous_barrier_motivation(benchmark, report):
    """Section 5: updates are pushed 'synchronously ... within a few
    seconds'.  Why the barrier matters: with only part of the fleet
    switched, sender-driven circuits collide on output ports and both
    circuits die.  Measured transient loss vs the switched fraction."""
    from repro.control import mixed_state_collision_fraction
    from repro.schedules import build_sorn_schedule

    def sweep():
        old = build_sorn_schedule(N, NC, q=3).materialize()
        new = old.rotated(1)  # same period, different per-slot matchings
        rows = []
        for switched in (0, N // 4, N // 2, 3 * N // 4, N):
            loss = mixed_state_collision_fraction(old, new, range(switched))
            rows.append((switched, loss))
        return rows

    rows = benchmark(sweep)
    report(
        "A5: circuit loss during a partially applied update",
        [f"switched {s:>2}/{N}: {loss:.1%} of circuits collide" for s, loss in rows],
    )
    by_count = dict(rows)
    assert by_count[0] == 0.0 and by_count[N] == 0.0
    assert by_count[N // 2] > 0.2  # the mid-update transient is severe


def test_diurnal_tracking(benchmark, report):
    """Section 6 "Other Structural Patterns": the loop follows a diurnal
    locality sinusoid, staying within the band without thrashing."""
    from repro.traffic import DiurnalPattern

    def run():
        loop = AdaptationLoop(
            Sorn.optimal(N, NC, 0.5), alpha=0.7, gain_threshold=0.03,
            recluster=False,
        )
        pattern = DiurnalPattern(
            loop.deployment.layout,
            locality_range=(0.3, 0.8),
            epochs_per_day=12,
            noise=0.05,
        )
        trace = []
        for epoch, matrix in pattern.day(rng=11):
            decision = loop.step(matrix)
            trace.append(
                (epoch, pattern.locality_at(epoch),
                 loop.deployment.design.locality, decision.applied)
            )
        return loop, trace

    loop, trace = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "A5: diurnal locality tracking (12 epochs/day)",
        [
            f"epoch {e:>2}: true x={true:.2f} deployed x={deployed:.2f} "
            f"updated={applied}"
            for e, true, deployed, applied in trace
        ],
    )
    # The deployment's design locality stays inside the diurnal band and
    # the loop updates several times but not every epoch (hysteresis).
    updates = sum(1 for *_, applied in trace if applied)
    assert 2 <= updates < len(trace)
    late = trace[3:]
    assert all(0.25 <= deployed <= 0.85 for _, _, deployed, _ in late)


def test_q_only_adaptation_always_drain_free(benchmark, report):
    """With reclustering disabled, every applied update is drain-free."""

    def run():
        loop = AdaptationLoop(
            Sorn.optimal(N, NC, 0.2), recluster=False, gain_threshold=0.01
        )
        layout = loop.deployment.layout
        plans = []
        for x in [0.3, 0.5, 0.7, 0.9]:
            decision = loop.step(clustered_matrix(layout, x))
            if decision.applied:
                plans.append(decision.update_plan)
        return plans

    plans = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "A5: q-only retunes",
        [p.summary() for p in plans],
    )
    assert plans
    for plan in plans:
        assert plan.is_drain_free
        assert plan.preserves_neighbor_superset
