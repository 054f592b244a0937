#!/usr/bin/env python
"""A day in a semi-oblivious datacenter: the adaptation loop end to end.

Simulates a datacenter whose workload shifts through three regimes —
a steady web/cache/Hadoop mix, a locality surge (batch jobs co-locating),
and a service migration that moves whole clusters — and shows the control
plane observing aggregated matrices, re-clustering, re-tuning q, and
pushing schedule updates whose disruption its update plan counts: the
(node, neighbor) pairs that lose every slot.

Run:  python examples/adaptive_datacenter.py
"""

import numpy as np

from repro.control import UpdateCampaign
from repro.core import AdaptationLoop, Sorn
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix, facebook_cluster_matrix

N, NC = 64, 8


def workload_phases(rng):
    """Nine observation epochs across three regimes."""
    original = CliqueLayout.equal(N, NC)
    migrated = CliqueLayout.random_equal(N, NC, rng=rng)
    phases = []
    # Regime 1: steady facebook-style mix at the trace locality.
    for _ in range(3):
        phases.append(("steady mix", facebook_cluster_matrix(original, rng=rng)))
    # Regime 2: locality surge (batch jobs co-scheduled within cliques).
    for _ in range(3):
        phases.append(("locality surge", clustered_matrix(original, 0.85)))
    # Regime 3: service migration re-shuffles which nodes belong together.
    for _ in range(3):
        phases.append(("migration", clustered_matrix(migrated, 0.85)))
    return phases, migrated


def main():
    rng = np.random.default_rng(42)
    deployment = Sorn.optimal(N, NC, locality=0.5)
    loop = AdaptationLoop(deployment, alpha=0.6, gain_threshold=0.02, recluster=True)
    campaign = UpdateCampaign(deployment.schedule, min_dwell_epochs=1)

    phases, migrated = workload_phases(rng)
    print(f"Initial deployment: {loop.deployment!r}\n")
    print(f"{'epoch':>5} {'regime':<15} {'x-hat':>6} {'thpt now':>9} "
          f"{'thpt new':>9} {'applied':>8} {'retired':>9}")

    for epoch, (regime, matrix) in enumerate(phases):
        decision = loop.step(matrix)
        retired = "-"
        if decision.applied:
            record = campaign.maybe_apply(epoch, loop.deployment.schedule)
            if record is not None:
                retired = str(len(decision.update_plan.retired_neighbor_pairs))
        print(f"{epoch:>5} {regime:<15} {decision.estimated_locality:>6.2f} "
              f"{decision.current_throughput:>9.2%} "
              f"{decision.predicted_throughput:>9.2%} "
              f"{str(decision.applied):>8} {retired:>9}")

    print(f"\nFinal deployment: {loop.deployment!r}")
    final_groups = {frozenset(g) for g in loop.deployment.layout.groups()}
    recovered = final_groups == {frozenset(g) for g in migrated.groups()}
    print(f"Recovered the migrated cluster structure: {recovered}")
    print(f"Total updates applied: {campaign.updates_applied} "
          f"(q-only retunes strand no traffic; layout changes may)")


if __name__ == "__main__":
    main()
