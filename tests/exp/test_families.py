"""Built-in sweep families: registry surface and the sorn_sim contract.

The four CLI-backed families (table1, fig2f_point, blast_radius,
fig_adaptive/oblivious_baseline) are exercised end-to-end by
``tests/test_cli.py``; here we pin the registry surface and the
``sorn_sim`` family — the one with a ``run_batch`` fast path — whose
batching contract (run_batch bit-identical to per-seed run) is what
lets the runner group seeds safely.
"""

import pytest

from repro.errors import SweepError
from repro.exp import SweepPoint, SweepRunner, family_names, get_family

SORN_SIM_PARAMS = {
    "nodes": 16,
    "cliques": 4,
    "locality": 0.7,
    "load": 0.8,
    "slots": 120,
    "size_cells": 6,
    "telemetry": False,
    "flow_seed": 5,
    "engine": "vectorized",
}


def test_builtin_families_registered():
    names = family_names()
    for expected in (
        "table1",
        "fig2f_point",
        "blast_radius",
        "fig_adaptive",
        "oblivious_baseline",
        "sorn_sim",
    ):
        assert expected in names
    assert get_family("sorn_sim").run_batch is not None
    assert get_family("table1").run_batch is None
    with pytest.raises(SweepError, match="no sweep family"):
        get_family("definitely_not_registered")


def test_sorn_sim_batching_contract():
    """run_batch == per-seed run, and the runner's grouping uses it."""
    points = [SweepPoint("sorn_sim", SORN_SIM_PARAMS, seed=s) for s in (0, 3, 9)]
    batched = SweepRunner(workers=0, batch_seeds=True).run(points)
    solo = SweepRunner(workers=0, batch_seeds=False).run(points)
    assert batched == solo
    assert all(r["report"]["delivered_cells"] > 0 for r in batched)
    # Different seeds genuinely produce different runs.
    assert batched[0]["report"] != batched[1]["report"]


def test_sorn_sim_telemetry_batching_contract():
    """Telemetry snapshots survive batching bit-identically too."""
    params = dict(SORN_SIM_PARAMS, telemetry=True)
    points = [SweepPoint("sorn_sim", params, seed=s) for s in (1, 2)]
    batched = SweepRunner(workers=0, batch_seeds=True).run(points)
    solo = SweepRunner(workers=0, batch_seeds=False).run(points)
    assert batched == solo
    assert all("telemetry" in r and r["telemetry"] for r in batched)


def test_sorn_sim_engines_agree(monkeypatch):
    """A seed-batched ``engine="reference"`` sweep runs the reference
    engine — the vectorized one raises if reached — and equals the
    vectorized sweep."""
    seeds = (0, 4, 9)
    vec = SweepRunner().run(
        [SweepPoint("sorn_sim", SORN_SIM_PARAMS, s) for s in seeds]
    )

    def no_vectorized(*args, **kwargs):
        raise AssertionError("a reference-engine sweep built VectorizedEngine")

    monkeypatch.setattr("repro.sim.vectorized.VectorizedEngine", no_vectorized)
    reference = dict(SORN_SIM_PARAMS, engine="reference")
    ref = SweepRunner(batch_seeds=True).run(
        [SweepPoint("sorn_sim", reference, s) for s in seeds]
    )
    assert ref == vec
