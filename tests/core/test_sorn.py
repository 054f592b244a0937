"""The Sorn facade: design -> schedule/router/evaluation plumbing."""

import pytest

from repro.core import Sorn, SornDesign
from repro.errors import ConfigurationError
from repro.topology import CliqueLayout
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix


@pytest.fixture
def sorn32():
    return Sorn.optimal(num_nodes=32, num_cliques=4, locality=0.56)


class TestConstruction:
    def test_layout_consistency_enforced(self):
        design = SornDesign.optimal(16, 4, 0.5)
        wrong = CliqueLayout.equal(16, 2)
        with pytest.raises(ConfigurationError):
            Sorn(design, layout=wrong)

    def test_default_layout_contiguous(self, sorn32):
        assert sorn32.layout.members(0) == list(range(8))

    def test_schedule_matches_design(self, sorn32):
        assert sorn32.schedule.num_cliques == 4
        assert sorn32.schedule.q == pytest.approx(sorn32.design.q, rel=0.02)

    def test_custom_layout_respected(self):
        layout = CliqueLayout.random_equal(16, 4, rng=1)
        sorn = Sorn.optimal(16, 4, 0.5, layout=layout)
        assert sorn.layout == layout


class TestEvaluation:
    def test_model_consistent_with_design(self, sorn32):
        model = sorn32.model()
        assert model.throughput() == pytest.approx(1 / 2.44, abs=1e-3)

    def test_fluid_throughput_near_theory(self, sorn32):
        matrix = clustered_matrix(sorn32.layout, 0.56)
        result = sorn32.fluid_throughput(matrix)
        assert result.throughput == pytest.approx(1 / 2.44, abs=0.03)

    def test_logical_topology_work_conserving(self, sorn32):
        topo = sorn32.logical_topology()
        assert topo.egress_fraction(0) == pytest.approx(1.0)

    def test_simulate_runs(self, sorn32):
        matrix = clustered_matrix(sorn32.layout, 0.56)
        wl = Workload(matrix, FlowSizeDistribution.fixed(6000), load=0.3)
        flows = wl.generate(400, rng=1)
        report = sorn32.simulate(flows, 400, rng=2)
        assert report.delivered_cells > 0

    def test_wavelength_program_compiles(self, sorn32):
        program = sorn32.wavelength_program()
        assert program.num_nodes == 32


class TestReconfiguration:
    def test_update_plan_q_only_drain_free(self, sorn32):
        target = Sorn.optimal(32, 4, 0.9, layout=sorn32.layout)
        plan = sorn32.update_plan(target)
        assert plan.is_drain_free
        assert plan.preserves_neighbor_superset

    def test_update_plan_layout_change_disruptive(self, sorn32):
        layout = CliqueLayout.random_equal(32, 4, rng=9)
        plan = sorn32.update_plan(Sorn.optimal(32, 4, 0.56, layout=layout))
        assert not plan.preserves_neighbor_superset

    def test_repr_mentions_design(self, sorn32):
        assert "Nc=4" in repr(sorn32)
