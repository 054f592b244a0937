"""Traffic matrix / flow trace serialization."""

import pytest

from repro.errors import TrafficError
from repro.topology import CliqueLayout
from repro.traffic import (
    FlowSizeDistribution,
    FlowSpec,
    FlowTable,
    Workload,
    clustered_matrix,
    load_flows_csv,
    load_matrix_csv,
    save_flows_csv,
    save_matrix_csv,
    uniform_matrix,
)


class TestMatrixRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        matrix = clustered_matrix(CliqueLayout.equal(16, 4), 0.56)
        path = tmp_path / "demand.csv"
        save_matrix_csv(matrix, path)
        assert load_matrix_csv(path) == matrix

    def test_missing_file(self, tmp_path):
        with pytest.raises(TrafficError):
            load_matrix_csv(tmp_path / "nope.csv")

    def test_corrupted_content(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,banana\n0,0\n")
        with pytest.raises(TrafficError):
            load_matrix_csv(path)

    def test_invalid_matrix_rejected_on_load(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,-1\n1,0\n")
        with pytest.raises(TrafficError):
            load_matrix_csv(path)


class TestFlowTraceRoundtrip:
    def make_flows(self):
        wl = Workload(uniform_matrix(8), FlowSizeDistribution.fixed(3000), load=0.5)
        return wl.generate(100, rng=3)

    def test_roundtrip_exact(self, tmp_path):
        flows = self.make_flows()
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        loaded = load_flows_csv(path)
        assert loaded == flows

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(TrafficError):
            load_flows_csv(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("flow_id,src,dst,size_cells,arrival_slot\n1,2,3\n")
        with pytest.raises(TrafficError):
            load_flows_csv(path)

    def test_non_integer_rejected_with_location(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("flow_id,src,dst,size_cells,arrival_slot\n0,1,2,x,0\n")
        with pytest.raises(TrafficError) as excinfo:
            load_flows_csv(path)
        assert ":2" in str(excinfo.value)

    def test_invalid_flow_rejected(self, tmp_path):
        """Self-flows fail FlowSpec validation on load."""
        path = tmp_path / "flows.csv"
        path.write_text("flow_id,src,dst,size_cells,arrival_slot\n0,1,1,5,0\n")
        with pytest.raises(TrafficError):
            load_flows_csv(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "flows.csv"
        save_flows_csv([], path)
        loaded = load_flows_csv(path)
        assert isinstance(loaded, FlowTable)
        assert len(loaded) == 0

    def test_file_format(self, tmp_path):
        """One header line, then ``row,src,dst,size_cells,arrival_slot``."""
        path = tmp_path / "flows.csv"
        save_flows_csv([FlowSpec(0, 1, 2, 3, 4), FlowSpec(1, 5, 6, 7, 8)], path)
        assert path.read_bytes() == (
            b"flow_id,src,dst,size_cells,arrival_slot\r\n"
            b"0,1,2,3,4\r\n"
            b"1,5,6,7,8\r\n"
        )

    def test_non_positional_ids_rejected_with_location(self, tmp_path):
        """Row *i* of a trace is flow *i*: a repeated id names its line."""
        path = tmp_path / "flows.csv"
        path.write_text(
            "flow_id,src,dst,size_cells,arrival_slot\n0,0,1,4,0\n0,2,3,4,0\n"
        )
        with pytest.raises(TrafficError, match=r":3: flow id 0 is not the row index 1"):
            load_flows_csv(path)
