"""TrafficMatrix: validation, normalization, structure metrics."""

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.topology import CliqueLayout
from repro.traffic import TrafficMatrix, uniform_matrix


def small():
    rates = np.zeros((4, 4))
    rates[0, 1] = 0.5
    rates[1, 0] = 0.25
    rates[2, 3] = 1.0
    return TrafficMatrix(rates)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(np.zeros((2, 3)))

    def test_rejects_negative(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = -1
        with pytest.raises(TrafficError):
            TrafficMatrix(rates)

    def test_rejects_self_traffic(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(np.eye(3))

    def test_rejects_nan(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = np.nan
        with pytest.raises(TrafficError):
            TrafficMatrix(rates)

    def test_rejects_tiny(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(np.zeros((1, 1)))

    def test_immutable(self):
        m = small()
        with pytest.raises(ValueError):
            m.rates[0, 1] = 2.0

    @pytest.mark.parametrize(
        "entry, message",
        [
            (np.nan, "must be finite"),
            (np.inf, "must be finite"),
            (-np.inf, "must be finite"),
            (-1.0, "must be non-negative"),
        ],
    )
    def test_error_messages(self, entry, message):
        """Each defect names itself, a non-finite entry before a
        negative one, whichever constructor the matrix comes from."""
        rates = np.zeros((3, 3))
        rates[0, 1] = entry
        rates[1, 0] = -2.0
        for build in (TrafficMatrix, TrafficMatrix._adopt):
            with pytest.raises(TrafficError, match=message):
                build(rates.copy())
        with pytest.raises(TrafficError, match="diagonal"):
            TrafficMatrix(np.eye(3))
        with pytest.raises(TrafficError, match="square"):
            TrafficMatrix(np.zeros((2, 3)))

    def test_constructor_copies_caller_input(self):
        """The public constructor never aliases (or freezes) the
        caller's array."""
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        matrix = TrafficMatrix(rates)
        rates[0, 1] = 0.75
        assert matrix.rate(0, 1) == 0.5
        assert rates.flags.writeable
        assert not np.shares_memory(matrix.rates, rates)

    def test_generators_adopt_without_copy(self):
        """``clustered_matrix`` at N=1024 peaks at most 1.5x the
        matrix bytes (the generator's one array plus small scratch; a copy
        or a full-size validation temporary would exceed it), and
        ``scaled`` wraps its product without another copy."""
        import tracemalloc

        from repro.traffic import clustered_matrix

        layout = CliqueLayout.equal(1024, 32)
        nbytes = 1024 * 1024 * 8
        tracemalloc.start()
        tracemalloc.reset_peak()
        matrix = clustered_matrix(layout, 0.56)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        scaled = matrix.scaled(2.0)
        _, scaled_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 1.5 * nbytes, f"peak {peak / 2**20:.1f} MiB"
        assert scaled_peak - nbytes <= 1.5 * nbytes
        assert scaled.rate(0, 1) == 2 * matrix.rate(0, 1)


class TestAccounting:
    def test_totals_and_port_loads(self):
        m = small()
        assert m.total == pytest.approx(1.75)
        assert m.egress().tolist() == [0.5, 0.25, 1.0, 0.0]
        assert m.ingress().tolist() == [0.25, 0.5, 0.0, 1.0]
        assert m.max_port_load() == pytest.approx(1.0)

    def test_admissibility(self):
        assert small().is_admissible()
        assert not small().scaled(1.5).is_admissible()

    def test_saturated_peak_is_one(self):
        m = small().scaled(0.2).saturated()
        assert m.max_port_load() == pytest.approx(1.0)

    def test_saturate_zero_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(np.zeros((3, 3))).saturated()

    def test_normalized_total_is_one(self):
        assert small().normalized().total == pytest.approx(1.0)

    def test_scaled_rejects_negative(self):
        with pytest.raises(TrafficError):
            small().scaled(-1)


class TestMixing:
    def test_mixed_with_weights(self):
        a = uniform_matrix(4)
        b = small().saturated()
        mixed = a.mixed_with(b, 0.25)
        expected = 0.75 * a.rates + 0.25 * b.rates
        assert np.allclose(mixed.rates, expected)

    def test_mix_size_mismatch(self):
        with pytest.raises(TrafficError):
            uniform_matrix(4).mixed_with(uniform_matrix(5), 0.5)

    def test_mix_weight_bounds(self):
        with pytest.raises(TrafficError):
            uniform_matrix(4).mixed_with(uniform_matrix(4), 1.5)


class TestStructureMetrics:
    def test_locality(self):
        layout = CliqueLayout.equal(4, 2)
        m = small()  # (0,1) and (1,0) intra = 0.75; (2,3) intra = 1.0
        assert m.locality(layout) == pytest.approx(1.0)

    def test_aggregate(self):
        layout = CliqueLayout.equal(4, 2)
        agg = small().aggregate(layout)
        assert agg[0, 0] == pytest.approx(0.75)
        assert agg[1, 1] == pytest.approx(1.0)

    def test_pair_distribution_sums_to_one(self):
        dist = small().pair_distribution()
        assert dist.sum() == pytest.approx(1.0)

    def test_pair_distribution_zero_matrix(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(np.zeros((3, 3))).pair_distribution()

    def test_skew_uniform_is_one(self):
        assert uniform_matrix(6).skew() == pytest.approx(1.0)

    def test_skew_hotspot_large(self):
        assert small().skew() > 2.0

    def test_equality(self):
        assert uniform_matrix(4) == uniform_matrix(4)
        assert uniform_matrix(4) != small()
