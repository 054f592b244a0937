"""The array flow table and the samplers that fill it, against oracles
that are not the array code.

- ``Workload.generate`` is compared with a per-flow loop kept here: the
  pairs drawn by ``Generator.choice``, the sizes by the scalar
  ``FlowSizeDistribution.quantile``, one ``FlowSpec`` per flow.  Rows
  and the generator's final state must match, so the sorted-key pair
  draw consumes and returns exactly what ``choice`` would.  If numpy
  ever changes ``choice``'s algorithm this fails; the fix is then to go
  back to ``choice``, not to regenerate goldens.
  The oracle also runs with the pair CDF's block size patched to 1, 7
  and 64, so carries, searches across blocks and CDF plateaus that
  cross a block boundary are all exercised; the block search is also
  checked directly against one search of the whole CDF.
- ``FlowSizeDistribution.sample`` and ``mean_size`` are compared with
  the scalar ``quantile`` byte for byte.
- ``drifting_locality_flows`` is compared with a ``dataclasses.replace``
  loop over the per-phase tables.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.exp import drifting_locality_flows
from repro.sim.checkpoint import flows_digest
from repro.topology import CliqueLayout
from repro.traffic import flowsize as flowsize_module
from repro.traffic import workload as workload_module
from repro.traffic import (
    DATA_MINING,
    WEB_SEARCH,
    FlowSizeDistribution,
    FlowSpec,
    FlowTable,
    Workload,
    clustered_matrix,
    hotspot_matrix,
    skewed_matrix,
    uniform_matrix,
)

SEEDS = (1, 7, 201)


def per_flow_generate(workload, duration_slots, gen):
    """Workload.generate as a per-flow loop over ``Generator.choice``
    and the scalar quantile."""
    n = workload.num_nodes
    counts = gen.poisson(workload.arrivals_per_slot, size=duration_slots)
    total = int(counts.sum())
    if total == 0:
        return []
    pairs = gen.choice(n * n, size=total, p=workload.matrix.pair_distribution())
    sizes = np.array(
        [workload.flow_sizes.quantile(u) for u in gen.random(total)]
    )
    cells = np.maximum(1, np.round(sizes / workload.cell_bytes)).astype(np.int64)
    flows = []
    for slot in range(duration_slots):
        for _ in range(int(counts[slot])):
            i = len(flows)
            index = int(pairs[i])
            flows.append(FlowSpec(i, index // n, index % n, int(cells[i]), slot))
    return flows


def _cases():
    """name -> (matrix, size distribution, load, slots)."""
    layout = CliqueLayout.equal(32, 4)
    fixed = FlowSizeDistribution.fixed
    return {
        "uniform-fixed": (uniform_matrix(16), fixed(4500), 0.3, 60),
        "clustered-websearch": (clustered_matrix(layout, 0.56), WEB_SEARCH, 0.8, 400),
        "hotspot-datamining": (hotspot_matrix(24, 3, rng=5), DATA_MINING, 0.9, 300),
        "skewed-fixed": (skewed_matrix(20, rng=2), fixed(7500), 0.5, 80),
        "clustered-fixed": (clustered_matrix(layout, 0.9), fixed(1500), 0.4, 50),
        # Arrivals so rare that no flow arrives: nothing is drawn past
        # the Poisson counts.
        "zero-arrivals": (uniform_matrix(8), fixed(1e9), 1e-9, 5),
    }


CASES = _cases()

#: Pair-CDF block sizes the oracle runs with besides the module's own
#: (``None``): one element, a size that divides no matrix here, and one
#: that splits the 32-node cases into a few blocks.
BLOCKS = (None, 1, 7, 64)


def _generate_params():
    for block in BLOCKS:
        for case in sorted(CASES):
            for seed in SEEDS:
                suffix = "" if block is None else f"-block{block}"
                yield pytest.param(case, seed, block, id=f"{case}-{seed}{suffix}")


@pytest.mark.parametrize("case,seed,block", _generate_params())
def test_generate_equals_per_flow_loop(case, seed, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(workload_module, "_CDF_BLOCK", block)
    matrix, sizes, load, slots = CASES[case]
    workload = Workload(matrix, sizes, load=load, cell_bytes=1500.0)
    gen_new = np.random.default_rng(seed)
    gen_old = np.random.default_rng(seed)
    table = workload.generate(slots, rng=gen_new)
    expected = per_flow_generate(workload, slots, gen_old)
    assert isinstance(table, FlowTable)
    assert list(table) == expected
    assert gen_new.bit_generator.state == gen_old.bit_generator.state
    if case == "zero-arrivals":
        assert len(table) == 0


@pytest.mark.parametrize("block", [1, 7, 64, None])
@pytest.mark.parametrize("case", ["clustered-fixed", "hotspot-datamining", "uniform-fixed"])
def test_block_search_equals_whole_cdf_search(case, block, monkeypatch):
    """The blocks rebuild ``np.cumsum`` bit for bit, and the block search
    returns ``searchsorted(side="right")`` on the whole normalized CDF,
    also for uniforms equal to a block's end, to any CDF value (the zero
    diagonal and the hotspot rows make plateaus), or at 0 and 1."""
    if block is not None:
        monkeypatch.setattr(workload_module, "_CDF_BLOCK", block)
    matrix = CASES[case][0]
    workload = Workload(matrix, FlowSizeDistribution.fixed(1500))
    buf = np.empty(min(workload._block, matrix.rates.size))
    rebuilt = np.concatenate(
        [
            workload._block_cumsum(b, buf).copy()
            for b in range(workload._block_ends.size)
        ]
    )
    cdf = matrix.pair_distribution().cumsum()
    assert rebuilt.tobytes() == cdf.tobytes()
    cdf /= cdf[-1]  # the normalized CDF exactly as ``Generator.choice`` builds it
    step = workload._block
    ends = np.append(cdf[step - 1 :: step], cdf[-1])
    u = np.sort(
        np.concatenate(
            [
                [0.0, 1.0],
                ends,
                np.nextafter(ends, 0.0),
                np.nextafter(ends, 1.0),
                cdf,
                np.random.default_rng(5).random(2000),
            ]
        )
    )
    expected = cdf.searchsorted(u, side="right")
    assert np.array_equal(workload._search_pairs(u), expected)


class TestPairCdfMemory:
    def test_workload_holds_no_second_matrix(self):
        """Building an N=2048 workload and drawing 200 slots peaks at most
        1.3x the 32 MiB demand matrix: a whole pair CDF (or any other
        N x N array) beside the matrix would double it."""
        import tracemalloc

        layout = CliqueLayout.equal(2048, 32)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            matrix = clustered_matrix(layout, 0.56)
            workload = Workload(
                matrix, FlowSizeDistribution.fixed(4500), load=0.3, cell_bytes=1500.0
            )
            flows = workload.generate(200, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(flows) > 0
        assert peak <= 1.3 * matrix.rates.nbytes, f"peak {peak / 2**20:.1f} MiB"

    def test_generate_peak_near_its_columns(self):
        """``generate`` peaks at most 1.6x the bytes of the table it
        returns (92,087 flows here): the table adopts the columns built
        for it, and each temporary goes before the next large one.  A
        table that copied the columns would read about 2x."""
        import tracemalloc

        workload = Workload(
            uniform_matrix(256), FlowSizeDistribution.fixed(1500), load=0.9
        )
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            flows = workload.generate(400, rng=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(flows, name).nbytes
            for name in ("src", "dst", "size_cells", "arrival_slot")
        )
        assert len(flows) == 92_087
        assert peak <= 1.6 * columns, f"peak {peak / columns:.2f}x the columns"


def test_cases_draw_flows():
    """Every case but the empty one actually exercises the pair draw."""
    for case, (matrix, sizes, load, slots) in CASES.items():
        flows = Workload(matrix, sizes, load=load).generate(slots, rng=1)
        assert (len(flows) == 0) == (case == "zero-arrivals")


def _knotted_u(dist, count, seed):
    """0, 1, every knot, and *count* uniforms."""
    return np.concatenate(
        [[0.0, 1.0], dist._cdfs, np.random.default_rng(seed).random(count)]
    )


OFFSET_CDF = FlowSizeDistribution(
    [(2000, 0.25), (9000, 0.5), (40000, 0.5), (90000, 1.0)], name="offset"
)
DISTRIBUTIONS = {
    "web-search": WEB_SEARCH,
    "data-mining": DATA_MINING,
    "fixed": FlowSizeDistribution.fixed(4500),
    "first-knot-above-zero": OFFSET_CDF,
}


class TestSizeSampler:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_quantiles_equal_scalar_quantile(self, name):
        """Also across slices: an input of several slices, and one whose
        0, 1 and knot values sit on both sides of a slice boundary."""
        dist = DISTRIBUTIONS[name]
        width = flowsize_module._QUANTILE_SLICE
        rng = np.random.default_rng(4)
        special = _knotted_u(dist, 0, seed=0)
        straddle = np.concatenate(
            [rng.random(width - special.size // 2), special, rng.random(9)]
        )
        for u in (
            _knotted_u(dist, 20_000, seed=3),
            _knotted_u(dist, 2 * width + 123, seed=5),
            straddle,
        ):
            expected = np.array([dist.quantile(x) for x in u])
            assert dist.quantiles(u).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_sample_equals_scalar_quantile(self, name):
        dist = DISTRIBUTIONS[name]
        expected = np.array(
            [dist.quantile(u) for u in np.random.default_rng(11).random(5000)]
        )
        sampled = dist.sample(np.random.default_rng(11), count=5000)
        assert sampled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_mean_size_equals_scalar_grid(self, name):
        dist = DISTRIBUTIONS[name]
        grid = np.linspace(0.0, 1.0, 20001)
        expected = float(np.mean([dist.quantile(u) for u in grid]))
        assert dist.mean_size() == expected

    def test_quantiles_reject_out_of_range(self):
        with pytest.raises(TrafficError, match=r"in \[0, 1\]"):
            WEB_SEARCH.quantiles([0.5, 1.5])
        with pytest.raises(TrafficError):
            WEB_SEARCH.quantiles([math.nan])


def per_phase_replace(layout, phases, slots_per_phase, load, seed):
    """drifting_locality_flows as a ``dataclasses.replace`` loop."""
    flows = []
    for phase, x in enumerate(phases):
        workload = Workload(
            clustered_matrix(layout, x), FlowSizeDistribution.fixed(7500), load=load
        )
        for f in workload.generate(slots_per_phase, rng=seed + phase):
            flows.append(
                dataclasses.replace(
                    f,
                    flow_id=len(flows),
                    arrival_slot=f.arrival_slot + phase * slots_per_phase,
                )
            )
    return flows


def test_drifting_locality_flows_equals_replace_loop():
    layout = CliqueLayout.equal(16, 4)
    args = (layout, [0.3, 0.7, 0.9], 50, 0.5, 1)
    table = drifting_locality_flows(*args)
    assert isinstance(table, FlowTable)
    assert list(table) == per_phase_replace(*args)


def _table(rows):
    return FlowTable(*(np.array(col, dtype=np.int64) for col in zip(*rows)))


ROWS = [(0, 1, 3, 0), (2, 5, 1, 4), (4, 3, 7, 4)]

#: Columns the table refuses, with the error each one raises.
BAD_COLUMNS = {
    "self-flow": (([0, 2], [1, 2], [3, 1], [0, 0]), "endpoints must differ"),
    "zero-size": (([0], [1], [0], [0]), "at least one cell"),
    "negative-arrival": (([0], [1], [1], [-1]), "non-negative"),
    "unequal-lengths": (([0, 1], [1], [1, 1], [0, 0]), "equal lengths"),
    "float-column": (([0], [1], [1.5], [0]), "integers"),
    "two-dimensional": (([[0]], [[1]], [[1]], [[0]]), "one-dimensional"),
}


class TestFlowTable:
    def test_rejects_self_flow(self):
        with pytest.raises(TrafficError, match="endpoints must differ"):
            _table([(0, 1, 3, 0), (2, 2, 1, 0)])

    def test_rejects_zero_size(self):
        with pytest.raises(TrafficError, match="at least one cell"):
            _table([(0, 1, 0, 0)])

    def test_rejects_negative_arrival(self):
        with pytest.raises(TrafficError, match="non-negative"):
            _table([(0, 1, 1, -1)])

    def test_rejects_unequal_columns(self):
        with pytest.raises(TrafficError, match="equal lengths"):
            FlowTable([0, 1], [1], [1, 1], [0, 0])

    def test_rejects_non_integer_columns(self):
        with pytest.raises(TrafficError, match="integers"):
            FlowTable([0], [1], [1.5], [0])

    def test_columns_are_read_only_copies(self):
        src = np.array([0, 2, 4])
        table = FlowTable(src, [1, 5, 3], [3, 1, 7], [0, 4, 4])
        for name in ("src", "dst", "size_cells", "arrival_slot"):
            column = getattr(table, name)
            assert column.dtype == np.int64
            assert column.flags.c_contiguous
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 9
        src[0] = 9  # the caller's array stays the caller's
        assert table.src[0] == 0

    @pytest.mark.parametrize("case", sorted(BAD_COLUMNS))
    def test_adopt_rejects_what_the_constructor_rejects(self, case):
        columns, message = BAD_COLUMNS[case]
        for build in (FlowTable, FlowTable._adopt):
            with pytest.raises(TrafficError, match=message):
                build(*(np.array(column) for column in columns))

    def test_adopt_freezes_the_arrays_it_is_given(self):
        columns = [np.array(column, dtype=np.int64) for column in zip(*ROWS)]
        table = FlowTable._adopt(*columns)
        assert table == _table(ROWS)
        for name, column in zip(("src", "dst", "size_cells", "arrival_slot"), columns):
            assert getattr(table, name) is column
            assert not column.flags.writeable

    def test_copies_stay_frozen(self):
        table = _table(ROWS)
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert copied == table
            assert not copied.src.flags.writeable

    def test_of_round_trips_a_spec_list(self):
        specs = [FlowSpec(i, *row) for i, row in enumerate(ROWS)]
        table = FlowTable.of(specs)
        assert list(table) == specs
        assert FlowTable.of(table) is table
        assert table == _table(ROWS)
        assert len(table) == 3

    def test_of_rejects_non_positional_ids(self):
        """Row *i* is flow *i*; the error names the first bad row."""
        specs = [FlowSpec(0, 0, 1, 4, 0), FlowSpec(0, 2, 3, 4, 0)]
        with pytest.raises(TrafficError, match="row 1 has id 0"):
            FlowTable.of(specs)
        with pytest.raises(TrafficError, match="row 0 has id 5"):
            FlowTable.of([FlowSpec(5, 0, 1, 4, 0)])

    def test_equality_is_row_equality(self):
        assert _table(ROWS) == _table(ROWS)
        assert _table(ROWS) != _table(ROWS[:2])
        assert _table(ROWS) != _table([ROWS[0], ROWS[2], ROWS[1]])


def test_flows_digest_sees_every_field_of_every_row():
    base = flows_digest(_table(ROWS))
    assert flows_digest(FlowTable.of(list(_table(ROWS)))) == base
    seen = {base}
    for row in range(len(ROWS)):
        for field in range(4):
            rows = [list(r) for r in ROWS]
            rows[row][field] += 10
            digest = flows_digest(_table(rows))
            assert digest not in seen
            seen.add(digest)
    assert flows_digest(_table(ROWS[:2])) not in seen
