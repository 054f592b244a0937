"""Property tests for the batched path-sampling and enumeration API.

The :meth:`repro.routing.base.Router.paths_batch` contract is stronger
than distribution equality: a batched call must consume the RNG stream
*exactly* as the equivalent sequence of scalar ``path()`` calls would and
return the identical paths.  Hypothesis drives random fabric sizes, pair
lists, and seeds through every draw-kernel router (VLB, SORN on
multi-clique and single-clique layouts, multidim at h=2 and h=3,
hierarchical SORN) plus the base-class fallback, checking stream
equivalence, post-call generator alignment, route validity, and that
every sampled route is one of its pair's enumerated options.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import HierarchicalSornRouter, MultiDimRouter, SornRouter, VlbRouter
from repro.routing.base import DrawRouter, Path, Router
from repro.schedules import HierarchicalSornSchedule, MultiDimSchedule
from repro.topology import CliqueLayout


class _TwoOptionRouter(Router):
    """Minimal router with no paths_batch override: exercises the
    base-class fallback loop."""

    def __init__(self, num_nodes):
        self._n = int(num_nodes)

    @property
    def num_nodes(self):
        return self._n

    @property
    def max_hops(self):
        return 2

    def path_options(self, src, dst):
        self._check_pair(src, dst)
        mid = next(v for v in range(self._n) if v not in (src, dst))
        return [(0.5, Path((src, dst))), (0.5, Path((src, mid, dst)))]


def _make_router(kind, dims):
    cliques, size = dims
    n = cliques * size
    if kind == "vlb":
        return VlbRouter(n), n
    if kind == "sorn-equal":
        layout = CliqueLayout.equal(n, cliques)
        return SornRouter(layout), n
    if kind == "sorn-single":
        # One flat clique: only the intra-clique sampling branch runs.
        return SornRouter(CliqueLayout.flat(n)), n
    if kind == "base-fallback":
        return _TwoOptionRouter(n), n
    if kind == "multidim-h2":
        return MultiDimRouter(MultiDimSchedule(16, 2)), 16
    if kind == "multidim-h3":
        return MultiDimRouter(MultiDimSchedule(27, 3)), 27
    if kind == "hierarchical":
        # Two cliques of 16 = 4^2 nodes: intra pairs draw two LB digits,
        # inter pairs one LB position.
        layout = CliqueLayout.equal(32, 2)
        return HierarchicalSornRouter(HierarchicalSornSchedule(layout, q=2, h=2)), 32
    raise AssertionError(kind)


router_kinds = st.sampled_from(
    [
        "vlb",
        "sorn-equal",
        "sorn-single",
        "base-fallback",
        "multidim-h2",
        "multidim-h3",
        "hierarchical",
    ]
)
dims = st.tuples(st.integers(2, 4), st.integers(2, 5))


@st.composite
def batch_cases(draw):
    """(router, pair arrays, seed) with src != dst per pair."""
    kind = draw(router_kinds)
    router, n = _make_router(kind, draw(dims))
    k = draw(st.integers(0, 30))
    srcs, dsts = [], []
    for _ in range(k):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 2))
        if dst >= src:
            dst += 1
        srcs.append(src)
        dsts.append(dst)
    seed = draw(st.integers(0, 2**31 - 1))
    return (
        router,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        seed,
    )


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_batch_matches_scalar_stream(case):
    """paths_batch == the same number of sequential path() draws, and the
    generator ends in the same state either way (so interleaving batched
    and scalar sampling stays reproducible)."""
    router, srcs, dsts, seed = case
    gen_scalar = np.random.default_rng(seed)
    scalar_paths = [
        router.path(int(s), int(d), gen_scalar).nodes for s, d in zip(srcs, dsts)
    ]
    gen_batch = np.random.default_rng(seed)
    paths, lengths = router.paths_batch(srcs, dsts, gen_batch)
    assert paths.shape == (len(srcs), router.max_hops + 1)
    for i, nodes in enumerate(scalar_paths):
        assert int(lengths[i]) == len(nodes)
        assert tuple(paths[i, : len(nodes)]) == nodes
    # Identical residual stream: the next draw must agree.
    assert gen_scalar.integers(2**32) == gen_batch.integers(2**32)


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_batched_paths_are_valid_routes(case):
    """Every batched row is a well-formed route: correct endpoints, no
    degenerate hops, in-range nodes, -1 padding beyond its length."""
    router, srcs, dsts, seed = case
    paths, lengths = router.paths_batch(srcs, dsts, np.random.default_rng(seed))
    n = router.num_nodes
    for i in range(len(srcs)):
        ln = int(lengths[i])
        row = paths[i]
        assert 2 <= ln <= router.max_hops + 1
        assert row[0] == srcs[i]
        assert row[ln - 1] == dsts[i]
        nodes = row[:ln]
        assert ((nodes >= 0) & (nodes < n)).all()
        assert (nodes[1:] != nodes[:-1]).all()
        assert (row[ln:] == -1).all()


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_sampled_rows_are_enumerated_options(case):
    """Every sampled route is one of its pair's options_batch rows, the
    rows are pair-major, and each pair's probabilities sum to 1."""
    router, srcs, dsts, seed = case
    paths, lengths = router.paths_batch(srcs, dsts, np.random.default_rng(seed))
    pair, prob, options, option_lengths = router.options_batch(srcs, dsts)
    assert (np.diff(pair) >= 0).all()
    assert (prob > 0).all()
    mass = np.bincount(pair, weights=prob, minlength=len(srcs))
    np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-12)
    for i in range(len(srcs)):
        rows = np.flatnonzero(pair == i)
        enumerated = {tuple(options[r, : option_lengths[r]]) for r in rows}
        assert tuple(paths[i, : lengths[i]]) in enumerated


def test_vlb_options_list_direct_then_ascending_intermediates():
    """OperaRouter merges VLB's option list into its own and samples it
    with ``gen.choice``, so this order is part of Opera's draw: the
    direct path first, then the intermediates in ascending order."""
    options = VlbRouter(6).path_options(2, 4)
    assert [path.nodes for _, path in options] == [
        (2, 4),
        (2, 0, 4),
        (2, 1, 4),
        (2, 3, 4),
        (2, 5, 4),
    ]
    assert all(prob == 1.0 / 5 for prob, _ in options)


def test_kernel_routers_keep_a_scalar_path():
    """``path`` is abstract on DrawRouter, so no kernel router can fall
    back to Router.path, whose ``gen.choice`` consumes the generator
    differently from paths_batch."""
    assert "path" in DrawRouter.__abstractmethods__
    for cls in (VlbRouter, SornRouter, MultiDimRouter, HierarchicalSornRouter):
        assert issubclass(cls, DrawRouter)
        assert "path" in vars(cls)

    class NoScalarPath(DrawRouter):
        num_nodes = 4
        max_hops = 2

        def draw_bounds(self, srcs, dsts):
            return np.full((srcs.size, 1), 3)

        def walks(self, srcs, dsts, draws):
            return np.stack([srcs, draws[:, 0] + (draws[:, 0] >= srcs), dsts], axis=1)

    with pytest.raises(TypeError, match="path"):
        NoScalarPath()
